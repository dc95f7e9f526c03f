"""Closed-form accessible and source coherence.

The source-coherence value of a pure state is one minus the normalized
volume of its source set, a majorization polytope whose volume is a
signed sum over permutations of the sorted spectrum, evaluated by a
positive facet recursion over its gaps.  For single qubits
the accessible and source volumes under strictly-incoherent and
partition-preserving operations reduce to piecewise areas in the x-z
Bloch disc, and two small planar families (spectra of length 2 and 3)
have elementary polygon formulas.

Every monotone value is reported together with the raw region volume,
the normalizing supremum and a measure tag, so downstream checks can
confirm ``value = volume/sup`` (accessible) or ``1 - volume/sup``
(source) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feasibility import _QUBIT_FAMILY, _select_spectrum
from .states import QubitBloch, sorted_spectrum

__all__ = [
    "MonotoneValue",
    "RegionGeometry",
    "Segment",
    "Arc",
    "MEASURE_TAGS",
    "permutation_sum",
    "source_coherence_closed",
    "qubit_sio_Ca",
    "qubit_sio_Cs",
    "qubit_pio_Ca",
    "qubit_pio_Cs",
    "planar_example_volumes",
    "region_geometry",
]

#: Recognized Lebesgue-measure conventions for region volumes.
MEASURE_TAGS = ("sorted-representative", "coordinate-plane", "bloch-halfplane")

#: Transverse Bloch radii at or below this are treated as the z axis.
AXIS_TOL = 1e-12

#: Longest spectrum served, zero entries included: the pinned values and
#: the exact permutation-sum oracle check the recursion up to this length.
MAX_SPECTRUM_LEN = 9


@dataclass(frozen=True)
class MonotoneValue:
    """A coherence monotone value with its defining volume data.

    ``value`` is ``volume / sup_volume`` for accessible kind and
    ``1 - volume / sup_volume`` for source kind; construction enforces
    the identity to 1e-12.  Values normally lie in [0, 1]; the one
    documented exception is the qubit PIO accessible coherence, whose
    normalization constant is the value attained on the maximizing
    state family rather than a global bound, so values up to about
    1.076 can occur.  They are reported as computed, never clamped.
    """

    kind: str
    value: float
    volume: float
    sup_volume: float
    measure: str
    operation_class: str

    def __post_init__(self):
        if self.kind not in ("accessible", "source"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.measure not in MEASURE_TAGS:
            raise ValueError(f"unknown measure tag {self.measure!r}")
        if self.operation_class not in _QUBIT_FAMILY:
            raise ValueError(f"unknown operation class {self.operation_class!r}")
        if not self.sup_volume > 0:
            raise ValueError("sup_volume must be positive")
        if abs(self.value - _normalized(self.kind, self.volume,
                                        self.sup_volume)) > 1e-12:
            raise ValueError("value does not match volume / sup_volume")


def _normalized(kind: str, volume, sup):
    """``volume / sup`` for accessible kind, ``1 - volume / sup`` for
    source kind."""
    return volume / sup if kind == "accessible" else 1.0 - volume / sup


# ---------------------------------------------------------------------------
# permutation-sum source coherence


def _permutation_sums(spectra) -> np.ndarray:
    """:func:`permutation_sum` of each row of an ``(N, d)`` array of
    nonincreasing spectra, zero entries included.

    The source polytope is a union of pyramids with apex at the uniform
    spectrum, one per facet, and each of the C(L, m) facets on which m
    coordinates sum to the m largest entries is the product of the
    polytopes of the leading m and trailing L - m entries.  So a run
    lam_1 >= ... >= lam_L with gaps u_k = lam_k - lam_{k+1} has sum
    S = 1 when L = 1, otherwise

        S = sum_m C(L, m) C(L-2, m-1) h_m S(first m) S(last L-m),

    with apex-to-facet heights h_m = sum_k u_k (min(m, k) - m k / L).
    No factor is negative, so nothing cancels; integer weights keep the
    recursion exact on object arrays of Fractions.
    """
    n, d = spectra.shape
    gaps = spectra[:, :-1] - spectra[:, 1:]
    k = np.arange(1, d)
    # windows[:, k - 1, i] is gap k of the run starting at entry i (the
    # index is clipped where no run reads)
    windows = gaps[:, np.minimum(k[:, None] + k - 2, d - 2)]
    mins, prods = np.minimum.outer(k, k), np.multiply.outer(k, k)
    # S of the run of length L from entry i sits at by_start[:, L, i] and
    # by_end[:, L, i + L], so that all leading and trailing parts of the
    # runs of one length are plain slices
    by_start = np.zeros((n, d + 1, d + 1), dtype=spectra.dtype)
    by_end = np.zeros_like(by_start)
    by_start[:, 1] = by_end[:, 1] = 1
    for length in range(2, d + 1):
        count = d - length + 1
        heights = ((length * mins[:length - 1, :length - 1]
                    - prods[:length - 1, :length - 1])
                   @ windows[:, :length - 1, :count])
        weights = np.array([math.comb(length, m) * math.comb(length - 2, m - 1)
                            for m in range(1, length)])
        sums = weights @ (heights * by_start[:, 1:length, :count]
                          * by_end[:, length - 1:0:-1, length:]) / length
        by_start[:, length, :count] = by_end[:, length, length:] = sums
    return by_start[:, d, 0]


def permutation_sum(spectrum) -> float:
    """Normalized source-polytope volume of a sorted spectrum.

    For a nonincreasing probability vector of length d, zero entries
    included, this is the signed permutation sum

        sum over permutations pi of
            [sum_k pi(k) lam_k - (d+1)/2]^(d-1)
            / prod_{k=1}^{d-1} (pi(k) - pi(k+1)),

    the source-polytope volume divided by its value at an incoherent
    spectrum.  It is evaluated by the positive facet recursion of
    :func:`_permutation_sums` in d - 1 rounds of array operations, with
    no cancellation near uniform spectra.

    Length-1 spectra return 1.0 by convention (the source set is the
    whole simplex); lengths above 9 raise.
    """
    lam = sorted_spectrum(spectrum)
    if len(lam) > MAX_SPECTRUM_LEN:
        raise ValueError(f"spectrum length {len(lam)} exceeds cap {MAX_SPECTRUM_LEN}")
    return float(_permutation_sums(lam[None])[0])


def sup_source_volume(dim: int) -> float:
    """Largest source volume in ambient dimension ``dim`` (attained at
    incoherent spectra): sqrt(d) / (d! (d-1)!), for d up to 98; beyond
    that d! (d-1)! overflows a float and ValueError is raised."""
    if dim > 98:
        raise ValueError(f"source volumes need at most 98 entries, got {dim}")
    return math.sqrt(dim) / (math.factorial(dim) * math.factorial(dim - 1))


def source_coherence_closed(state, operation_class: str = "IC",
                            cut=None) -> MonotoneValue:
    """Closed-form source coherence of a pure state.

    ``state`` may be a :class:`~cohertk.states.PureState`, whose spectrum
    :func:`~cohertk.feasibility._select_spectrum` reads under
    ``operation_class``, or a bare sorted probability vector used as the
    spectrum directly.

    The value is ``1 - permutation_sum(spectrum)`` on the full spectrum,
    zero entries included, and the raw volume is normalized by its
    length d, so the incoherent spectrum attains the supremum
    ``sqrt(d)/(d! (d-1)!)`` exactly; lengths above 9 raise.
    """
    operation_class = operation_class.upper()
    spectrum = _select_spectrum(state, operation_class, cut)
    sigma = permutation_sum(spectrum)
    sup = sup_source_volume(len(spectrum))
    return MonotoneValue(kind="source", value=1.0 - sigma,
                         volume=sup * sigma, sup_volume=sup,
                         measure="sorted-representative",
                         operation_class=operation_class)


# ---------------------------------------------------------------------------
# single-qubit closed forms (x-z Bloch disc areas).  The SIO areas are
# radial factors of t times height factors of z; their kernels take a
# ``gather`` mapping z's own axes onto t's grid, so a caller whose heights
# repeat values each height factor once.


def _sio_accessible_height(z):
    """Height factor h(z) = arcsin(sqrt(1-z^2))/sqrt(1-z^2) + |z| of the
    accessible area 2 t h(z); the root reads 1 where 1 - z^2 <= 0."""
    one_minus = np.clip(1.0 - z * z, 0.0, None)
    return (np.arcsin(np.sqrt(one_minus))
            / np.sqrt(np.where(one_minus > 0, one_minus, 1.0)) + np.abs(z))


def _sio_accessible_volume(t, z, gather=np.asarray):
    """Accessible area under strictly/fully incoherent qubit operations:
    the ellipse x^2 (1-z_r^2)/t_r^2 + z^2 <= 1 cut to the strip
    |x| <= t_r, which is 2 t h(z), and 0 at t = 0.  Vectorized."""
    return np.where(t > 0, 2.0 * t * gather(_sio_accessible_height(z)), 0.0)


def _sio_source_radial(t):
    """Radial factor A(t) = 2 arcsin(sqrt(1-t^2)) - 2 t sqrt(1-t^2) of the
    mixed source area: the two caps |x| >= t of the disc."""
    root = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    return 2.0 * np.arcsin(root) - 2.0 * t * root


def _sio_source_height(z):
    """Height factor G(z) = arcsin|z|/sqrt(1-z^2) - |z| of the mixed
    source area A(t) - 2 t G(z); the root reads 1 where 1 - z^2 <= 0."""
    one_minus = np.clip(1.0 - z * z, 0.0, None)
    az = np.abs(z)
    return (np.arcsin(np.clip(az, 0.0, 1.0))
            / np.sqrt(np.where(one_minus > 0, one_minus, 1.0)) - az)


def _sio_source_volume_mixed(t, z, gather=np.asarray):
    """Source area for strictly mixed qubit states (|r| < 1): the disc
    minus the strip-and-ellipse exclusion, A(t) - 2 t G(z) clipped to
    [0, pi].  Vectorized."""
    return np.clip(_sio_source_radial(t)
                   - 2.0 * t * gather(_sio_source_height(z)), 0.0, np.pi)


def _sio_source_volume_pure(z):
    """Source area convention on the pure boundary: the side caps
    |x| >= sqrt(1-z^2) of the disc."""
    az = np.clip(np.abs(np.asarray(z, dtype=float)), 0.0, 1.0)
    return 2.0 * np.arcsin(az) - 2.0 * az * np.sqrt(1.0 - az * az)


def _on_pure_boundary(t, z, gather=np.asarray):
    """|t^2 + z^2 - 1| <= 1e-12, as ``QubitBloch.is_pure``; vectorized."""
    return abs(t * t + gather(z * z) - 1.0) <= 1e-12


def _sio_source_volume(t, z, gather=np.asarray):
    """Source area under strictly/fully incoherent qubit operations: the
    side caps on the pure boundary, the mixed-state area elsewhere.
    Vectorized; evaluates only the branches its points need."""
    pure = _on_pure_boundary(t, z, gather)
    if not np.any(pure):
        return _sio_source_volume_mixed(t, z, gather)
    caps = gather(_sio_source_volume_pure(z))
    return caps if np.all(pure) else np.where(
        pure, caps, _sio_source_volume_mixed(t, z, gather))


def _pio_accessible_volume(t, z):
    """Hexagon area 2 t (1 + |z|), vectorized."""
    return 2.0 * t * (1.0 + np.abs(z))


def _pio_source_volume(t, z):
    """Source area under partition-preserving qubit operations,
    vectorized over numpy arrays.

    With k = (1 - |z|)/t the inner boundary |x| = (1 - |z'|)/k meets
    the unit circle at x* = 2k/(1+k^2); for k < 1 the region splits
    into four quadrant slivers between the strip |x| >= t, that line
    and the circle (empty when t >= x*, which happens exactly on and
    beyond the pure boundary), while for k >= 1 it is the side strip
    minus two triangles.  t = 0 gives the whole disc.
    """
    az = np.abs(z)
    degenerate = t <= AXIS_TOL
    safe_t = np.where(degenerate, 1.0, t)
    k = (1.0 - az) / safe_t

    # k >= 1 branch: strip caps minus triangles
    cap = np.pi - 2.0 * np.arcsin(np.clip(t, 0, 1)) \
        - 2.0 * t * np.sqrt(np.clip(1 - t * t, 0, None))
    safe_gap = np.where(az < 1.0, 1.0 - az, 1.0)
    strip_branch = cap - 2.0 * t * z * z / safe_gap

    # k < 1 branch: four slivers between strip, line and circle
    safe_k = np.where(k > 0, k, 1.0)
    x_star = 2.0 * safe_k / (1.0 + safe_k * safe_k)
    z_star = (1.0 - safe_k * safe_k) / (1.0 + safe_k * safe_k)
    sliver = (2.0 * (np.arcsin(np.clip(x_star, 0, 1))
                     - np.arcsin(np.clip(t, 0, 1)))
              + 2.0 * x_star * np.sqrt(np.clip(1 - x_star * x_star, 0, None))
              - 2.0 * t * np.sqrt(np.clip(1 - t * t, 0, None))
              - 2.0 * (az + z_star) * (x_star - t))
    sliver = np.where(t >= x_star, 0.0, sliver)

    body = np.where(k >= 1.0, strip_branch, sliver)
    return np.clip(np.where(degenerate, np.pi, body), 0.0, np.pi)


def _qubit_value(name: str, r) -> MonotoneValue:
    """The qubit form ``name`` at a Bloch vector or 3-tuple, in float
    math."""
    kind, label, area, sup, _ = _QUBIT_FORMS[name]
    if not isinstance(r, QubitBloch):
        r = QubitBloch(*r)
    volume = float(area(math.sqrt(r.transverse_sq), r.r_z))
    return MonotoneValue(kind=kind, value=_normalized(kind, volume, sup),
                         volume=volume, sup_volume=sup,
                         measure="bloch-halfplane", operation_class=label)


def qubit_sio_Ca(r) -> MonotoneValue:
    """Accessible coherence of a qubit under SIO (equivalently IC).

    The accessible region of a Bloch vector with transverse radius
    t = sqrt(r_x^2 + r_y^2) is the central strip |x| <= t of the
    ellipse x^2 (1 - r_z^2)/t^2 + z^2 = 1; its area divided by the
    disc area pi is the monotone.  States on the z axis (t = 0) have
    value 0.
    """
    return _qubit_value("sio-Ca", r)


def qubit_sio_Cs(r) -> MonotoneValue:
    """Source coherence of a qubit under SIO (equivalently IC).

    Piecewise in the Bloch ball: strictly mixed states use the
    strip-and-ellipse exclusion area; states on the pure boundary
    (|r|^2 = 1 within 1e-12) use the side-caps convention, under which
    source and accessible coherence agree on pure states.
    """
    return _qubit_value("sio-Cs", r)


def qubit_pio_Ca(r) -> MonotoneValue:
    """Accessible coherence of a qubit under partition-preserving
    incoherent operations: hexagon area 2t(1+|r_z|) over 1 + sqrt(2).

    The normalization is the area attained on the maximizing family
    t^2 = r_z^2 = 1/2, not a global bound, so the value can exceed 1
    (up to 3*sqrt(3)/2 / (1+sqrt(2)) ~ 1.076); it is reported as is.
    """
    return _qubit_value("pio-Ca", r)


def qubit_pio_Cs(r) -> MonotoneValue:
    """Source coherence of a qubit under partition-preserving
    incoherent operations (piecewise disc area, sup pi)."""
    return _qubit_value("pio-Cs", r)


def _qubit_monotone(monotone: str, t, z, *gather):
    """Value of ``qubit_sio_Ca``, ``qubit_sio_Cs``, ``qubit_pio_Ca`` or
    ``qubit_pio_Cs`` (named ``"sio-Ca"`` ... ``"pio-Cs"``) at transverse
    radii ``t`` and heights ``z``, vectorized; a ``gather`` passes on to
    the SIO area kernels."""
    if monotone not in _QUBIT_FORMS:
        raise ValueError(f"unknown monotone {monotone!r}")
    kind, _, area, sup, _ = _QUBIT_FORMS[monotone]
    return _normalized(kind, area(t, z, *gather), sup)


# ---------------------------------------------------------------------------
# planar example families


def planar_example_volumes(state, operation_class: str = "IC", cut=None):
    """Accessible/source volumes for the planar example families.

    ``state`` is a pure state (spectrum chosen by class as in
    :func:`source_coherence_closed`) or a bare sorted spectrum.  Its
    full length, zero entries included, picks the family (others raise):

    * length 3 — coordinate-plane measure on the (x1, x2) triangle of
      (a, b, c): V_a = c(c + 2b)/2, V_s = a(a + 2b)/2, sup 1/2.
    * length 2 — sorted-representative segment: V_a = sqrt(2)(1-x),
      V_s = sqrt(2)(x - 1/2), sup sqrt(2)/2.
    * length 1 — incoherent; reported in the segment convention with
      x = 1.

    Returns ``(V_a, V_s, C_a, C_s)``.
    """
    kinds = _planar_family(state, operation_class.upper(), cut)[3]
    (va, ca, _), (vs, cs, _) = kinds["accessible"], kinds["source"]
    return va, vs, ca, cs


def _planar_family(subject, operation_class: str, cut=None) -> tuple:
    """The planar family of a subject as ``(measure, dimension, sup,
    {kind: (volume, value, boundary loops)})``, with the volumes and
    values of :func:`planar_example_volumes`."""
    lam = _select_spectrum(subject, operation_class, cut)
    if len(lam) == 3:
        a, b, c = (float(x) for x in lam)
        va = 0.5 * c * (c + 2.0 * b)
        vs = 0.5 * a * (a + 2.0 * b)
        # counterclockwise quadrilaterals in the (x1, x2) plane
        accessible = [(a + b, 0.0), (1.0, 0.0), (a, 1.0 - a), (a, b)]
        source = [(0.0, 0.0), (a, 0.0), (a, b), (0.0, a + b)]
        return ("coordinate-plane", 2, 0.5,
                {"accessible": (va, 2.0 * va, _planar_polygon(accessible)),
                 "source": (vs, 1.0 - 2.0 * vs, _planar_polygon(source))})
    if len(lam) in (1, 2):
        x = float(lam[0])
        va = math.sqrt(2.0) * (1.0 - x)
        vs = math.sqrt(2.0) * (x - 0.5)
        c = 2.0 * (1.0 - x)
        return ("sorted-representative", 1, math.sqrt(2.0) / 2.0,
                {"accessible": (va, c, ((Segment((x, 1.0 - x), (1.0, 0.0)),),)),
                 "source": (vs, c, ((Segment((0.5, 0.5), (x, 1.0 - x)),),))})
    raise ValueError(f"no planar formula for length {len(lam)}")


def _closed_monotone(subject, kind: str, operation_class: str, cut=None,
                     planar: bool = False) -> MonotoneValue:
    """Closed-form monotone of any subject: the qubit form of a Bloch
    vector; otherwise the planar family when ``planar`` is set or for
    accessible kind (spectra have no other accessible closed form), and
    :func:`source_coherence_closed` for the rest."""
    operation_class = operation_class.upper()
    if isinstance(subject, QubitBloch):
        name = _QUBIT_FORM_NAMES.get((kind, _QUBIT_FAMILY.get(operation_class)))
        if name is None:
            raise ValueError(f"no closed qubit form for kind={kind!r} "
                             f"class={operation_class!r}")
        return _qubit_value(name, subject)
    if not (planar or kind == "accessible"):
        return source_coherence_closed(subject, operation_class, cut)
    measure, _, sup, kinds = _planar_family(subject, operation_class, cut)
    volume, value, _ = kinds[kind]
    return MonotoneValue(kind=kind, value=value, volume=volume, sup_volume=sup,
                         measure=measure, operation_class=operation_class)


# ---------------------------------------------------------------------------
# region geometry (plot data with analytically exact boundaries)


@dataclass(frozen=True)
class Segment:
    """Directed straight boundary piece."""

    start: tuple
    end: tuple

    def green_term(self) -> float:
        return 0.5 * (self.start[0] * self.end[1]
                      - self.start[1] * self.end[0])

    def length(self) -> float:
        return math.hypot(self.end[0] - self.start[0],
                          self.end[1] - self.start[1])

    def sample(self, n: int) -> np.ndarray:
        s = np.linspace(0.0, 1.0, n)
        return np.column_stack([
            self.start[0] + s * (self.end[0] - self.start[0]),
            self.start[1] + s * (self.end[1] - self.start[1])])


@dataclass(frozen=True)
class Arc:
    """Axis-aligned elliptical arc, parameterized
    (cx + rx cos(theta), cy + ry sin(theta)) for theta from theta0 to
    theta1 (counterclockwise when theta1 > theta0)."""

    center: tuple
    rx: float
    ry: float
    theta0: float
    theta1: float

    def point(self, theta: float) -> tuple:
        return (self.center[0] + self.rx * math.cos(theta),
                self.center[1] + self.ry * math.sin(theta))

    @property
    def start(self) -> tuple:
        return self.point(self.theta0)

    @property
    def end(self) -> tuple:
        return self.point(self.theta1)

    def green_term(self) -> float:
        # 1/2 integral of (x dy - y dx) along the arc
        x0, y0 = self.start
        x1, y1 = self.end
        sweep = self.theta1 - self.theta0
        return 0.5 * (self.rx * self.ry * sweep
                      + self.center[0] * (y1 - y0)
                      - self.center[1] * (x1 - x0))

    def sample(self, n: int) -> np.ndarray:
        theta = np.linspace(self.theta0, self.theta1, n)
        return np.column_stack([
            self.center[0] + self.rx * np.cos(theta),
            self.center[1] + self.ry * np.sin(theta)])


@dataclass(frozen=True)
class RegionGeometry:
    """Boundary description of an accessible or source region.

    ``components`` is a tuple of closed counterclockwise loops, each a
    tuple of :class:`Segment`/:class:`Arc` pieces; one-dimensional
    regions (the sorted-representative segment family) instead carry
    open single-segment components and report length.  ``area()``
    evaluates Green's theorem piecewise and must reproduce the closed
    form within 1e-6.
    """

    measure: str
    kind: str
    dimension: int
    components: tuple

    def area(self) -> float:
        if self.dimension == 1:
            return sum(piece.length()
                       for loop in self.components for piece in loop)
        return sum(piece.green_term()
                   for loop in self.components for piece in loop)

    def boundary_points(self, per_piece: int = 64) -> list:
        """One (n, 2) polyline array per component."""
        out = []
        for loop in self.components:
            chunks = [piece.sample(per_piece) for piece in loop]
            out.append(np.vstack(chunks))
        return out


_FULL_DISC = ((Arc((0.0, 0.0), 1.0, 1.0, -0.5 * math.pi, 0.5 * math.pi),
               Arc((0.0, 0.0), 1.0, 1.0, 0.5 * math.pi, 1.5 * math.pi)),)


def _turned(loop) -> tuple:
    """A boundary loop turned by pi about the origin, piece by piece; an
    arc's centre turns as ``0 - c``, which keeps an origin centre +0.0."""
    return tuple(Segment((-p.start[0], -p.start[1]), (-p.end[0], -p.end[1]))
                 if isinstance(p, Segment) else
                 Arc((0.0 - p.center[0], 0.0 - p.center[1]), p.rx, p.ry,
                     p.theta0 + math.pi, p.theta1 + math.pi)
                 for p in loop)


def _strip_side_loops(t: float, az: float, h: float, *inner) -> tuple:
    """A source loop right of the strip |x| < t, with its turned copy: down
    x = t from (t, h) to (t, az), through the ``inner`` pieces to (t, -az),
    on to (t, -h), and back along the unit circle."""
    theta_h = math.atan2(h, t)
    right = (Segment((t, h), (t, az)), *inner, Segment((t, -az), (t, -h)),
             Arc((0.0, 0.0), 1.0, 1.0, -theta_h, theta_h))
    return (right, _turned(right))


def _sio_accessible_geometry(t: float, z: float) -> tuple:
    az = abs(z)
    rx = t / math.sqrt(1.0 - az * az) if az < 1.0 else 0.0
    theta = math.acos(min(1.0, math.sqrt(max(0.0, 1.0 - az * az))))
    upper = (Segment((t, -az), (t, az)),
             Arc((0.0, 0.0), rx, 1.0, theta, math.pi - theta))
    return (upper + _turned(upper),)


def _sio_source_geometry(t: float, z: float) -> tuple:
    if t <= AXIS_TOL:
        return _FULL_DISC
    az = abs(z)
    h = math.sqrt(max(0.0, 1.0 - t * t))
    if _on_pure_boundary(t, z):
        theta_h = math.atan2(h, t)
        right = (
            Segment((t, h), (t, -h)),
            Arc((0.0, 0.0), 1.0, 1.0, -theta_h, theta_h),
        )
        return (right, _turned(right))
    rx = t / math.sqrt(1.0 - az * az)
    # ellipse parameter of the strip corner (t, +/-az); the arc bulges
    # through (rx, 0)
    phi = math.acos(min(1.0, t / rx)) if rx > 0 else 0.5 * math.pi
    return _strip_side_loops(t, az, h, Arc((0.0, 0.0), rx, 1.0, phi, -phi))


def _pio_accessible_geometry(t: float, z: float) -> tuple:
    az = abs(z)
    return _planar_polygon([(t, az), (0.0, 1.0), (-t, az), (-t, -az),
                            (0.0, -1.0), (t, -az)])


def _pio_source_geometry(t: float, z: float) -> tuple:
    if t <= AXIS_TOL:
        return _FULL_DISC
    az = abs(z)
    h = math.sqrt(max(0.0, 1.0 - t * t))
    k = (1.0 - az) / t
    if k >= 1.0:
        apex = 1.0 / k
        return _strip_side_loops(t, az, h, Segment((t, az), (apex, 0.0)),
                                 Segment((apex, 0.0), (t, -az)))
    theta_h = math.atan2(h, t)
    x_star = 2.0 * k / (1.0 + k * k)
    if t >= x_star:
        return ()
    z_star = (1.0 - k * k) / (1.0 + k * k)
    theta_star = math.atan2(z_star, x_star)
    line_meet = 1.0 - k * t  # z where the line crosses x = t (equals az)
    top_right = (
        Segment((t, h), (t, line_meet)),
        Segment((t, line_meet), (x_star, z_star)),
        Arc((0.0, 0.0), 1.0, 1.0, theta_star, theta_h),
    )
    bottom_right = (
        Segment((x_star, -z_star), (t, -line_meet)),
        Segment((t, -line_meet), (t, -h)),
        Arc((0.0, 0.0), 1.0, 1.0, -theta_h, -theta_star),
    )
    return (top_right, bottom_right, _turned(bottom_right), _turned(top_right))


#: Each qubit form by its suite name: kind, class label, area kernel over
#: transverse radii t and heights z, normalizing sup, boundary builder.
_QUBIT_FORMS = {
    "sio-Ca": ("accessible", "SIO", _sio_accessible_volume, math.pi,
               _sio_accessible_geometry),
    "sio-Cs": ("source", "SIO", _sio_source_volume, math.pi,
               _sio_source_geometry),
    "pio-Ca": ("accessible", "PIO", _pio_accessible_volume,
               1.0 + math.sqrt(2.0), _pio_accessible_geometry),
    "pio-Cs": ("source", "PIO", _pio_source_volume, math.pi,
               _pio_source_geometry),
}

#: Suite name of each (kind, class label) pair.
_QUBIT_FORM_NAMES = {form[:2]: name for name, form in _QUBIT_FORMS.items()}


def _planar_polygon(vertices) -> tuple:
    n = len(vertices)
    return (tuple(Segment(vertices[i], vertices[(i + 1) % n])
                  for i in range(n)),)


def region_geometry(subject, operation_class: str, kind: str) -> RegionGeometry:
    """Exact boundary of an accessible or source region as plot data.

    Supported subjects: a :class:`~cohertk.states.QubitBloch` with class
    SIO/IC or PIO — regions in the x-z Bloch disc — and a pure state or
    sorted spectrum of length 1 to 3 — the planar example
    regions.  Subjects are read as :func:`_closed_monotone` reads them,
    so a bare sequence is always a spectrum.  The emitted piecewise
    boundary integrates (via :meth:`RegionGeometry.area`) to the
    closed-form volume within 1e-6.
    """
    if kind not in ("accessible", "source"):
        raise ValueError(f"unknown kind {kind!r}")
    operation_class = operation_class.upper()
    if isinstance(subject, QubitBloch):
        name = _QUBIT_FORM_NAMES.get((kind, _QUBIT_FAMILY.get(operation_class)))
        if name is None:
            raise ValueError(
                f"no qubit region geometry for class {operation_class!r}")
        loops = _QUBIT_FORMS[name][4](math.sqrt(subject.transverse_sq),
                                      subject.r_z)
        return RegionGeometry(measure="bloch-halfplane", kind=kind,
                              dimension=2, components=loops)
    measure, dimension, _, kinds = _planar_family(subject, operation_class)
    return RegionGeometry(measure=measure, kind=kind, dimension=dimension,
                          components=kinds[kind][2])
