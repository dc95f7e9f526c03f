"""Reference values computed apart from cohertk.

Nothing here imports the package under test.  Each function recomputes a
quantity the program reports, from its definition, so the benchmark can
check every output it times against something the program did not
compute:

* the Postnikov permutation sum of a rational spectrum, exactly;
* the number of valid points of the counterexample grid, by integer
  arithmetic;
* the image of a state under a local relabeling witness, and the phase
  minors that rule a relabeling out;
* the accessible area of a qubit under strictly incoherent operations,
  by Gauss-Legendre quadrature of its defining ellipse;
* planar polygon areas, by half-plane clipping and the shoelace formula.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# spectra


def rational_spectrum(rng, d: int, denominator: int) -> list:
    """A nonincreasing probability vector of ``d`` positive entries, each a
    multiple of ``1/denominator``.

    With a power-of-two denominator every entry is a binary float, so the
    float input the program receives equals the rational one exactly.
    """
    cuts = np.sort(rng.choice(np.arange(1, denominator), size=d - 1,
                              replace=False))
    parts = np.diff(np.concatenate([[0], cuts, [denominator]]))
    return sorted((Fraction(int(p), denominator) for p in parts), reverse=True)


def permutation_sum_exact(spectrum) -> Fraction:
    """Postnikov's signed permutation sum of a spectrum, in exact
    rational arithmetic.

    For a nonincreasing probability vector with zero entries removed,
    length d,

        sum over permutations pi of
            [sum_k pi(k) lam_k - (d+1)/2]^(d-1)
            / prod_{k<d} (pi(k) - pi(k+1)).

    Writing lam_k = n_k / D, each bracket is B / (2D) with the integer
    B = 2 sum_k pi(k) n_k - (d+1) D, so the whole sum is one integer
    numerator over lcm(products) * (2D)^(d-1); only the last step builds
    a Fraction.
    """
    lam = [Fraction(x) for x in spectrum]
    if sum(lam) != 1 or any(x < 0 for x in lam):
        raise ValueError("spectrum must be a probability vector")
    lam = sorted((x for x in lam if x > 0), reverse=True)
    d = len(lam)
    if d == 1:
        return Fraction(1)
    denom = math.lcm(*(x.denominator for x in lam))
    n = [int(x * denom) for x in lam]
    shift = (d + 1) * denom
    terms = []
    for pi in itertools.permutations(range(1, d + 1)):
        bracket = 2 * sum(p * c for p, c in zip(pi, n)) - shift
        product = math.prod(pi[k] - pi[k + 1] for k in range(d - 1))
        terms.append((bracket ** (d - 1), product))
    common = math.lcm(*(abs(p) for _, p in terms))
    numerator = sum(power * (common // p) for power, p in terms)
    return Fraction(numerator, common * (2 * denom) ** (d - 1))


def sup_source_volume(d: int) -> float:
    """Source volume of an incoherent spectrum in dimension d:
    sqrt(d) / (d! (d-1)!)."""
    return math.sqrt(d) / (math.factorial(d) * math.factorial(d - 1))


# ---------------------------------------------------------------------------
# counterexample grid


def counterexample_grid_points(steps: int = 20) -> int:
    """Points (t, z, p, gamma) of the certification grid.

    Each axis holds k/steps for k = 1 .. steps-1 (0.05 .. 0.95 at the
    default step 0.05); a point is kept when t^2 + z^2 < 1, i.e. when
    k_t^2 + k_z^2 < steps^2.  The p and gamma axes are unconstrained.
    """
    axis = range(1, steps)
    disc = sum(1 for kt in axis for kz in axis if kt * kt + kz * kz < steps * steps)
    return disc * (steps - 1) ** 2


# ---------------------------------------------------------------------------
# local relabelings


def relabel(amps, dims, perms, phases) -> np.ndarray:
    """Apply per-party phase-permutations to a flat amplitude vector.

    Party k maps basis index i to perms[k][i] with phase
    exp(1j * phases[k][i]), so the amplitude at multi-index (i_0, i_1, ..)
    moves to (perms[0][i_0], perms[1][i_1], ..).
    """
    tensor = np.asarray(amps, dtype=complex).reshape(dims)
    for axis, (perm, phase) in enumerate(zip(perms, phases)):
        shape = [1] * len(dims)
        shape[axis] = dims[axis]
        tensor = tensor * np.exp(1j * np.asarray(phase, dtype=float)).reshape(shape)
        out = np.empty_like(tensor)
        index = [slice(None)] * len(dims)
        index[axis] = np.asarray(perm)
        out[tuple(index)] = tensor
        tensor = out
    return tensor.reshape(-1)


def fidelity(a, b) -> float:
    """|<a|b>| for unit vectors: 1 when they agree up to a global phase."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))))


def max_phase_minor(first, second, dims, perms) -> float:
    """Largest |2x2 minor| (wrapped to (-pi, pi]) of the phase difference
    between ``second`` read through the relabeling ``perms`` and
    ``first``.

    The phase difference D(i) = arg second[perms(i)] - arg first[i] is
    separable, a sum of one function per party, exactly when every
    minor D[i,j] - D[i,j'] - D[i',j] + D[i',j'] over two parties vanishes
    mod 2 pi.  Local phases only add separable terms, so a nonzero minor
    means no choice of phases can map first onto second through perms.
    """
    first = np.asarray(first, dtype=complex).reshape(dims)
    moved = relabel(np.asarray(second, dtype=complex).reshape(-1), dims,
                    [np.argsort(p) for p in perms],
                    [np.zeros(d) for d in dims]).reshape(dims)
    diff = np.angle(moved) - np.angle(first)
    worst = 0.0
    for a, b in itertools.combinations(range(len(dims)), 2):
        plane = np.moveaxis(diff, (a, b), (0, 1)).reshape(dims[a], dims[b], -1)
        # plane is indexed (i, j, rest); minors[i, i', j, j', rest]
        minors = (plane[:, None, :, None, :] - plane[:, None, None, :, :]
                   - plane[None, :, :, None, :] + plane[None, :, None, :, :])
        wrapped = (minors + math.pi) % (2 * math.pi) - math.pi
        worst = max(worst, float(np.max(np.abs(wrapped))))
    return worst


def min_modulus_gap(amps) -> float:
    """Smallest gap between distinct sorted amplitude moduli.  When it is
    large, the modulus pattern pins down the one relabeling that can map a
    state onto a partner with the same moduli."""
    mods = np.sort(np.abs(np.asarray(amps)))
    return float(np.min(np.diff(mods)))


# ---------------------------------------------------------------------------
# qubit and planar areas


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def sio_accessible_area(t: float, z: float) -> float:
    """Area of the strip |x| <= t of the ellipse x^2 / a^2 + z'^2 <= 1,
    a = t / sqrt(1 - z^2): the integral of the height
    2 sqrt(1 - x^2 / a^2) over x in [-t, t].  With x = a sin(theta) the
    integrand becomes the smooth 2 a cos(theta)^2, which Gauss-Legendre
    quadrature integrates to rounding error."""
    if t <= 0:
        return 0.0
    a = t / math.sqrt(1.0 - z * z)
    half = math.asin(min(1.0, t / a))
    theta = half * _NODES
    return float(half * np.dot(_WEIGHTS, 2.0 * a * np.cos(theta) ** 2))


def clip_polygon(vertices, a, b, c) -> list:
    """Keep the part of a convex polygon where a*x + b*y <= c
    (Sutherland-Hodgman against one half-plane)."""
    out = []
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            s = fp / (fp - fq)
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    return out


def shoelace(points) -> float:
    """Absolute area of a closed polygon given by its vertex sequence."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def planar_region_areas(a: float, b: float) -> tuple:
    """(accessible, source) areas in the coordinate plane of the qutrit
    spectrum (a, b, 1-a-b): the triangle x1, x2 >= 0, x1 + x2 <= 1 cut by
    x1 >= a, x1 + x2 >= a + b (accessible) or by x1 <= a, x1 + x2 <= a + b
    (source)."""
    triangle = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    accessible = clip_polygon(clip_polygon(triangle, -1, 0, -a),
                              -1, -1, -(a + b))
    source = clip_polygon(clip_polygon(triangle, 1, 0, a), 1, 1, a + b)
    return shoelace(accessible), shoelace(source)
