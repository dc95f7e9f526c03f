"""Independent ground truth for the closed-form volumes and monotone
properties.

Three kinds of oracle live here: exact majorization-polytope volumes in
rational arithmetic (no floating-point noise), seeded
Monte-Carlo volume estimation over feasibility predicates, and
property-test drivers for the monotone axioms (nonincrease under free
channels, and the two conditions — average coherence under selective
measurements and convexity under mixing — that the volume monotones
deliberately fail).  A certificate compares a whole state with its
weighted branches or components, all valued by the shared qubit kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .channels import (_apply_kraus, _check_kraus, _random_kraus,
                       _random_permutations, _random_unit_vectors,
                       apply_to_density, apply_to_pure, random_channel)
from .feasibility import _QUBIT_FAMILY, pio_feasible_mask, sio_feasible_mask
from .monotones import (_QUBIT_FORM_NAMES, MAX_SPECTRUM_LEN, _permutation_sums,
                        _qubit_monotone, qubit_pio_Ca, qubit_pio_Cs, qubit_sio_Ca,
                        qubit_sio_Cs, source_coherence_closed, sup_source_volume)
from .states import (AMP_TOL, PureState, QubitBloch, product_term_count,
                     sorted_spectrum)

__all__ = [
    "DEFAULT_SEED",
    "VolumeEstimate",
    "SampleRegion",
    "make_region",
    "mc_volume",
    "exact_polytope_volume",
    "qubit_region_predicate",
    "sorted_simplex_predicate",
    "coordinate_plane_predicate",
    "IdentityReport",
    "formula_identity_check",
    "MonotonicityReport",
    "monotonicity_suite",
    "Lemma1Report",
    "lemma1_suite",
    "CounterexampleReport",
    "b3_b4_counterexamples",
]

#: Documented default seed for every stochastic oracle entry point.
DEFAULT_SEED = 715517

#: Monte-Carlo samples are drawn in fixed-size shards with seeds spawned
#: from the root seed, so results do not depend on how shards are
#: scheduled across workers.
SHARD_SIZE = 100_000

#: Points per block of the sorted-simplex sampler; a block stays in cache.
_SIMPLEX_BLOCK = 16_384

_MONOTONICITY_TOL = 1e-8

#: Most points a 4-D counterexample grid may have (19**4 at the default
#: step); checked before the grid is allocated.
_MAX_GRID_POINTS = 10 ** 6


# ---------------------------------------------------------------------------
# Monte-Carlo volume estimation


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte-Carlo volume with its sampling error.

    ``mean`` is hit-ratio times region measure; ``standard_error`` is
    the binomial proportion error scaled the same way.  Identical
    (seed, samples) pairs reproduce bit-identical estimates.
    """

    mean: float
    standard_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class SampleRegion:
    """A sampleable base region with known measure.

    ``sample(rng, n)`` returns (n, dimension) points drawn uniformly from
    the region (the plane's fold is branch-free and gives a masked fold's
    points).  Rows are short (2 to d entries) and the sorted simplex and
    both discs return contiguous columns, so a predicate should read them.
    """

    name: str
    measure: float
    dimension: int
    _sampler: object

    def sample(self, rng, n: int) -> np.ndarray:
        return self._sampler(rng, n)


def _merge_exchange(d):
    """Comparators of Batcher's merge-exchange network on d wires (Knuth,
    TAOCP 5.2.2, Algorithm M); each puts the larger entry on wire i."""
    t, pairs = (d - 1).bit_length(), []
    for p in (1 << k for k in reversed(range(t))):
        passes = [(0, p)] + [(p, (1 << k) - p)
                             for k in reversed(range(p.bit_length(), t))]
        pairs += [(i, i + gap) for r, gap in passes
                  for i in range(d - gap) if i & p == r]
    return pairs


def _sample_sorted_simplex(d):
    """Exponential draws over their row total, sorted nonincreasing, with
    contiguous columns: the points of ``raw /= raw.sum(axis=1);
    raw.sort(axis=1); raw[:, ::-1]`` bit for bit.  A row sort is one sort
    call per point, so each block is sorted by column with a comparator
    network (it only permutes values), its total added in numpy's row-sum
    order (a running sum below 8 entries, pairwise from 8)."""
    pairs = _merge_exchange(d)

    def sampler(rng, n):
        cols = np.empty((d, n))
        for start in range(0, n, _SIMPLEX_BLOCK):
            draw = rng.standard_exponential((min(_SIMPLEX_BLOCK, n - start), d))
            block, low = cols[:, start:start + len(draw)], np.empty(len(draw))
            block[...] = draw.T
            block /= block.sum(axis=0) if d < 8 else draw.sum(axis=1)
            for i, j in pairs:
                np.minimum(block[i], block[j], out=low)
                np.maximum(block[i], block[j], out=block[i])
                block[j] = low
        return cols.T
    return sampler


def _sample_coordinate_plane(rng, n):
    """Uniform pairs p folded onto the triangle as |f - p|, f = 1.0 where
    x + y > 1 and 0.0 elsewhere: in place and branch-free, fl(1 - p) where
    folded and exactly p elsewhere (never -0.0), a masked fold's points."""
    pts = rng.random((n, 2))
    fold = (pts[:, 0] + pts[:, 1] > 1.0).astype(float)
    return np.abs(np.subtract(fold[:, None], pts, out=pts), out=pts)


def _sample_disc(theta_lo, theta_hi):
    """Points ``(r cos θ, r sin θ)`` as contiguous columns, from the draws
    ``r = sqrt(u1)`` then ``θ = lo + (hi - lo)·u2``, unchanged (halving
    commutes with rounding, so lo/2 + (hi - lo)/2·u2 is θ/2 bit for bit).
    numpy vectorizes tan but calls libm per point for cos and sin, so the
    point is mapped through t = tan(θ/2): cos θ = (1 - t²)/(1 + t²), sin θ
    = 2t/(1 + t²).  Their slopes in log t, sin²θ and sin 2θ / 2, are at
    most 1, so tan's relative error e moves a coordinate by r·e at most,
    and the roundings and libm add about 5·2^-53·r: under 1e-15 for a tan
    within 2 ULPs.  |θ/2| < π, so |t| <= tan(fl(π/2)) ≈ 1.6e16 and t²
    cannot overflow; on the half disc |θ/2| <= fl(π/4) < π/4, so a
    faithful tan gives |t| <= 1 and x >= 0 exactly."""
    def sampler(rng, n):
        # every array is written in place: fresh ones raised peak RSS
        radius = rng.random(n)
        np.sqrt(radius, out=radius)
        t = rng.random(n)
        t *= 0.5 * (theta_hi - theta_lo)
        t += 0.5 * theta_lo
        np.tan(t, out=t)
        x, z = cols = np.empty((2, n))
        np.multiply(t, t, out=x)
        np.add(x, 1.0, out=z)
        radius /= z
        np.multiply(np.subtract(1.0, x, out=x), radius, out=x)
        np.multiply(np.add(t, t, out=z), radius, out=z)
        return cols.T
    return sampler


def make_region(name: str, dim: int = None) -> SampleRegion:
    """Region factory.

    * ``"simplex-sorted"`` (needs ``dim``): nonincreasing probability
      vectors, uniform w.r.t. the Euclidean measure on the simplex
      hyperplane; measure sqrt(d)/(d! (d-1)!).
    * ``"coordinate-plane"``: the (x1, x2) triangle x1, x2 >= 0,
      x1 + x2 <= 1; measure 1/2.
    * ``"bloch-disc"``: the full x-z Bloch disc; measure pi.
    * ``"bloch-half-disc"``: its x >= 0 half; measure pi/2.
    """
    if name == "simplex-sorted":
        if dim is None or dim < 2:
            raise ValueError("simplex-sorted needs dim >= 2")
        return SampleRegion(f"simplex-sorted-{dim}", sup_source_volume(dim),
                            dim, _sample_sorted_simplex(dim))
    planar = {"coordinate-plane": (0.5, _sample_coordinate_plane),
              "bloch-disc": (math.pi, _sample_disc(0.0, 2.0 * math.pi)),
              "bloch-half-disc": (0.5 * math.pi, _sample_disc(-0.5 * math.pi,
                                                              0.5 * math.pi))}
    if name not in planar:
        raise ValueError(f"unknown region {name!r}")
    return SampleRegion(name, planar[name][0], 2, planar[name][1])


def mc_volume(predicate, region: SampleRegion, samples: int,
              seed: int = DEFAULT_SEED) -> VolumeEstimate:
    """Monte-Carlo volume of {x in region : predicate(x)}.

    ``predicate`` must be vectorized: given an (n, dim) array it returns
    n booleans (of bool dtype), best by column arithmetic (see
    :class:`SampleRegion`).  Sampling is sharded deterministically (fixed
    shard size, per-shard seeds spawned from ``seed``), so the result
    depends only on (seed, samples).  One shard is live at a time, so a
    call's memory is one shard's points plus the predicate's temporaries.
    """
    samples = int(samples)
    if samples <= 0:
        raise ValueError("samples must be positive")
    # one child per shard, spawned as it is drawn: the same seeds as one
    # spawn of them all, without a list sized by ``samples``
    root = np.random.SeedSequence(seed)
    hits = 0
    for start in range(0, samples, SHARD_SIZE):
        m = min(SHARD_SIZE, samples - start)
        rng = np.random.default_rng(root.spawn(1)[0])
        flags = np.asarray(predicate(region.sample(rng, m)))
        if flags.dtype != bool or flags.shape != (m,):
            raise ValueError("predicate must return one boolean per point")
        hits += int(np.count_nonzero(flags))
        del flags
    ratio = hits / samples
    err = region.measure * math.sqrt(ratio * (1.0 - ratio) / samples)
    return VolumeEstimate(mean=region.measure * ratio, standard_error=err,
                          samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# feasibility predicates over the sample regions


def qubit_region_predicate(r, operation_class: str, kind: str):
    """Vectorized membership test of the accessible/source set of a
    Bloch vector, over x-z disc points.

    ``kind="accessible"`` tests "r converts to the sampled point";
    ``kind="source"`` tests "the sampled point converts to r".
    """
    if not isinstance(r, QubitBloch):
        r = QubitBloch(*r)
    operation_class = operation_class.upper()
    family = _QUBIT_FAMILY.get(operation_class)
    if family is None:
        raise ValueError(f"no qubit predicate for class {operation_class!r}")
    mask = sio_feasible_mask if family == "SIO" else pio_feasible_mask
    t2, z = r.transverse_sq, r.r_z
    if kind == "accessible":
        def predicate(points):
            return mask(t2, z, points[:, 0] ** 2, points[:, 1])
    elif kind == "source":
        def predicate(points):
            return mask(points[:, 0] ** 2, points[:, 1], t2, z)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return predicate


def sorted_simplex_predicate(spectrum, kind: str, slack: float = 1e-10):
    """Majorization test against a fixed sorted spectrum, vectorized
    over sorted-simplex sample points.

    Source points are majorized by the spectrum (all partial sums
    below); accessible points majorize it.  The d - 1 sums short of the
    total are tested: a sample's float total may round off 1.  The sums
    run column by column (the additions of ``np.cumsum(axis=1)``, in its
    order) rather than reducing along the short row axis.
    """
    bounds = np.cumsum(sorted_spectrum(spectrum))[:-1]
    rules = {"source": (np.less_equal, slack),
             "accessible": (np.greater_equal, -slack)}
    if kind not in rules:
        raise ValueError(f"unknown kind {kind!r}")
    compare, offset = rules[kind]

    def predicate(points):
        sums, flags = np.zeros(len(points)), np.ones(len(points), dtype=bool)
        for k, bound in enumerate(bounds):
            sums += points[:, k]
            flags &= compare(sums, bound + offset)
        return flags
    return predicate


def coordinate_plane_predicate(spectrum, kind: str, slack: float = 1e-10):
    """Coordinate-ordered partial-sum test for the planar qutrit
    family, x1 against a and x1 + x2 against a + b in the unsorted
    coordinate plane: the sorted-simplex test of a length-3 spectrum."""
    lam = sorted_spectrum(spectrum)
    if len(lam) != 3:
        raise ValueError("coordinate-plane predicate needs a length-3 spectrum")
    return sorted_simplex_predicate(lam, kind, slack)


# ---------------------------------------------------------------------------
# exact majorization polytope volume (rational arithmetic)


def _halfspaces(lam):
    """Integer constraints a . x <= b (index -> (a, b)) on x = (mu_1 ..
    mu_{d-1}), mu_d = total - sum(x), of {mu nonincreasing, partial sums at
    most lam's}: index k < d - 1 orders mu_{k+1} >= mu_{k+2}, index d - 2 + k
    bounds partial sum k (the last: mu_d >= lam_d >= 0)."""
    n, partial = len(lam) - 1, list(itertools.accumulate(lam))
    mu = np.vstack([np.eye(n, dtype=int), -np.ones(n, dtype=int)])
    rows = np.vstack([mu[1:] - mu[:-1], np.tri(n, dtype=int)]).tolist()
    return dict(enumerate(zip(rows, [0] * (n - 1) + [-partial[-1]] + partial[:-1])))


def _block_average_vertices(lam):
    """Vertices of the source polytope of integers ``lam`` with integer
    block averages, as points x of :func:`_halfspaces` mapped to the
    indices of their tight constraints: the averages of ``lam`` over its
    2^(d-1) splits into consecutive blocks, duplicates dropped."""
    d, partial, vertices = len(lam), [0, *itertools.accumulate(lam)], {}
    for cuts in range(1 << (d - 1)):
        ends = [0] + [k for k in range(1, d) if cuts >> (k - 1) & 1] + [d]
        mu = [(partial[end] - partial[start]) // (end - start)
              for start, end in zip(ends, ends[1:]) for _ in range(start, end)]
        sums = list(itertools.accumulate(mu))
        vertices.setdefault(tuple(mu[:-1]), frozenset(
            [k for k in range(d - 1) if mu[k] == mu[k + 1]]
            + [d - 2 + k for k in range(1, d) if sums[k - 1] == partial[k]]))
    return vertices


def _facet_volume_sum(cons, masks, points, face, coords, memo):
    """n! times the volume of the face ``face`` (a bitmask over the integer
    ``points``) on ``coords``, where it is the full-dimensional {a . x <= b}
    of ``cons`` (index -> integer (a, b)); bit v of ``masks[i]`` marks
    constraint i tight at point v.  From a vertex v, P is the union of the
    pyramids over its facets F = {a . x = b} not through v, the maximal
    proper vertex sets of single constraints.  A pyramid's n! volume,
    (b - a . v) / |a_j| times the (n-1)! volume of F without x_j (Lasserre
    1983), is an integer, as its vertices are.  F is eliminated into each
    facet it meets in n - 1 or more vertices, rows scaled by |a_j| > 0, and
    ``memo`` keeps each (face, coordinates) volume."""
    if not coords:
        return 1
    low, n = face & -face, len(coords)
    faces = {masks[i] & face: i for i in cons
             if n <= (masks[i] & face).bit_count() and masks[i] & face != face}
    facets = [(f, i) for f, i in faces.items()
              if not any(f != other and f & other == f for other in faces)]
    apex, total = [points[low.bit_length() - 1][c] for c in coords], 0
    for f, i in facets:
        if f & low:
            continue
        a, b = cons[i]
        j = next(k for k, c in enumerate(a) if c != 0)
        key = f, coords[:j] + coords[j + 1:]
        if key not in memo:
            p, sub = abs(a[j]), {}
            for other, k in facets:
                if k != i and (f & other).bit_count() >= n - 1:
                    row, rhs = cons[k]
                    q = row[j] if a[j] > 0 else -row[j]
                    sub[k] = ([p * c - q * ai for m, (c, ai)
                               in enumerate(zip(row, a)) if m != j], p * rhs - q * b)
            memo[key] = _facet_volume_sum(sub, masks, points, *key, memo)
        height = b - sum(c * x for c, x in zip(a, apex) if c)
        total += height * memo[key] // abs(a[j])
    return total


def _projected_volume(lam):
    """Exact volume of the source polytope of the Fraction spectrum ``lam``
    over its first d - 1 coordinates, counted on lam scaled to a lattice."""
    d = len(lam)
    scale = math.lcm(*range(1, d + 1)) * math.lcm(*(x.denominator for x in lam))
    lam = [int(x * scale) for x in lam]
    vertices, cons = _block_average_vertices(lam), _halfspaces(lam)
    masks = {i: sum(1 << v for v, t in enumerate(vertices.values()) if i in t)
             for i in cons}
    volume = _facet_volume_sum(cons, masks, list(vertices), 2 ** len(vertices) - 1,
                               tuple(range(d - 1)), {})
    return Fraction(volume, math.factorial(d - 1) * scale ** (d - 1))


def exact_polytope_volume(spectrum) -> float:
    """Euclidean volume of the majorization polytope of a sorted
    spectrum, from its closed vertex list and one memoized facet
    recursion (Lasserre 1983), exactly, in integers on a scaled lattice.

    The polytope is {mu nonincreasing, sum mu = sum lam, partial sums
    of mu <= those of lam}, measured inside the simplex hyperplane
    (metric factor sqrt(d) over the first d-1 coordinates).  Zero
    entries are kept — the ambient dimension is part of the input.
    Supports lengths up to MAX_SPECTRUM_LEN; length 1 returns 1.0 by convention.

    Its vertices are the averages of lam over its splits into
    consecutive blocks.  Proof: call k tight at mu when the partial sums
    S_k of mu and P_k of lam agree (k = 0 and d always are).  (a) A tie
    mu_k = mu_{k+1} at a tight k makes k - 1 and k + 1 tight, as
    S_{k-1} <= P_{k-1} and S_{k+1} <= P_{k+1} give lam_k <= mu_k =
    mu_{k+1} <= lam_{k+1} <= lam_k.  (b) A vertex is flat on each block
    between consecutive tight k, so holds lam's average there: else moving
    mass t between two adjacent flat runs of a block, evenly within each,
    keeps mu in the polytope for both signs of a small t, since sums
    outside the block stay, those inside are slack, runs keep their ties,
    and orderings between runs, and across the block's ends by (a), are
    strict.  (c) Each block-average point lies in the polytope (a prefix
    of a nonincreasing block averages at least the block) and is a vertex:
    its tight cuts and inner ties, with the total, fix each block's value,
    so n of them are independent.  Unless lam is uniform, P_k > k/d for
    0 < k < d, so the polytope is full-dimensional: the uniform point plus
    a small strictly decreasing zero-sum vector is interior.
    """
    arr = np.asarray(spectrum, dtype=float)
    if arr.ndim != 1 or not arr.size or not np.isfinite(arr).all():
        raise ValueError(
            "spectrum must be a nonempty flat list of finite numbers")
    lam = [Fraction(x) for x in arr]
    if len(lam) > MAX_SPECTRUM_LEN:
        raise ValueError("exact volumes are implemented for lengths "
                         f"<= {MAX_SPECTRUM_LEN}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or lam[-1] < 0:
        raise ValueError("spectrum must be sorted nonincreasing and nonnegative")
    if abs(float(sum(lam)) - 1.0) > 1e-8:
        raise ValueError("spectrum must sum to 1")
    return float(_projected_volume(lam)) * math.sqrt(len(lam))


@dataclass(frozen=True)
class IdentityReport:
    """Worst disagreement between the closed-form source volume and the
    exact polytope volume over random positive spectra."""

    count: int
    dims: tuple
    seed: int
    max_abs_difference: float


def formula_identity_check(count: int = 100, dims=(2, 3, 4),
                           seed: int = DEFAULT_SEED) -> IdentityReport:
    """For ``count`` random strictly positive sorted spectra in each
    dimension, compare sup-volume times the signed permutation sum
    against :func:`exact_polytope_volume` and report the largest
    absolute difference.  Blocks from the sorted-simplex sampler give the
    draws, totals and closed values of one spectrum at a time, bit for bit."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not all(1 <= d <= MAX_SPECTRUM_LEN for d in dims):
        raise ValueError(f"dims must lie in 1..{MAX_SPECTRUM_LEN}, "
                         f"got {tuple(dims)}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in dims:
        for start in range(0, count, _TRIAL_BLOCK):
            lam = _sample_sorted_simplex(d)(rng, min(_TRIAL_BLOCK, count - start))
            closed = sup_source_volume(d) * _permutation_sums(lam)
            for row, value in zip(lam, closed.tolist()):
                worst = max(worst, abs(value - exact_polytope_volume(row)))
    return IdentityReport(count=count, dims=tuple(dims), seed=seed,
                          max_abs_difference=worst)


# ---------------------------------------------------------------------------
# monotonicity property suite


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of random (state, channel) monotonicity trials."""

    monotone: str
    operation_class: str
    trials: int
    seed: int
    tolerance: float
    max_increase: float
    violations: int


_QUBIT_MONOTONES = {
    "sio-Ca": qubit_sio_Ca,
    "sio-Cs": qubit_sio_Cs,
    "pio-Ca": qubit_pio_Ca,
    "pio-Cs": qubit_pio_Cs,
}

_KRAUS_RANGE = {"IU": (1, 1), "PIO": (1, 2), "SIO": (1, 4), "IC": (1, 4)}


#: Trials drawn and run together: bounds a suite call's memory whatever
#: its trial count.
_TRIAL_BLOCK = 1024


def _audit(public, batched, what: str) -> None:
    """Raise unless the public functions and the batched kernels agree
    within 1e-12 on one trial."""
    public = np.asarray(public, dtype=float)
    batched = np.asarray(batched, dtype=float)
    if (public.shape != batched.shape
            or not (np.abs(public - batched) <= 1e-12).all()):
        raise RuntimeError(f"{what}: the batched kernels give {batched}, "
                           f"the public functions {public}")


def _ball_points(rng, count: int) -> np.ndarray:
    """``(count, 3)`` Bloch vectors uniform in the ball."""
    direction = rng.normal(size=(count, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return (rng.random(count) ** (1.0 / 3.0))[:, None] * direction


def _qubit_increases(monotone: str, kraus, bloch) -> np.ndarray:
    """Increase of ``monotone`` from each row of ``bloch`` to its image
    under the matching Kraus set, with the arithmetic of
    ``density_from_bloch``, ``apply_to_density`` and ``bloch_from_density``."""
    x, y, z = bloch.T
    rho = 0.5 * np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z],
                         axis=1).reshape(-1, 2, 2)
    image = _apply_kraus(kraus, rho)
    ix, iy = 2.0 * image[:, 0, 1].real, -2.0 * image[:, 0, 1].imag
    iz = image[:, 0, 0].real - image[:, 1, 1].real
    after = _qubit_monotone(monotone, np.sqrt(ix * ix + iy * iy), iz)
    return after - _qubit_monotone(monotone, np.sqrt(x * x + y * y), z)


def _max_and_count(blocks, threshold):
    """Largest value over the arrays ``blocks`` and how many exceed
    ``threshold``, reduced block by block so memory stays flat."""
    worst, count = -np.inf, 0
    for block in map(np.asarray, blocks):
        worst = np.maximum(worst, block.max())
        count += int(np.count_nonzero(block > threshold))
    return worst, count


def _qubit_trials(monotone: str, operation_class: str, trials: int, rng):
    """Increases over ``trials`` random (Bloch vector, channel) trials,
    one array per block, with one checked Kraus stack per block (every
    Kraus count, zero padded to the largest); the last trial is the
    audit trial."""
    lo, hi = _KRAUS_RANGE[operation_class]
    for start in range(0, trials - 1, _TRIAL_BLOCK):
        size = min(_TRIAL_BLOCK, trials - 1 - start)
        bloch = _ball_points(rng, size)
        n_kraus = rng.integers(lo, hi + 1, size=size)
        kraus = _random_kraus(operation_class, 2, n_kraus, size, rng)
        _check_kraus(kraus, operation_class, n_kraus)
        yield _qubit_increases(monotone, kraus, bloch)
    yield [_qubit_audit_trial(monotone, operation_class, rng)]


def _qubit_audit_trial(monotone: str, operation_class: str, rng) -> float:
    """One trial through ``random_channel``, ``apply_to_density`` and the
    public closed form, checked against the batched kernels."""
    lo, hi = _KRAUS_RANGE[operation_class]
    bloch = _ball_points(rng, 1)
    channel = random_channel(operation_class, 2, int(rng.integers(lo, hi + 1)),
                             int(rng.integers(0, 2**63)))
    fn = _QUBIT_MONOTONES[monotone]
    state = QubitBloch(*bloch[0].tolist())
    increase = fn(apply_to_density(channel, state)).value - fn(state).value
    _audit(increase, _qubit_increases(monotone, channel.matrices[None],
                                      bloch)[0], f"{monotone}/{operation_class}")
    return increase


def _spectrum_pairs(rng, count: int):
    """``count`` random sorted spectra of lengths 2 to 5, zero-padded to
    length 5, and majorizing targets: even rows blend toward the incoherent
    vertex, odd rows empty every level past a random cut into the first."""
    lengths = rng.integers(2, 6, size=(count, 1))
    lam = rng.standard_exponential((count, 5)) * (np.arange(5) < lengths)
    lam /= lam.sum(axis=1, keepdims=True)
    lam = -np.sort(-lam, axis=1)
    blend = rng.random((count, 1))
    target = blend * lam + (1.0 - blend) * np.eye(5)[0]
    target[1::2] = lam[1::2] * (np.arange(5) < rng.integers(1, lengths[1::2]))
    target[1::2, 0] += 1.0 - target[1::2].sum(axis=1)
    return lam, target


def _source_closed_increases(before, after) -> np.ndarray:
    """Increase of ``source_coherence_closed`` from each row of the
    ``(N, d)`` nonincreasing spectra ``before`` to the same row of ``after``."""
    return _permutation_sums(before) - _permutation_sums(after)


def _source_closed_trials(operation_class: str, trials: int, rng):
    """Increases of ``source-closed`` over ``trials`` random (spectrum,
    majorizing target) trials, one array per block; the last trial is
    the audit trial."""
    for start in range(0, trials - 1, _TRIAL_BLOCK):
        yield _source_closed_increases(
            *_spectrum_pairs(rng, min(_TRIAL_BLOCK, trials - 1 - start)))
    yield [_source_closed_audit_trial(operation_class, rng)]


def _source_closed_audit_trial(operation_class: str, rng) -> float:
    """One trial through ``source_coherence_closed``, checked against the
    batched kernel."""
    lam, target = _spectrum_pairs(rng, 1)
    increase = (source_coherence_closed(target[0], operation_class).value
                - source_coherence_closed(lam[0], operation_class).value)
    _audit(increase, _source_closed_increases(lam, target)[0],
           f"source-closed/{operation_class}")
    return increase


def monotonicity_suite(monotone: str, operation_class: str, trials: int,
                       seed: int = DEFAULT_SEED) -> MonotonicityReport:
    """Random trials of "free channels never increase the monotone".

    Qubit monotones (``sio-Ca``, ``sio-Cs``, ``pio-Ca``, ``pio-Cs``)
    are tested on Bloch vectors uniform in the ball against random
    channels of ``operation_class``; the partition-preserving
    monotones support channel classes IU and PIO only.  The spectrum
    monotone ``source-closed`` is tested on random sorted spectra
    against random majorizing targets: blends toward the incoherent
    vertex, and spectra with their trailing levels emptied into the first.

    The trials run batched; one of them also runs through the public
    functions, which must agree with the batched kernels within 1e-12.
    The report carries the largest observed increase and the count of
    increases above 1e-8.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    operation_class = operation_class.upper()
    rng = np.random.default_rng(seed)

    if monotone == "source-closed":
        if operation_class == "PIO" or operation_class not in _QUBIT_FAMILY:
            raise ValueError(
                f"source-closed is not claimed monotone under {operation_class!r}")
        blocks = _source_closed_trials(operation_class, trials, rng)
    else:
        if monotone not in _QUBIT_MONOTONES:
            raise ValueError(f"unknown monotone {monotone!r}")
        if monotone.startswith("pio") and operation_class not in ("IU", "PIO"):
            raise ValueError(
                "partition-preserving monotones are claimed only under IU/PIO")
        if operation_class not in _KRAUS_RANGE:
            raise ValueError(f"unknown operation class {operation_class!r}")
        blocks = _qubit_trials(monotone, operation_class, trials, rng)
    worst, count = _max_and_count(blocks, _MONOTONICITY_TOL)
    return MonotonicityReport(monotone, operation_class, trials, seed,
                              _MONOTONICITY_TOL, float(worst), count)


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of random product-term-count trials: free-channel
    branches never increase the number of nonzero amplitudes."""

    trials: int
    seed: int
    max_increase: int
    violations: int


_LEMMA1_SHAPES = ((2,), (2, 2), (2, 2, 2))
_LEMMA1_CLASSES = ("SIO", "IC")


def _lemma1_draws(rng, count: int):
    """Shape index, class index, Kraus count and amplitudes of ``count``
    Lemma-1 trials.  A state is the leading entries of its row of
    ``amps``: Gaussian amplitudes on a random support of random size."""
    sizes = np.array([math.prod(dims) for dims in _LEMMA1_SHAPES])
    shape = rng.integers(0, len(_LEMMA1_SHAPES), size=count)
    total = sizes[shape]
    support_size = rng.integers(1, total + 1)
    order = _random_permutations(rng, (count,), sizes.max(), total[:, None])
    support = np.argsort(order, axis=1) < support_size[:, None]
    amps = _random_unit_vectors(rng, (count,), sizes.max(), support)
    return (shape, rng.integers(0, len(_LEMMA1_CLASSES), size=count),
            rng.integers(1, 5, size=count), amps)


def _branch_changes(kraus, amps):
    """Probability and product-term-count change of every kept branch of
    each row of ``amps`` under its Kraus set, trial by trial."""
    probs, branches, kept = _apply_kraus(kraus, amps)
    before = np.count_nonzero(np.abs(amps) > AMP_TOL, axis=1)
    after = np.count_nonzero(np.abs(branches) > AMP_TOL, axis=2)
    return probs[kept], (after - before[:, None])[kept]


def _lemma1_trials(trials: int, rng):
    """Branch changes of ``trials`` random Lemma-1 trials, one array per
    shape and class in each block, with one checked Kraus stack each
    (every Kraus count, zero padded to the largest); the last trial is
    the audit trial."""
    for start in range(0, trials - 1, _TRIAL_BLOCK):
        shape, cls, n_kraus, amps = _lemma1_draws(
            rng, min(_TRIAL_BLOCK, trials - 1 - start))
        groups = np.stack([shape, cls], axis=1)
        for group in np.unique(groups, axis=0):
            idx = np.flatnonzero((groups == group).all(axis=1))
            class_tag = _LEMMA1_CLASSES[group[1]]
            dim = math.prod(_LEMMA1_SHAPES[group[0]])
            kraus = _random_kraus(class_tag, dim, n_kraus[idx], idx.size, rng)
            _check_kraus(kraus, class_tag, n_kraus[idx])
            yield _branch_changes(kraus, amps[idx, :dim])[1]
    yield _lemma1_audit_trial(rng)


def _lemma1_audit_trial(rng) -> list:
    """One trial through ``random_channel``, ``apply_to_pure`` and
    ``product_term_count``, checked against the batched kernels."""
    shape, cls, n_kraus, amps = _lemma1_draws(rng, 1)
    dims = _LEMMA1_SHAPES[shape[0]]
    state = PureState(dims, amps[0, :math.prod(dims)])
    channel = random_channel(_LEMMA1_CLASSES[cls[0]], state.dim,
                             int(n_kraus[0]), int(rng.integers(0, 2**63)))
    rank = product_term_count(state)
    branches = apply_to_pure(channel, state)
    changes = [product_term_count(branch) - rank for _, branch in branches]
    probs, batched = _branch_changes(channel.matrices[None], state.amps[None])
    _audit([p for p, _ in branches] + changes, np.append(probs, batched),
           "lemma1")
    return changes


def lemma1_suite(trials: int, seed: int = DEFAULT_SEED) -> Lemma1Report:
    """Random SIO/IC channel branches on random states of 1-3 qubits:
    reports the largest change in nonzero-amplitude count across
    branches (never positive).

    The trials run batched; one of them also runs through the public
    functions, which must agree with the batched kernels."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    worst, count = _max_and_count(
        _lemma1_trials(trials, np.random.default_rng(seed)), 0)
    return Lemma1Report(trials, seed, int(worst), count)


# ---------------------------------------------------------------------------
# conditions the volume monotones fail (with certified counterexamples)


@dataclass(frozen=True)
class PrintedInstance:
    """One literature value next to its normalized re-evaluation (no
    equality asserted: the re-evaluation reproduces none of the four)."""

    label: str
    parameters: dict
    printed_value: float
    normalized_convention: float


@dataclass(frozen=True)
class GridViolations:
    """Summary of one condition scanned over one parameter grid.

    ``reading`` distinguishes the branch-probability-weighted average
    (the standard selective-measurement condition) from the unweighted
    branch sum that the literature instances print.
    """

    condition: str
    monotone: str
    reading: str
    count: int
    best_margin: float
    best_parameters: dict


@dataclass(frozen=True)
class CounterexampleReport:
    largest_eigenvalue_check: float
    printed_instances: tuple
    grid: tuple
    grid_points: int


#: A grid gap above this margin counts as a violation.
_MARGIN = 1e-3


def _diagonal_branch(t, z, a, b):
    """Weight and Bloch data (w, t, z) of the branch of the Kraus operator
    diag(a, b) on the state with Bloch vector (t, 0, z); vectorized."""
    rho00, rho11 = (1.0 + z) / 2.0, (1.0 - z) / 2.0
    w = a * a * rho00 + b * b * rho11
    return w, a * b * t / w, (a * a * rho00 - b * b * rho11) / w


def _damping_branches(t, z, p, gamma):
    """The branches sqrt(p) diag(1, sqrt(1-gamma)) and sqrt(1-p)
    diag(sqrt(1-gamma), 1) of the two-sided damping channel.  A scalar
    factor cancels from a normalized branch state, so p enters only the
    weights and the states depend on (t, z, gamma) alone.  The two jump
    branches land on basis states (zero coherence) and are omitted;
    their weights complete the total to 1."""
    keep = np.sqrt(1.0 - gamma)
    (w0, t0, z0), (w1, t1, z1) = (_diagonal_branch(t, z, 1.0, keep),
                                  _diagonal_branch(t, z, keep, 1.0))
    return (p * w0, t0, z0), ((1.0 - p) * w1, t1, z1)


def _eigen_parts(t, z):
    """Eigendecomposition of rho(t, z) as parts (weight, t, z): the pure
    states along +/-(t, z), with weights (1 +/- |r|)/2.  Vectorized."""
    w = np.hypot(t, z)
    return ((1.0 + w) / 2.0, t / w, z / w), ((1.0 - w) / 2.0, t / w, -z / w)


def _excess(monotone, whole, parts, *gather):
    """Weighted ``monotone`` of the parts (weight, t, z) minus ``whole``,
    the value of the whole state: positive where averaging over branches
    fails, negative where convexity fails.  A ``gather`` maps the parts'
    heights onto their radii's grid."""
    return sum(w * _qubit_monotone(monotone, tb, zb, *gather)
               for w, tb, zb in parts) - whole


#: What each literature family's gap measures, and its weighted parts.
_EIGEN = ("convexity gap, eigendecomposition at t=z=0.1", _eigen_parts)
_DAMPING = ("selective-measurement gap, damping channel", _damping_branches)

#: The literature instances: monotone, family, parameters, printed value.
_PRINTED_INSTANCES = (
    ("accessible", _EIGEN, {"t": 0.1, "z": 0.1}, 0.0994),
    ("source", _EIGEN, {"t": 0.1, "z": 0.1}, 0.6930),
    ("accessible", _DAMPING, {"p": 0.99, "gamma": 0.5, "t": 0.5, "z": 0.5},
     -0.1912),
    ("source", _DAMPING, {"p": 0.99, "gamma": 0.8, "t": 0.4, "z": 0.4},
     -0.2123),
)


def _printed_instance(name, family, params, printed):
    """One literature instance: whole minus its weighted parts."""
    what, parts = family
    monotone = _QUBIT_FORM_NAMES[name, "SIO"]
    whole = _qubit_monotone(monotone, params["t"], params["z"])
    return PrintedInstance(f"{name}-coherence {what}", dict(params), printed,
                           -float(_excess(monotone, whole, parts(**params))))


def b3_b4_counterexamples(step: float = 0.05) -> CounterexampleReport:
    """Certified failures of averaging and convexity for the qubit
    volume monotones.

    Scans grids with axes in [0.05, 0.95] (default step 0.05, at most
    10**6 points, restricted to valid Bloch vectors) for

    * selective-measurement violations over the damping channels
      (t, z, p, gamma), under two readings: the unweighted branch sum
      printed in the literature instances (grandly violated) and the
      standard probability-weighted branch average (never violated by
      this family — reported with its actual best margin);
    * weighted selective-measurement violations over general
      two-outcome diagonal instruments K0 = diag(a, b),
      K1 = diag(sqrt(1-a^2), sqrt(1-b^2)) on states (t, z) — the source
      monotone admits strict weighted violations here, the accessible
      one does not;
    * convexity violations: C of a mixture exceeds the corresponding
      mixture of C values by more than 1e-3, over both the
      eigendecomposition family and mixtures with an incoherent state.

    The grid is laid out as (valid (t, z) pair, p, gamma), whose C-order
    ravel is the point order (a tie reports its first point), and each
    term is valued on the axes it depends on: the whole state and its
    eigen parts on the pairs, the damping branch states on (pair, gamma),
    because the factor sqrt(p) or sqrt(1-p) cancels from a normalized
    branch, and the instruments' and mixtures' weights and height factors
    on (z, p, gamma); only their products, and the instrument branches'
    source radial factor, are valued on the full grid.

    The four literature reference instances are re-evaluated under the
    normalized convention and reported next to their printed constants;
    no equality is asserted (none of the four is reproduced).
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    lo, hi = 0.05, 0.95 + 1e-9
    per_axis = math.ceil(min((hi - lo) / step, _MAX_GRID_POINTS))
    if per_axis ** 4 > _MAX_GRID_POINTS:
        raise ValueError(f"step {step} is too small: the grid would exceed "
                         f"{_MAX_GRID_POINTS} points")
    axis = np.arange(lo, hi, step)
    # axes (valid (t, z) pair, p, gamma), C order: see the docstring
    ti, zi = np.nonzero(axis[:, None] ** 2 + axis ** 2 < 1.0 - 1e-9)
    t, z, p, g = axis[ti, None, None], axis[zi, None, None], axis[:, None], axis
    shape = (t.size, axis.size, axis.size)
    grid = {"t": t, "z": z, "p": p, "gamma": g}

    damping = _damping_branches(t, z, p, g)
    readings = {"unweighted": [(1.0, tb, zb) for _, tb, zb in damping],
                "weighted": damping}
    eigen = _eigen_parts(t, z)

    def gather(values):  # height axes (z, p, gamma) onto the grid
        return values[zi]
    # instruments diag(a, b), diag(sqrt(1-a^2), sqrt(1-b^2)) on the p, gamma
    # axes: weight, height and radius over t depend on (z, a, b) alone;
    # these stop at 0.95, so no branch weight is below 1 - 0.95^2
    heights = axis[:, None, None]
    instrument = [(gather(w), t * gather(k), zb) for w, k, zb in (
        _diagonal_branch(1.0, heights, p, g),
        _diagonal_branch(1.0, heights, np.sqrt(1.0 - p * p),
                         np.sqrt(1.0 - g * g)))]
    # mixtures p rho(t, z) + (1 - p) diag with bias 2 gamma - 1, radius on
    # (t, p); the incoherent component has zero coherence and is left out
    mixture = ((axis[:, None] * axis)[ti, :, None],
               p * heights + (1.0 - p) * (2.0 * g - 1.0))

    damped, instruments, convexity = [], [], []
    for name in ("accessible", "source"):
        monotone = _QUBIT_FORM_NAMES[name, "SIO"]
        whole = np.broadcast_to(_qubit_monotone(monotone, t, z), shape)
        for reading, parts in readings.items():
            damped.append(_summarize(
                "selective-measurement", name, reading, "damping",
                _excess(monotone, whole, parts), **grid))
        instruments.append(_summarize(
            "selective-measurement", name, "weighted", "diagonal-instrument",
            _excess(monotone, whole, instrument, gather), a=p, b=g, t=t, z=z))
        eig = _summarize("convexity", name, "weighted", "eigendecomposition",
                         -_excess(monotone, whole, eigen), t=t, z=z)
        mix = _summarize(
            "convexity", name, "weighted", "incoherent-mixture",
            _qubit_monotone(monotone, *mixture, gather) - p * whole, **grid)
        best = eig if eig.best_margin >= mix.best_margin else mix
        convexity.append(replace(best, count=eig.count + mix.count))

    return CounterexampleReport(
        largest_eigenvalue_check=float(_eigen_parts(0.1, 0.1)[0][0]),
        printed_instances=tuple(_printed_instance(*row)
                                for row in _PRINTED_INSTANCES),
        grid=tuple(damped + instruments + convexity),
        grid_points=math.prod(shape))


def _summarize(condition, monotone, reading, family, gaps, **params):
    """One grid row: how many gaps exceed the margin, and the first largest
    gap with its family and grid parameters (broadcast to the gaps' shape);
    a largest gap within 1e-12 of 0 is a tie: 0.0 at the first gap >= -1e-12."""
    best = np.argmax(gaps)
    margin = float(gaps.flat[best])
    if abs(margin) <= 1e-12:
        best, margin = np.argmax(gaps >= -1e-12), 0.0
    best = np.unravel_index(best, gaps.shape)
    return GridViolations(
        condition=condition, monotone=monotone, reading=reading,
        count=int(np.count_nonzero(gaps > _MARGIN)),
        best_margin=margin,
        best_parameters={k: float(np.broadcast_to(v, gaps.shape)[best])
                         for k, v in params.items()} | {"family": family})
