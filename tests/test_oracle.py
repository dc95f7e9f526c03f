"""Tests for the exact and Monte-Carlo volume oracles and property suites."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk.feasibility import pio_feasible_mask, sio_feasible_mask
from cohertk import monotones
from cohertk.monotones import (
    permutation_sum,
    planar_example_volumes,
    qubit_pio_Ca,
    qubit_sio_Ca,
    qubit_sio_Cs,
    source_coherence_closed,
    sup_source_volume,
)
from cohertk import oracle
from cohertk.oracle import (
    DEFAULT_SEED,
    _qubit_trials,
    _source_closed_increases,
    _spectrum_pairs,
    b3_b4_counterexamples,
    coordinate_plane_predicate,
    exact_polytope_volume,
    formula_identity_check,
    lemma1_suite,
    make_region,
    mc_volume,
    monotonicity_suite,
    qubit_region_predicate,
    sorted_simplex_predicate,
)
from cohertk.channels import apply_to_pure
from cohertk.states import QubitBloch
from test_monotones import permutation_sum_fraction

RT = math.sqrt


# ---------------------------------------------------------------------------
# exact rational polytope volumes


def test_exact_polytope_volume_pinned_values():
    assert_allclose(exact_polytope_volume([1.0, 0.0]), RT(2) / 2, atol=1e-15)
    # sqrt(3)/72, hand-checkable: one sixth of the sorted-simplex measure
    assert_allclose(exact_polytope_volume([0.5, 1 / 3, 1 / 6]),
                    RT(3) / 72, atol=1e-15)
    assert_allclose(exact_polytope_volume([1.0, 0.0, 0.0, 0.0]),
                    1 / 72, atol=1e-17)
    for d in (2, 3, 4):
        assert exact_polytope_volume(np.full(d, 1 / d)) == 0.0
    assert exact_polytope_volume([1.0]) == 1.0


def test_exact_polytope_volume_input_validation():
    with pytest.raises(ValueError, match="lengths"):
        exact_polytope_volume(np.full(10, 1 / 10))
    with pytest.raises(ValueError, match="sorted nonincreasing"):
        exact_polytope_volume([0.4, 0.6])
    with pytest.raises(ValueError, match="sum to 1"):
        exact_polytope_volume([0.5, 0.3])
    for bad in ([], [[0.5, 0.5]], [math.inf, 0.0], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="nonempty flat list"):
            exact_polytope_volume(bad)


@pytest.mark.parametrize("sixteenths", [
    (6, 4, 3, 2, 1), (8, 4, 2, 1, 1), (8, 4, 4, 0, 0),
    (5, 4, 3, 2, 1, 1), (4, 4, 4, 2, 1, 1), (8, 2, 2, 2, 2, 0),
])
def test_exact_polytope_volume_lengths_5_and_6(sixteenths):
    # dyadic spectra are exact as floats, so the oracle sees the same
    # rational polytope as the exact permutation sum (zeros kept)
    lam = [Fraction(k, 16) for k in sixteenths]
    d = len(lam)
    expected = sup_source_volume(d) * float(permutation_sum_fraction(lam))
    assert_allclose(exact_polytope_volume([float(x) for x in lam]),
                    expected, rtol=0, atol=1e-12)
    assert exact_polytope_volume(np.full(d, 1 / d)) == 0.0


def test_exact_polytope_volume_length_7_is_the_permutation_sum():
    # dyadic entries are exact as floats, so the oracle's rational volume,
    # over the measure of the sorted simplex, is the exact permutation sum;
    # a second case at length 9, the longest served
    for lam in ([Fraction(k, 32) for k in (11, 7, 5, 4, 2, 2, 1)],
                [Fraction(k, 64) for k in (20, 12, 9, 7, 6, 4, 3, 2, 1)]):
        d = len(lam)
        volume = oracle._projected_volume(lam)
        assert volume * math.factorial(d) * math.factorial(d - 1) \
            == permutation_sum_fraction(lam)
        assert exact_polytope_volume([float(x) for x in lam]) \
            == float(volume) * RT(d)


# the volumes the generic vertex search gave, bit for bit
_PINNED_EXACT = [
    ([0.6, 0.4], 0.14142135623730948),
    ([0.5, 0.3, 0.2], 0.018763883748662835),
    ([0.4, 0.3, 0.2, 0.1], 0.0013333333333333335),
    ([0.4, 0.4, 0.1, 0.1], 0.0015000000000000002),
    ([0.35, 0.25, 0.2, 0.1, 0.1], 3.1032236797116214e-05),
    ([0.7, 0.1, 0.1, 0.1, 0.0], 0.0004771054764491738),
    ([1 / 3, 1 / 3, 1 / 3, 0, 0], 0.0001054387335069345),
    ([0.3, 0.2, 0.2, 0.15, 0.1, 0.05], 9.346830434882279e-07),
    ([0.5, 0.25, 0.25, 0, 0, 0], 2.1373676231425118e-05),
    ([0.9, 0.02, 0.02, 0.02, 0.02, 0.02], 1.4961503670612334e-05),
]


@pytest.mark.parametrize("spectrum, volume", _PINNED_EXACT)
def test_exact_polytope_volume_is_pinned(spectrum, volume):
    assert exact_polytope_volume(spectrum) == volume


def _solve_square_exact(rows):
    """Solve the n x n Fraction system a . x = b over its n (a, b) rows;
    None when singular."""
    n = len(rows)
    aug = [list(a) + [b] for a, b in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [x / head for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def _enumerate_vertices(cons, n):
    """Vertices of {x : a . x <= b for (a, b) in cons.values()}, each
    mapped to the set of constraint indices tight there: every feasible
    solution of n constraints taken as equalities."""
    vertices = {}
    for subset in itertools.combinations(cons, n):
        point = _solve_square_exact([cons[i] for i in subset])
        if point is None or point in vertices:
            continue
        tight = set(subset)
        for i, (a, b) in cons.items():
            if i not in tight:
                slack = b - sum(ai * xi for ai, xi in zip(a, point) if ai)
                if slack < 0:
                    break
                if slack == 0:
                    tight.add(i)
        else:
            vertices[point] = frozenset(tight)
    return vertices


def _rational_spectra():
    """Seeded sorted rational spectra of lengths 2-6, with zeros and
    repeated entries, and the uniform and zero-padded corner cases."""
    rng = np.random.default_rng(20)
    spectra = [[1, 0, 0, 0], [Fraction(1, 2)] * 2 + [0, 0],
               [Fraction(2, 5)] * 2 + [Fraction(1, 10)] * 2,
               [Fraction(1, 3)] * 3 + [0]]
    spectra += [[Fraction(1, d)] * d for d in range(2, 7)]
    for d in range(2, 7):
        for units in (3, 12):
            for _ in range(4):
                k = sorted(rng.integers(0, units, size=d).tolist(), reverse=True)
                k[0] += 1
                spectra.append([Fraction(x, sum(k)) for x in k])
    return spectra


@pytest.mark.parametrize("lam", _rational_spectra(),
                         ids=lambda lam: ",".join(map(str, lam)))
def test_block_averages_are_the_vertices(lam):
    # scaled to integers with integer block averages, as the oracle does
    scale = math.lcm(*range(1, len(lam) + 1)) \
        * math.lcm(*(Fraction(x).denominator for x in lam))
    lam = [int(x * scale) for x in lam]
    cons = {i: ([Fraction(c) for c in a], Fraction(b))
            for i, (a, b) in oracle._halfspaces(lam).items()}
    assert oracle._block_average_vertices(lam) \
        == _enumerate_vertices(cons, len(lam) - 1)


def test_exact_polytope_keeps_ambient_zeros():
    # the exact oracle and the closed form both measure the full-length
    # polytope: a padded zero changes the answer, for both alike
    padded = exact_polytope_volume([0.6, 0.4, 0.0])
    assert_allclose(padded, sup_source_volume(3) * 0.52, atol=1e-12)
    closed = sup_source_volume(3) * permutation_sum([0.6, 0.4, 0.0])
    assert abs(padded - closed) <= 1e-12
    assert abs(padded - exact_polytope_volume([0.6, 0.4])) > 1e-3


def test_closed_form_matches_exact_volume():
    report = formula_identity_check(count=30, dims=(2, 3, 4), seed=515)
    assert report.max_abs_difference < 1e-9
    assert report.count == 30 and report.dims == (2, 3, 4)
    # and a direct spot check without the report wrapper
    lam = [0.41, 0.33, 0.26]
    assert_allclose(sup_source_volume(3) * permutation_sum(lam),
                    exact_polytope_volume(lam), atol=1e-12)


def test_closed_form_matches_exact_volume_at_lengths_5_and_6():
    report = formula_identity_check(count=2, dims=(5, 6))
    assert report.max_abs_difference <= 1e-9


def test_closed_form_matches_exact_volume_at_length_9():
    # volumes at length 9 are below 1e-9, so the gap is read against the
    # sorted simplex's measure: the permutation sums agree to 1e-12
    report = formula_identity_check(count=20, dims=(9,))
    assert report.dims == (9,)
    assert report.max_abs_difference <= 1e-12 * sup_source_volume(9)


@pytest.mark.parametrize("count, dims, seed", [
    (5, (2, 3, 4), 1), (3, (1, 5, 6), 9), (2, (7, 8), DEFAULT_SEED)])
def test_formula_identity_check_matches_the_spectrum_loop(count, dims, seed):
    # one spectrum at a time, through the public scalar functions
    rng, worst = np.random.default_rng(seed), 0.0
    for d in dims:
        for _ in range(count):
            lam = rng.standard_exponential(d)
            lam /= lam.sum()
            lam[::-1].sort()
            closed = sup_source_volume(d) * permutation_sum(lam)
            worst = max(worst, abs(closed - exact_polytope_volume(lam)))
    assert formula_identity_check(count, dims, seed).max_abs_difference \
        == worst <= 1e-9


def test_formula_identity_check_rejects_zero_count():
    with pytest.raises(ValueError, match="count"):
        formula_identity_check(count=0)


# ---------------------------------------------------------------------------
# sample regions and Monte-Carlo estimation


def test_make_region_catalog():
    simplex = make_region("simplex-sorted", dim=3)
    assert_allclose(simplex.measure, sup_source_volume(3), atol=1e-15)
    rng = np.random.default_rng(1)
    pts = simplex.sample(rng, 500)
    assert pts.shape == (500, 3)
    assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diff(pts, axis=1) <= 1e-12)  # sorted nonincreasing

    plane = make_region("coordinate-plane")
    assert plane.measure == 0.5
    pts = plane.sample(rng, 500)
    assert np.all(pts >= 0.0)
    assert np.all(pts.sum(axis=1) <= 1.0 + 1e-12)

    disc = make_region("bloch-disc")
    assert_allclose(disc.measure, math.pi, atol=1e-15)
    pts = disc.sample(rng, 500)
    assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0 + 1e-12)

    half = make_region("bloch-half-disc")
    assert_allclose(half.measure, math.pi / 2, atol=1e-15)
    pts = half.sample(rng, 500)
    assert np.all(pts[:, 0] >= -1e-12)

    with pytest.raises(ValueError, match="unknown region"):
        make_region("torus")
    with pytest.raises(ValueError, match="dim"):
        make_region("simplex-sorted")


@pytest.mark.parametrize("d", range(2, 10))
def test_merge_exchange_sorts_every_binary_input(d):
    # 0-1 principle: a comparator network that sorts all 2**d binary
    # inputs sorts every input
    for bits in itertools.product((0, 1), repeat=d):
        wires = list(bits)
        for i, j in oracle._merge_exchange(d):
            wires[i], wires[j] = max(wires[i], wires[j]), min(wires[i], wires[j])
        assert wires == sorted(bits, reverse=True), bits


def _row_sort_simplex(rng, n, d):
    # the per-row reference the column sampler must reproduce bit for bit
    raw = rng.standard_exponential((n, d))
    raw /= raw.sum(axis=1, keepdims=True)
    raw.sort(axis=1)
    return raw[:, ::-1]


@pytest.mark.parametrize("d", range(2, 10))
def test_sorted_simplex_sampler_matches_row_sort(d):
    block = oracle._SIMPLEX_BLOCK
    sampler = make_region("simplex-sorted", dim=d).sample
    for seed in (0, 5, 715517):
        for n in (1, block - 1, block + 1, oracle.SHARD_SIZE, 50_000):
            points = sampler(np.random.default_rng(seed), n)
            expected = _row_sort_simplex(np.random.default_rng(seed), n, d)
            assert np.array_equal(points, expected), (seed, n)
            assert all(points[:, k].flags.c_contiguous for k in range(d))


def _masked_row_fold(rng, n):
    # the per-row reference the branch-free plane fold must reproduce
    pts = rng.random((n, 2))
    fold = pts[:, 0] + pts[:, 1] > 1.0
    return np.subtract(1.0, pts, out=pts, where=fold[:, None])


def test_plane_sampler_matches_masked_row_fold():
    sampler = make_region("coordinate-plane").sample
    for seed in (0, 5, 715517):
        for n in (1, 2, oracle.SHARD_SIZE, 50_001):
            points = sampler(np.random.default_rng(seed), n)
            expected = _masked_row_fold(np.random.default_rng(seed), n)
            assert points.shape == (n, 2)
            assert np.array_equal(points, expected), (seed, n)
            assert not np.signbit(points).any()
            assert np.all(points[:, 0] + points[:, 1] <= 1.0)


#: Angle range of each disc region, as make_region documents it.
_DISC_ANGLES = {"bloch-disc": (0.0, 2.0 * math.pi),
                "bloch-half-disc": (-0.5 * math.pi, 0.5 * math.pi)}


def _disc_draws(name, seed, n):
    # the sampler's two draws, in order: the radius, then the angle
    lo, hi = _DISC_ANGLES[name]
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(n))
    return radius, lo + (hi - lo) * rng.random(n)


@pytest.mark.parametrize("name", sorted(_DISC_ANGLES))
def test_disc_sampler_matches_cos_and_sin(name):
    # x >= 0 on the half disc needs |tan(θ/2)| <= 1 at its edge θ/2 = -fl(π)/4
    for n in (1, 8):
        assert np.all(np.abs(np.tan(np.full(n, -0.25 * math.pi))) <= 1.0)
    sampler = make_region(name).sample
    for seed in (0, 5, 715517):
        for n in (1, 2, oracle.SHARD_SIZE, 50_001):
            points = sampler(np.random.default_rng(seed), n)
            radius, theta = _disc_draws(name, seed, n)
            assert points.shape == (n, 2)
            assert_allclose(points[:, 0], radius * np.cos(theta),
                            rtol=0, atol=1e-15)
            assert_allclose(points[:, 1], radius * np.sin(theta),
                            rtol=0, atol=1e-15)
            assert np.all(points[:, 0] ** 2 + points[:, 1] ** 2 <= 1 + 1e-15)
            if name == "bloch-half-disc":
                assert np.all(points[:, 0] >= 0.0)
            assert all(points[:, k].flags.c_contiguous for k in range(2))


@pytest.mark.parametrize("name", sorted(_DISC_ANGLES))
def test_disc_sampler_rounds_the_exact_half_angle_map(name):
    # the exact rational point r(1 - t², 2t)/(1 + t²), from the float
    # radius r <= 1 and t = tan(θ/2), is within the sampler's roundings
    # of the float point: 4.5·2^-53 for x, 4·2^-53 for z
    n = 500
    points = make_region(name).sample(np.random.default_rng(3), n)
    radius, theta = _disc_draws(name, 3, n)
    for r, t, x, z in zip(radius.tolist(), np.tan(theta / 2).tolist(),
                          points[:, 0].tolist(), points[:, 1].tolist()):
        r, t = Fraction(r), Fraction(t)
        scale = r / (1 + t * t)
        assert abs(Fraction(x) - scale * (1 - t * t)) <= Fraction(9, 2**54)
        assert abs(Fraction(z) - scale * 2 * t) <= Fraction(4, 2**53)


def test_mc_volume_is_deterministic():
    region = make_region("bloch-disc")
    predicate = qubit_region_predicate(QubitBloch(0.5, 0.0, 0.3),
                                       "SIO", "accessible")
    first = mc_volume(predicate, region, 250_000, seed=999)
    second = mc_volume(predicate, region, 250_000, seed=999)
    assert first == second  # bit-identical, including the error field
    other = mc_volume(predicate, region, 250_000, seed=1000)
    assert other.mean != first.mean
    assert first.samples == 250_000 and first.seed == 999


def test_mc_volume_full_region_has_zero_error():
    region = make_region("coordinate-plane")
    est = mc_volume(lambda pts: np.ones(len(pts), dtype=bool),
                    region, 10_000, seed=5)
    assert est.mean == region.measure
    assert est.standard_error == 0.0


def test_mc_volume_rejects_bad_inputs():
    region = make_region("coordinate-plane")
    with pytest.raises(ValueError, match="positive"):
        mc_volume(lambda pts: np.ones(len(pts), dtype=bool), region, 0)
    with pytest.raises(ValueError, match="one boolean per point"):
        mc_volume(lambda pts: np.ones(3, dtype=bool), region, 100)


def test_mc_volume_rejects_non_boolean_predicates():
    # NaN, 0.5 and 1 are truthy: cast to bool, they were read as hits
    region = make_region("coordinate-plane")
    for result in (lambda pts: np.full(len(pts), np.nan),
                   lambda pts: np.full(len(pts), 0.5),
                   lambda pts: np.ones(len(pts), dtype=int),
                   lambda pts: [1] * len(pts)):
        with pytest.raises(ValueError, match="one boolean per point"):
            mc_volume(result, region, 100)
    est = mc_volume(lambda pts: [bool(x > 0.5) for x in pts[:, 0]], region,
                    1_000, seed=5)
    expected = mc_volume(lambda pts: pts[:, 0] > 0.5, region, 1_000, seed=5)
    assert est == expected and est.mean > 0.0


def test_mc_volume_shard_seeds_are_one_spawn():
    # shard i draws from child i of one spawn of the seed
    region = make_region("bloch-disc")
    predicate = qubit_region_predicate(QubitBloch(0.5, 0.0, 0.3),
                                       "SIO", "accessible")
    sizes = [oracle.SHARD_SIZE] * 3 + [123]
    children = np.random.SeedSequence(7).spawn(len(sizes))
    hits = sum(int(predicate(region.sample(np.random.default_rng(c), m)).sum())
               for c, m in zip(children, sizes))
    est = mc_volume(predicate, region, sum(sizes), seed=7)
    assert est.mean == region.measure * (hits / sum(sizes))


def test_mc_volume_allocates_nothing_sized_by_samples():
    # 10**10 samples are 10**5 shards; the predicate stops at the first
    class FirstShard(Exception):
        pass

    def predicate(points):
        raise FirstShard

    tracemalloc.start()
    try:
        with pytest.raises(FirstShard):
            mc_volume(predicate, make_region("bloch-disc"), 10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _traced_peak(predicate, region, samples):
    tracemalloc.start()
    try:
        mc_volume(predicate, region, samples, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, dim", [("simplex-sorted", 2),
                                       ("simplex-sorted", 3),
                                       ("simplex-sorted", 6),
                                       ("simplex-sorted", 9),
                                       ("coordinate-plane", None),
                                       ("bloch-disc", None),
                                       ("bloch-half-disc", None)])
def test_mc_volume_holds_one_shard_at_a_time(name, dim):
    # a shard's points and flags are released before the next is drawn,
    # so three shards peak where one does
    region = make_region(name, dim=dim)

    def predicate(points):
        return points[:, 0] >= 0.5

    mc_volume(predicate, region, oracle.SHARD_SIZE, seed=1)
    one = _traced_peak(predicate, region, oracle.SHARD_SIZE)
    three = _traced_peak(predicate, region, 3 * oracle.SHARD_SIZE)
    assert three <= 1.05 * one, (three, one)


def check_mc_matches(predicate, region, expected, seed, samples=200_000):
    est = mc_volume(predicate, region, samples, seed=seed)
    assert est.standard_error > 0
    assert abs(est.mean - expected) <= 5 * est.standard_error


def test_mc_confirms_qubit_closed_forms():
    probe = QubitBloch(0.5, 0.0, RT(0.5))
    disc = make_region("bloch-disc")
    check_mc_matches(qubit_region_predicate(probe, "SIO", "accessible"),
                     disc, qubit_sio_Ca(probe).volume, seed=101)
    check_mc_matches(qubit_region_predicate(probe, "SIO", "source"),
                     disc, qubit_sio_Cs(probe).volume, seed=102)
    inner = QubitBloch(0.3, 0.0, 0.2)
    check_mc_matches(qubit_region_predicate(inner, "PIO", "accessible"),
                     disc, qubit_pio_Ca(inner).volume, seed=103)


def test_mc_confirms_planar_and_simplex_forms():
    lam = (0.5, 0.3, 0.2)
    va, vs, _, _ = planar_example_volumes(lam)
    plane = make_region("coordinate-plane")
    check_mc_matches(coordinate_plane_predicate(lam, "accessible"),
                     plane, va, seed=104)
    check_mc_matches(coordinate_plane_predicate(lam, "source"),
                     plane, vs, seed=105)

    simplex = make_region("simplex-sorted", dim=3)
    expected = sup_source_volume(3) * permutation_sum(lam)
    check_mc_matches(sorted_simplex_predicate(lam, "source"),
                     simplex, expected, seed=106)


# mean and standard error of mc_volume at 250 000 samples (two full
# shards and a partial one) for seeds 3 and 11; a change to a sampler
# or predicate must reproduce them bit for bit
_PINNED_MC = {
    "simplex-2-accessible": [(0.4711169640333492, 0.0006668697210100336),
                             (0.47209842824563614, 0.0006661743737130692)],
    "simplex-2-source": [(0.23598981715319836, 0.0006668697210100336),
                         (0.23500835294091144, 0.0006661743737130692)],
    "simplex-3-accessible": [(0.09601219506569639, 0.0001362325227738712),
                             (0.09606242453911588, 0.00013619731654233622)],
    "simplex-3-source": [(0.024180006623930717, 0.00010780372188380139),
                         (0.024063959219823603, 0.00010759663935272328)],
    "simplex-5-accessible": [(0.0005584424491307287, 6.977785456194908e-07),
                             (0.00055789274908626, 6.98313912816674e-07)],
    "simplex-5-source": [(4.6187226335245654e-05, 3.6729867753439915e-07),
                         (4.5982253437308176e-05, 3.6653419134635436e-07)],
    "simplex-8-accessible": [(1.0643736404042499e-08, 1.180783335239914e-11),
                             (1.0641676458928499e-08, 1.1810403457401132e-11)],
    "simplex-8-source": [(2.390093074163713e-10, 3.61637226227641e-12),
                         (2.3761745260961397e-10, 3.6060104725619346e-12)],
    "simplex-9-accessible": [(1.5850871598639457e-10, 1.7176201118618454e-13),
                             (1.5874902237129422e-10, 1.7144772242452479e-13)],
    "simplex-9-source": [(2.426028281683044e-12, 4.434168245792972e-14),
                         (2.324328651213572e-12, 4.3413217391722176e-14)],
    "plane-accessible": [(0.079318, 0.00036533631013629074),
                         (0.080368, 0.00036728726945539506)],
    "plane-source": [(0.275256, 0.0004974419944636762),
                     (0.274604, 0.0004975726808577819)],
    "bloch-disc-SIO-accessible": [(1.6284885342854196, 0.003139473019133759),
                                  (1.6327234011824585, 0.0031391502912285906)],
    "bloch-disc-SIO-source": [(1.208030339899576, 0.0030566661178638424),
                              (1.2048259153929144, 0.003055137809167111)],
    "bloch-disc-PIO-accessible": [(1.2992621905598236, 0.003094298184164811),
                                  (1.3052437829722585, 0.003096373974016488)],
    "bloch-disc-PIO-source": [(1.098099729765162, 0.002995969978106488),
                              (1.09607654409625, 0.002994690119653043)],
    "bloch-half-disc-SIO-accessible": [(0.811976037246818, 0.0015698966739116711),
                                       (0.8135028512764626, 0.0015697903064897656)],
    "bloch-half-disc-SIO-source": [(0.6058749928007131, 0.0015292111774205422),
                                   (0.6041219841000101, 0.0015283837500934222)],
    "bloch-half-disc-PIO-accessible": [(0.6466025999618512, 0.0015460738231257653),
                                       (0.6503159624783943, 0.001547388863942027)],
    "bloch-half-disc-PIO-source": [(0.5505515461709969, 0.001498929406537049),
                                   (0.5483649976840984, 0.0014975520737790624)],
}
_PINNED_PROBE = QubitBloch(0.5, 0.0, 0.3)


def _pinned_mc_case(name):
    parts = name.split("-")
    kind = parts[-1]
    if parts[0] == "simplex":
        d = int(parts[1])
        spectrum = tuple(float(x) for x in np.arange(d, 0, -1)
                         / (d * (d + 1) / 2))
        return (sorted_simplex_predicate(spectrum, kind),
                make_region("simplex-sorted", dim=d))
    if parts[0] == "plane":
        return (coordinate_plane_predicate((0.5, 0.3, 0.2), kind),
                make_region("coordinate-plane"))
    region = "-".join(parts[:-2])
    return (qubit_region_predicate(_PINNED_PROBE, parts[-2], kind),
            make_region(region))


@pytest.mark.parametrize("name", sorted(_PINNED_MC))
def test_mc_estimates_are_pinned(name):
    predicate, region = _pinned_mc_case(name)
    estimates = [mc_volume(predicate, region, 250_000, seed=seed)
                 for seed in (3, 11)]
    assert [(e.mean, e.standard_error) for e in estimates] == _PINNED_MC[name]


def _dyadic_points(rng, count, d, units):
    """``count`` sorted points of the d-simplex with entries k/1024, drawn
    on a lattice of ``units`` steps so that partial sums often tie."""
    counts = rng.multinomial(units, np.full(d, 1.0 / d), size=count)
    return -np.sort(-counts, axis=1) * (1024 // units) / 1024.0


def _fraction_verdicts(points, bounds, kind, slack):
    """Every partial sum of each row against ``bounds`` in exact
    arithmetic, under the predicates' slack rule."""
    slack = Fraction(slack)
    verdicts = []
    for row in points:
        sums = itertools.accumulate(Fraction(float(x)) for x in row)
        verdicts.append(all(
            s <= Fraction(float(b)) + slack if kind == "source"
            else s >= Fraction(float(b)) - slack
            for s, b in zip(sums, bounds)))
    return verdicts


@pytest.mark.parametrize("slack", [1e-10, 0.0])
@pytest.mark.parametrize("kind", ["accessible", "source"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_simplex_predicate_matches_fraction_partial_sums(d, kind, slack):
    rng = np.random.default_rng(100 + d)
    outcomes = set()
    for spectrum in _dyadic_points(rng, 4, d, 16):
        points = np.concatenate([_dyadic_points(rng, 300, d, 16),
                                 _dyadic_points(rng, 100, d, 1024),
                                 spectrum[None]])
        bounds = np.cumsum(spectrum)
        # some point ties each partial-sum bound short of the total
        ties = np.cumsum(points, axis=1)[:, :-1] == bounds[:-1]
        assert ties.any(axis=0).all()
        flags = sorted_simplex_predicate(spectrum, kind, slack)(points)
        assert flags.tolist() == _fraction_verdicts(points, bounds, kind,
                                                    slack)
        outcomes.update(flags.tolist())
    assert outcomes == {True, False}


@pytest.mark.parametrize("d", range(2, 10))
def test_simplex_predicate_ignores_the_rounded_total(d):
    # a sorted-simplex sample sums to 1 by construction, but its float
    # total may round off 1; the whole simplex is the source set of
    # (1, 0, ..., 0) and the accessible set of the uniform spectrum, so
    # neither test may reject a sample even without slack
    points = make_region("simplex-sorted", dim=d).sample(
        np.random.default_rng(d), 20_000)
    assert (points.sum(axis=1) != 1.0).any()
    for spectrum, kind in ((np.eye(d)[0], "source"),
                           (np.full(d, 1.0 / d), "accessible")):
        assert sorted_simplex_predicate(spectrum, kind, 0.0)(points).all()


@pytest.mark.parametrize("slack", [1e-10, 0.0])
@pytest.mark.parametrize("kind", ["accessible", "source"])
def test_plane_predicate_matches_fraction_partial_sums(kind, slack):
    rng = np.random.default_rng(7)
    for spectrum in _dyadic_points(rng, 6, 3, 16):
        points = np.concatenate([_dyadic_points(rng, 300, 3, 16)[:, :2],
                                 _dyadic_points(rng, 100, 3, 1024)[:, 1:],
                                 spectrum[None, :2]])
        bounds = np.cumsum(spectrum)[:2]
        assert (np.cumsum(points, axis=1) == bounds).any(axis=0).all()
        flags = coordinate_plane_predicate(spectrum, kind, slack)(points)
        assert flags.tolist() == _fraction_verdicts(points, bounds, kind,
                                                    slack)


def test_qubit_region_predicate_roles():
    r = QubitBloch(0.5, 0.0, 0.3)
    pts = make_region("bloch-disc").sample(np.random.default_rng(2), 1000)
    t2, z = pts[:, 0] ** 2, pts[:, 1]
    accessible = qubit_region_predicate(r, "SIO", "accessible")(pts)
    assert np.array_equal(
        accessible, sio_feasible_mask(r.transverse_sq, r.r_z, t2, z))
    source = qubit_region_predicate(r, "PIO", "source")(pts)
    assert np.array_equal(
        source, pio_feasible_mask(t2, z, r.transverse_sq, r.r_z))
    # IC shares the SIO criterion, and plain tuples are accepted
    ic = qubit_region_predicate((0.5, 0.0, 0.3), "IC", "accessible")(pts)
    assert np.array_equal(ic, accessible)
    with pytest.raises(ValueError, match="kind"):
        qubit_region_predicate(r, "SIO", "reachable")
    with pytest.raises(ValueError, match="class"):
        qubit_region_predicate(r, "LICC", "source")


def test_simplex_and_plane_predicates_spot_values():
    lam = (0.5, 0.3, 0.2)
    acc = sorted_simplex_predicate(lam, "accessible")
    src = sorted_simplex_predicate(lam, "source")
    pts = np.array([[0.7, 0.2, 0.1],
                    [0.4, 0.35, 0.25],
                    [0.5, 0.3, 0.2]])
    assert acc(pts).tolist() == [True, False, True]
    assert src(pts).tolist() == [False, True, True]

    acc = coordinate_plane_predicate(lam, "accessible")
    src = coordinate_plane_predicate(lam, "source")
    pts = np.array([[0.6, 0.3], [0.4, 0.2], [0.5, 0.3]])
    assert acc(pts).tolist() == [True, False, True]
    assert src(pts).tolist() == [False, True, True]
    with pytest.raises(ValueError, match="length-3"):
        coordinate_plane_predicate((0.6, 0.4), "source")


def test_simplex_predicate_rejects_unknown_kind_when_built():
    with pytest.raises(ValueError, match="unknown kind 'outside'"):
        sorted_simplex_predicate((0.5, 0.3, 0.2), "outside")


def test_plane_predicate_rejects_unknown_kind_when_built():
    with pytest.raises(ValueError, match="unknown kind 'outside'"):
        coordinate_plane_predicate((0.5, 0.3, 0.2), "outside")


# ---------------------------------------------------------------------------
# property suites


def test_monotonicity_suite_reports_no_violations():
    for monotone, operation_class in [("sio-Ca", "SIO"), ("sio-Cs", "IC"),
                                      ("pio-Ca", "PIO"), ("pio-Cs", "IU")]:
        report = monotonicity_suite(monotone, operation_class, 500, seed=88)
        assert report.violations == 0
        assert report.max_increase <= report.tolerance

    report = monotonicity_suite("source-closed", "IC", 500, seed=88)
    assert report.violations == 0


def test_monotonicity_suite_validates_claims():
    with pytest.raises(ValueError, match="IU/PIO"):
        monotonicity_suite("pio-Ca", "SIO", 10)
    with pytest.raises(ValueError, match="unknown monotone"):
        monotonicity_suite("negativity", "SIO", 10)
    with pytest.raises(ValueError, match="unknown operation class"):
        monotonicity_suite("sio-Ca", "LOCC", 10)
    with pytest.raises(ValueError, match="not claimed monotone"):
        monotonicity_suite("source-closed", "IU", 10)


def test_batched_trials_find_increases_of_an_unclaimed_pair():
    # a negative control: pio-Cs does increase under some SIO channels,
    # so batched trials that computed nothing would be caught here
    increases = np.concatenate(list(_qubit_trials(
        "pio-Cs", "SIO", 2000, np.random.default_rng(DEFAULT_SEED))))
    assert increases.shape == (2000,)
    assert np.count_nonzero(increases > 1e-8) > 0

    # blending toward the uniform spectrum, not the incoherent vertex,
    # raises the source coherence
    rng = np.random.default_rng(DEFAULT_SEED)
    lam, _ = _spectrum_pairs(rng, 2000)
    blend = rng.random((2000, 1))
    increases = _source_closed_increases(lam, blend * lam + (1.0 - blend) / 5)
    assert np.count_nonzero(increases > 1e-8) > 0


def test_batched_source_values_match_the_public_path():
    # rows whose supports differ in length, by exact and near zeros
    rng = np.random.default_rng(5)
    rows = [[0.6, 0.4, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.25] * 4 + [0.0], [0.5, 0.3, 0.2, 1e-13, 0.0]]
    rows += [list(row) for row in _spectrum_pairs(rng, 8)[1]]
    # every row moved to the incoherent vertex loses all its coherence
    expected = [-source_coherence_closed(row).value for row in rows]
    incoherent = np.eye(5)[[0] * len(rows)]
    assert_allclose(_source_closed_increases(np.array(rows), incoherent),
                    expected, rtol=0, atol=1e-15)


def test_suites_audit_the_batched_kernels(monkeypatch):
    # the audit trial runs through the public functions, so a batched
    # kernel that disagrees with them stops the suite
    monkeypatch.setitem(oracle._QUBIT_MONOTONES, "sio-Ca", qubit_sio_Cs)
    with pytest.raises(RuntimeError, match="sio-Ca/SIO"):
        monotonicity_suite("sio-Ca", "SIO", 5, seed=1)
    monkeypatch.setattr(oracle, "_permutation_sums",
                        lambda spectra: 0.5 * monotones._permutation_sums(spectra))
    with pytest.raises(RuntimeError, match="source-closed/LICC"):
        monotonicity_suite("source-closed", "LICC", 5, seed=1)
    monkeypatch.setattr(oracle, "apply_to_pure", lambda channel, state: [
        (p / 2, branch) for p, branch in apply_to_pure(channel, state)])
    with pytest.raises(RuntimeError, match="lemma1"):
        lemma1_suite(5, seed=1)


def test_source_suite_catches_a_zero_stripping_kernel(monkeypatch):
    # measuring each spectrum on its support alone is not monotone: the
    # targets that empty levels catch it, in the batched trials and the
    # audit trial alike
    kernel = monotones._permutation_sums

    def stripping(spectra):
        support = np.count_nonzero(spectra > 1e-12, axis=1)
        return np.array([kernel(row[None, :length])[0]
                         for row, length in zip(spectra, support)])
    monkeypatch.setattr(monotones, "_permutation_sums", stripping)
    monkeypatch.setattr(oracle, "_permutation_sums", stripping)
    report = monotonicity_suite("source-closed", "IC", 2000, seed=DEFAULT_SEED)
    assert report.violations > 0
    assert report.max_increase > 0.1


@pytest.mark.parametrize("trials", [0, -5])
def test_monotonicity_suite_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        monotonicity_suite("sio-Ca", "SIO", trials)
    with pytest.raises(ValueError, match="trials"):
        monotonicity_suite("source-closed", "IC", trials)


@pytest.mark.parametrize("trials", [0, -5])
def test_lemma1_suite_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        lemma1_suite(trials)


@pytest.mark.parametrize("suite, trials", [
    (lambda n: monotonicity_suite("sio-Ca", "SIO", n), 60_000),
    (lambda n: monotonicity_suite("source-closed", "IC", n), 60_000),
    (lemma1_suite, 30_000),
], ids=["sio-Ca", "source-closed", "lemma1"])
def test_suites_allocate_nothing_sized_by_trials(suite, trials):
    # each block is reduced to its maximum and count as it is drawn, so
    # many trials peak no higher than a few; keeping every trial's value
    # grows the peak by at least 16 bytes a trial
    suite(3000)
    peaks = []
    for count in (3000, trials):
        tracemalloc.start()
        try:
            suite(count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.4 * 2**20


def test_lemma1_suite_never_increases_terms():
    report = lemma1_suite(trials=300, seed=44)
    assert report.violations == 0
    assert report.max_increase <= 0


# ---------------------------------------------------------------------------
# counterexample certification


@pytest.fixture(scope="module")
def counterexample_report():
    return b3_b4_counterexamples(step=0.05)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_counterexample_rejects_bad_step(step):
    with pytest.raises(ValueError, match="positive and finite"):
        b3_b4_counterexamples(step=step)


def test_counterexample_bounds_grid_before_allocating():
    # 0.02 would give 46**4 (about 4.5e6) points
    with pytest.raises(ValueError, match="too small"):
        b3_b4_counterexamples(step=0.02)


def test_counterexample_report_structure(counterexample_report):
    report = counterexample_report
    # largest eigenvalue (1 + |r|)/2 of the t = z = 0.1 reference state
    assert_allclose(report.largest_eigenvalue_check,
                    (1 + RT(0.02)) / 2, atol=1e-12)
    assert report.grid_points > 100_000
    assert len(report.grid) == 8
    assert len(report.printed_instances) == 4

    def instance(condition, monotone):
        found = [inst for inst in report.printed_instances
                 if condition in inst.label and monotone in inst.label]
        assert len(found) == 1
        return found[0]

    # the printed constants ride along verbatim, next to the
    # re-evaluation; no equality between the columns is asserted
    table = {
        ("convexity", "accessible"): (0.0994, -0.7178),
        ("convexity", "source"): (0.6930, -0.6912),
        ("selective", "accessible"): (-0.1912, 0.1345),
        ("selective", "source"): (-0.2123, 0.1679),
    }
    for (condition, monotone), row in table.items():
        inst = instance(condition, monotone)
        printed, normalized = row
        assert inst.printed_value == printed
        assert_allclose(inst.normalized_convention, normalized, atol=1e-4)


def test_counterexample_grid_certifications(counterexample_report):
    rows = counterexample_report.grid

    def matching(condition, monotone, reading):
        return [g for g in rows
                if (g.condition, g.monotone, g.reading)
                == (condition, monotone, reading)]

    def certified(condition, monotone, reading):
        found = matching(condition, monotone, reading)
        assert found
        return any(g.count > 0 and g.best_margin > 1e-3 for g in found)

    # convexity violations exist for both monotones
    assert certified("convexity", "accessible", "weighted")
    assert certified("convexity", "source", "weighted")
    # selective-measurement violations under the unweighted reading
    assert certified("selective-measurement", "accessible", "unweighted")
    assert certified("selective-measurement", "source", "unweighted")
    # under the weighted reading the source monotone is still violated
    # (by diagonal instruments outside the damping family) while the
    # accessible monotone never is; the report says so honestly
    assert certified("selective-measurement", "source", "weighted")
    weighted_accessible = matching("selective-measurement", "accessible",
                                   "weighted")
    assert len(weighted_accessible) == 2  # damping + diagonal instruments
    assert all(g.count == 0 for g in weighted_accessible)
    assert all(g.best_margin < 1e-3 for g in weighted_accessible)


# count and best margin of each grid row, in report order, and the
# normalized values of the four printed instances: counts must not move,
# and values only by rounding
_PINNED_GRID = {
    0.05: [(105412, 0.9837222101749288), (0, -0.0010858778372613218),
           (105412, 0.9985694964690244), (0, -0.0006496732199404165),
           (0, 4.440892098500626e-16), (8149, 0.007696392426934651),
           (30229, 0.04181193219669932), (77913, 0.5837243048628976)],
    0.2: [(550, 0.9120440454103327), (0, -0.0011375907975213762),
          (550, 0.9739140575812528), (0, -0.0011310754366709863),
          (0, 2.220446049250313e-16), (40, 0.005810798131574146),
          (163, 0.03012958442434205), (399, 0.2887789743300515)],
}
_PINNED_PRINTED = [-0.717848888442941, -0.6911556739682577,
                   0.13448031498633278, 0.16785226850268198]


@pytest.mark.parametrize("step", sorted(_PINNED_GRID))
def test_counterexample_numbers_are_pinned(step):
    report = b3_b4_counterexamples(step=step)
    assert [g.count for g in report.grid] == [c for c, _ in _PINNED_GRID[step]]
    assert_allclose([g.best_margin for g in report.grid],
                    [m for _, m in _PINNED_GRID[step]], rtol=0, atol=1e-12)
    assert_allclose([inst.normalized_convention
                     for inst in report.printed_instances],
                    _PINNED_PRINTED, rtol=0, atol=1e-12)


def _green_area_mp(geometry):
    """Green's theorem over a region's boundary pieces, each term summed in
    mpmath from the pieces' float coordinates and angles."""
    area = mpmath.mpf(0)
    for piece in (p for loop in geometry.components for p in loop):
        if isinstance(piece, monotones.Segment):
            (x0, y0), (x1, y1) = (map(mpmath.mpf, xy)
                                  for xy in (piece.start, piece.end))
            area += (x0 * y1 - y0 * x1) / 2
        else:
            cx, cy, rx, ry, th0, th1 = map(mpmath.mpf, (
                *piece.center, piece.rx, piece.ry, piece.theta0, piece.theta1))
            area += (rx * ry * (th1 - th0)
                     + cx * ry * (mpmath.sin(th1) - mpmath.sin(th0))
                     - cy * rx * (mpmath.cos(th1) - mpmath.cos(th0))) / 2
    return area


def _sio_value_mp(kind, t, z):
    """SIO monotone ``kind`` of the Bloch state (t, 0, z), valued by
    :func:`_green_area_mp` over ``region_geometry``, not the area kernels."""
    area = _green_area_mp(monotones.region_geometry(
        QubitBloch(float(t), 0.0, float(z)), "SIO", kind))
    return area / mpmath.pi if kind == "accessible" else 1 - area / mpmath.pi


def _branch_mp(t, z, a, b):
    """Weight and Bloch data (w, t, z) of the branch diag(a, b) of the
    state (t, 0, z)."""
    up, down = a * a * (1 + z) / 2, b * b * (1 - z) / 2
    return up + down, a * b * t / (up + down), (up - down) / (up + down)


def _row_margin_mp(row):
    """A grid row's best margin, rebuilt from its family's formulas."""
    params = {k: mpmath.mpf(v) for k, v in row.best_parameters.items()
              if k != "family"}
    family, t, z = row.best_parameters["family"], params["t"], params["z"]

    def value(tb, zb):
        return _sio_value_mp(row.monotone, tb, zb)
    if family == "incoherent-mixture":
        p, g = params["p"], params["gamma"]
        return value(p * t, p * z + (1 - p) * (2 * g - 1)) - p * value(t, z)
    if family == "eigendecomposition":
        r = mpmath.hypot(t, z)
        parts = [((1 + r) / 2, t / r, z / r), ((1 - r) / 2, t / r, -z / r)]
        return value(t, z) - sum(w * value(tb, zb) for w, tb, zb in parts)
    if family == "damping":
        p, keep = params["p"], mpmath.sqrt(1 - params["gamma"])
        (w0, t0, z0), (w1, t1, z1) = (_branch_mp(t, z, 1, keep),
                                      _branch_mp(t, z, keep, 1))
        parts = ([(p * w0, t0, z0), ((1 - p) * w1, t1, z1)]
                 if row.reading == "weighted" else [(1, t0, z0), (1, t1, z1)])
    else:  # diagonal-instrument
        a, b = params["a"], params["b"]
        parts = [_branch_mp(t, z, a, b),
                 _branch_mp(t, z, mpmath.sqrt(1 - a * a), mpmath.sqrt(1 - b * b))]
    return sum(w * value(tb, zb) for w, tb, zb in parts) - value(t, z)


def test_strict_counterexample_rows_hold_in_mpmath(counterexample_report):
    # criterion 9 without the area kernels the scan runs: each strict row's
    # best point, its parts rebuilt at 50 digits and every state valued by
    # Green's theorem over its boundary pieces
    strict = [row for row in counterexample_report.grid
              if row.count > 0 and row.best_margin > 1e-3]
    assert {(row.condition, row.monotone) for row in strict} == set(
        itertools.product(("selective-measurement", "convexity"),
                          ("accessible", "source")))
    with mpmath.workdps(50):
        margins = [_row_margin_mp(row) for row in strict]
    assert all(margin > 1e-3 for margin in margins)
    assert_allclose([float(m) for m in margins],
                    [row.best_margin for row in strict], rtol=0, atol=1e-12)


def test_a_tie_row_reports_zero_at_its_first_tie():
    # a largest gap within 1e-12 of 0 is rounding noise on a tie: 0.0 at
    # the first point whose gap is at least -1e-12
    gaps = np.array([[-1.0, -2e-12, -5e-13], [4e-16, 2e-16, -3.0]])
    axes = {"x": np.arange(3.0), "y": np.array([[0.0], [1.0]])}
    row = oracle._summarize("c", "m", "r", "f", gaps, **axes)
    assert row.best_margin == 0.0
    assert row.best_parameters == {"x": 2.0, "y": 0.0, "family": "f"}
    # a gap outside the band keeps its value and its first largest point
    gaps[1, 1] = 2e-12
    row = oracle._summarize("c", "m", "r", "f", gaps, **axes)
    assert row.best_margin == 2e-12
    assert row.best_parameters == {"x": 1.0, "y": 1.0, "family": "f"}


def test_counterexample_tie_row(counterexample_report):
    # only the accessible diagonal-instrument row ties, at a = b: an
    # instrument proportional to the identity leaves every branch unchanged
    ties = [g for g in counterexample_report.grid if abs(g.best_margin) <= 1e-12]
    assert [(g.monotone, g.reading) for g in ties] == [("accessible", "weighted")]
    assert ties[0].best_margin == 0.0
    assert ties[0].best_parameters == {"a": 0.05, "b": 0.05, "t": 0.05,
                                       "z": 0.05,
                                       "family": "diagonal-instrument"}


@pytest.mark.parametrize("step", [0.03, 0.05, 0.1, 0.2])
def test_unweighted_damping_rows_are_constant_along_p(step, monkeypatch):
    # p leaves a normalized damping branch state unchanged, so the
    # unweighted reading ties along the p axis and reports its first value
    gaps = {}
    summarize = oracle._summarize

    def spy(condition, monotone, reading, family, gap, **params):
        if family == "damping" and reading == "unweighted":
            gaps[monotone] = gap
        return summarize(condition, monotone, reading, family, gap, **params)

    monkeypatch.setattr(oracle, "_summarize", spy)
    report = b3_b4_counterexamples(step=step)
    rows = [g for g in report.grid if g.best_parameters["family"] == "damping"
            and g.reading == "unweighted"]
    assert [g.monotone for g in rows] == ["accessible", "source"]
    assert sorted(gaps) == ["accessible", "source"]
    assert all(g.best_parameters["p"] == 0.05 for g in rows)
    n = np.arange(0.05, 0.95 + 1e-9, step).size
    for gap in gaps.values():
        gap = np.reshape(gap, (-1, n, n))
        assert np.array_equal(gap, np.broadcast_to(gap[:, :1], gap.shape))


def test_counterexample_scan_values_each_factor_on_its_own_axes(monkeypatch):
    # every height factor runs on at most 19**3 points (the instruments'
    # (z, a, b) and the mixtures' (z, p, gamma) axes), only the instrument
    # branches' source radial factor runs on the full grid, and a whole
    # monotone reaches the full grid only as a product of gathered factors
    factors = ("_sio_accessible_height", "_sio_source_height",
               "_sio_source_volume_pure", "_sio_source_radial")
    sizes = {name: [] for name in factors + ("_qubit_monotone",)}
    for name in factors:
        def spy(x, kernel=getattr(monotones, name), name=name):
            sizes[name].append(np.size(x))
            return kernel(x)
        monkeypatch.setattr(monotones, name, spy)
    qubit_monotone = oracle._qubit_monotone

    def counting(monotone, t, z, *gather):
        value = qubit_monotone(monotone, t, z, *gather)
        sizes["_qubit_monotone"].append((np.size(value), bool(gather)))
        return value

    monkeypatch.setattr(oracle, "_qubit_monotone", counting)
    report = b3_b4_counterexamples(step=0.05)
    full, cube = report.grid_points, 19 ** 3
    heights = [n for name in factors[:3] for n in sizes[name]]
    assert cube in heights and max(heights) <= cube
    radial = sizes["_sio_source_radial"]
    assert radial.count(full) <= 2
    assert all(n <= cube for n in radial if n != full)
    calls = sizes["_qubit_monotone"]
    assert calls and (full, False) not in calls
    assert sum(n for n, _ in calls) <= 7 * full


def _full_grid_rows(step):
    """The scan's rows with every term valued point by point on the full
    (pair, p, gamma) grid: the instrument branches from (pair, a, b) and
    the mixtures through ``_qubit_monotone``, no factor on axes of its
    own."""
    axis = np.arange(0.05, 0.95 + 1e-9, step)
    ti, zi = np.nonzero(axis[:, None] ** 2 + axis ** 2 < 1.0 - 1e-9)
    t, z, p, g = axis[ti, None, None], axis[zi, None, None], axis[:, None], axis
    shape = (t.size, axis.size, axis.size)
    grid = {"t": t, "z": z, "p": p, "gamma": g}
    damping = oracle._damping_branches(t, z, p, g)
    readings = {"unweighted": [(1.0, tb, zb) for _, tb, zb in damping],
                "weighted": damping}
    instrument = (oracle._diagonal_branch(t, z, p, g),
                  oracle._diagonal_branch(t, z, np.sqrt(1.0 - p * p),
                                          np.sqrt(1.0 - g * g)))
    eigen = oracle._eigen_parts(t, z)
    mixture = (p * t, p * z + (1.0 - p) * (2.0 * g - 1.0))
    summarize, excess = oracle._summarize, oracle._excess
    damped, instruments, convexity = [], [], []
    for name, monotone in (("accessible", "sio-Ca"), ("source", "sio-Cs")):
        whole = np.broadcast_to(oracle._qubit_monotone(monotone, t, z), shape)
        for reading, parts in readings.items():
            damped.append(summarize("selective-measurement", name, reading,
                                    "damping", excess(monotone, whole, parts),
                                    **grid))
        instruments.append(summarize(
            "selective-measurement", name, "weighted", "diagonal-instrument",
            excess(monotone, whole, instrument), a=p, b=g, t=t, z=z))
        eig = summarize("convexity", name, "weighted", "eigendecomposition",
                        -excess(monotone, whole, eigen), t=t, z=z)
        mix = summarize("convexity", name, "weighted", "incoherent-mixture",
                        -excess(monotone,
                                oracle._qubit_monotone(monotone, *mixture),
                                [(p, t, z)]), **grid)
        best = eig if eig.best_margin >= mix.best_margin else mix
        convexity.append(replace(best, count=eig.count + mix.count))
    return damped + instruments + convexity, math.prod(shape)


@pytest.mark.parametrize("step", [0.05, 0.1, 0.2])
def test_counterexample_scan_matches_the_full_grid_formulation(step):
    # same counts, best parameters and tie rows; margins within rounding
    rows, points = _full_grid_rows(step)
    report = b3_b4_counterexamples(step=step)
    assert report.grid_points == points
    assert len(report.grid) == len(rows)
    for got, want in zip(report.grid, rows):
        assert (got.condition, got.monotone, got.reading, got.count) == (
            want.condition, want.monotone, want.reading, want.count)
        assert got.best_parameters == want.best_parameters
        assert (got.best_margin == 0.0) is (want.best_margin == 0.0)
        assert abs(got.best_margin - want.best_margin) <= 1e-12


def _accessible_area(t, z):
    """The ellipse x^2 (1 - z^2)/t^2 + z^2 <= 1 cut to the strip |x| <= t:
    twice the integral of 2 sqrt(1 - x^2/rx^2) over 0 <= x <= t, with the
    semi-axis rx = t/u, u = sqrt(1 - z^2); 2t at |z| = 1 (the kernel's
    guard), 0 at t = 0."""
    if t == 0.0:
        return 0.0
    u = math.sqrt(max(0.0, 1.0 - z * z))
    if u == 0.0:
        return 2.0 * t
    rx = t / u
    return 2.0 * rx * (u * math.sqrt(1.0 - u * u) + math.asin(u))


def _source_area(t, z):
    """The caps |x| >= t of the unit disc, less the ellipse beyond the
    strip (the ellipse integral from t to rx); on the pure circle the
    caps |x| >= sqrt(1 - z^2) instead."""
    az = abs(z)
    if abs(t * t + z * z - 1.0) <= 1e-12:
        return 2.0 * math.asin(az) - 2.0 * az * math.sqrt(1.0 - az * az)
    caps = 2.0 * (math.acos(t) - t * math.sqrt(1.0 - t * t))
    u = math.sqrt(max(0.0, 1.0 - z * z))
    if u == 0.0:
        bulge = t * (0.5 * math.pi - 1.0)  # the kernel's guard
    else:
        rx = t / u
        bulge = rx * (0.5 * math.pi - u * math.sqrt(1.0 - u * u)
                      - math.asin(u))
    return min(math.pi, max(0.0, caps - 2.0 * bulge))


def _kernel_points():
    """Seeded points of the Bloch half-disc, of its pure circle, and the
    edges t = 0 and |z| = 1, as separate groups."""
    rng = np.random.default_rng(20)
    radius, angle = np.sqrt(rng.random(200)), rng.uniform(-np.pi, np.pi, 200)
    circle = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 40)
    edges = [(0.0, z) for z in (-1.0, -0.6, 0.0, 0.3, 1.0)]
    edges += [(t, s) for t in (0.2, 0.9) for s in (-1.0, 1.0)]
    return [np.column_stack([radius * np.abs(np.cos(angle)),
                             radius * np.sin(angle)]),
            np.column_stack([np.cos(circle), np.sin(circle)]),
            np.array(edges)]


@pytest.mark.parametrize("kernel, reference", [
    (monotones._sio_accessible_volume, _accessible_area),
    (monotones._sio_source_volume, _source_area),
])
def test_separable_sio_kernels_match_their_geometry(kernel, reference):
    # scalar calls, one batch, and heights gathered from axes of their
    # own all give the geometric area within 1e-12, at t = 0, |z| = 1 and
    # on the pure circle too
    groups = _kernel_points()
    assert np.all(np.abs(groups[1][:, 0] ** 2 + groups[1][:, 1] ** 2 - 1.0)
                  <= 1e-12)
    for points in groups:
        expected = [reference(float(t), float(z)) for t, z in points]
        scalar = [float(kernel(float(t), float(z))) for t, z in points]
        assert_allclose(scalar, expected, rtol=0, atol=1e-12)
        assert_allclose(kernel(points[:, 0], points[:, 1]), expected,
                        rtol=0, atol=1e-12)
        heights, rows = np.unique(points[:, 1], return_inverse=True)
        gathered = kernel(points[:, 0], heights, lambda values: values[rows])
        assert_allclose(gathered, expected, rtol=0, atol=1e-12)
