"""Tests of the benchmark's own helpers.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 100), 90) is None  # 9 beyond rank 90
    assert stats.percentile(range(1, 101), 90) == 90
    assert stats.percentile(range(1, 1001), 99) == 990
    assert stats.percentile(range(1, 1000), 99) is None


def test_percentile_is_nearest_rank_of_unsorted_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 90) == 5.0


# ---------------------------------------------------------------------------
# self time


def _span(name, start, end, parent):
    return [name, start, end, parent, None, 1]


def test_self_time_subtracts_children():
    spans = [_span("a", 0, 100, -1), _span("b", 10, 30, 0),
             _span("c", 40, 60, 0), _span("d", 45, 50, 2)]
    assert tracing.self_times(spans) == [60, 20, 15, 5]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [_span("a", 0, 100, -1), _span("b", 10, 50, 0),
             _span("c", 40, 70, 0), _span("d", 90, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 60 - 10


def test_layer_metrics_from_spans():
    ms = 1_000_000
    spans = [["oracle.monotonicity_suite", 0, 100 * ms, -1, None, 200],
             ["channels.random_channel", 10 * ms, 30 * ms, 0, None, 1],
             ["channels.random_channel", 40 * ms, 60 * ms, 0, None, 1],
             ["monotones.permutation_sum", 0, 4 * ms, -1, "d5", 1],
             ["monotones.permutation_sum", 0, 2 * ms, -1, "d6", 1],
             ["monotones.permutation_sum", 0, 9 * ms, -1, tracing.RAISED, 0]]
    metrics = tracing.layer_metrics(spans, rounds=2)
    assert metrics["oracle.monotonicity_suite.trials_per_s"] == (2000.0, "trials/s")
    assert metrics["oracle.monotonicity_suite.self_us_per_trial"][0] == pytest.approx(300.0)
    assert metrics["channels.random_channel.us_per_call"][0] == pytest.approx(20000.0)
    assert metrics["monotones.permutation_sum.d5.ms_per_call"][0] == pytest.approx(4.0)
    assert metrics["monotones.permutation_sum.d6.ms_per_call"][0] == pytest.approx(2.0)
    assert metrics["classify.liu_equivalent.planted.ms_per_call"] == (0.0, "ms")
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_tracer_rebinds_every_module_and_restores():
    from cohertk import channels, monotones, oracle

    original = channels.random_channel
    closed_form = monotones.qubit_sio_Ca
    assert oracle.random_channel is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert channels.random_channel is oracle.random_channel
        assert channels.random_channel is not original
        # the suites look their monotones up in a module-level dict
        assert oracle._QUBIT_MONOTONES["sio-Ca"] is monotones.qubit_sio_Ca
        assert monotones.qubit_sio_Ca is not closed_form
        oracle.monotonicity_suite("sio-Ca", "SIO", 2, 1)
    finally:
        tracer.uninstall()
    assert channels.random_channel is original
    assert oracle.random_channel is original
    assert oracle._QUBIT_MONOTONES["sio-Ca"] is closed_form
    names = {span[0] for span in tracer.spans}
    assert {"oracle.monotonicity_suite", "channels.random_channel",
            "channels.apply_to_density", "monotones.qubit_sio_Ca"} <= names
    suite = next(i for i, s in enumerate(tracer.spans)
                 if s[0] == "oracle.monotonicity_suite")
    assert tracer.spans[suite][5] == 2
    assert all(s[3] == suite for s in tracer.spans
               if s[0] == "channels.random_channel")


# ---------------------------------------------------------------------------
# exact references


def _permutation_sum_naive(lam):
    lam = [Fraction(x) for x in lam if x > 0]
    d = len(lam)
    total = Fraction(0)
    for pi in itertools.permutations(range(1, d + 1)):
        bracket = sum(p * x for p, x in zip(pi, lam)) - Fraction(d + 1, 2)
        total += bracket ** (d - 1) / math.prod(pi[k] - pi[k + 1]
                                                for k in range(d - 1))
    return total


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_permutation_sum_exact_matches_the_formula(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        lam = reference.rational_spectrum(rng, d, 1024)
        assert sum(lam) == 1 and lam == sorted(lam, reverse=True)
        assert reference.permutation_sum_exact(lam) == _permutation_sum_naive(lam)


def test_permutation_sum_exact_known_values():
    third = Fraction(1, 3)
    assert reference.permutation_sum_exact([Fraction(3, 5), Fraction(2, 5)]) \
        == Fraction(1, 5)
    for d in range(2, 9):
        assert reference.permutation_sum_exact([Fraction(1, d)] * d) == 0
        assert reference.permutation_sum_exact(
            [Fraction(1)] + [Fraction(0)] * (d - 1)) == 1
    # zeros are stripped: (1/3, 1/3, 1/3, 0) is uniform on its support
    assert reference.permutation_sum_exact([third, third, third, 0]) == 0


def test_rational_spectra_are_exact_binary_floats():
    lam = reference.rational_spectrum(np.random.default_rng(0), 8, 1024)
    assert [Fraction(float(x)) for x in lam] == lam


def test_counterexample_grid_points_by_enumeration():
    axis = [k / 20 for k in range(1, 20)]
    count = sum(1 for t in axis for z in axis if t * t + z * z < 1 - 1e-9)
    assert reference.counterexample_grid_points() == count * 19 * 19


# ---------------------------------------------------------------------------
# relabelings and areas


def test_relabel_moves_amplitudes_and_phases():
    amps = np.arange(1, 7, dtype=complex)
    out = reference.relabel(amps, (2, 3), [[1, 0], [2, 0, 1]],
                            [[0.0, math.pi], [0.0, 0.0, 0.0]])
    # (i, j) -> (perm0[i], perm1[j]); party 0 index 1 picks up phase -1
    expected = np.empty((2, 3), dtype=complex)
    source = amps.reshape(2, 3) * np.array([[1], [-1]])
    for i in range(2):
        for j in range(3):
            expected[[1, 0][i], [2, 0, 1][j]] = source[i, j]
    assert np.allclose(out, expected.reshape(-1))


def test_phase_minor_separates_relabelings_from_kicks():
    rng = np.random.default_rng(4)
    dims = (3, 3)
    amps = rng.uniform(0.2, 1, 9) * np.exp(2j * np.pi * rng.random(9))
    amps /= np.linalg.norm(amps)
    perms = [rng.permutation(3), rng.permutation(3)]
    phases = [rng.uniform(0, 6, 3), rng.uniform(0, 6, 3)]
    partner = reference.relabel(amps, dims, perms, phases)
    assert reference.max_phase_minor(amps, partner, dims, perms) < 1e-9
    partner[4] *= np.exp(0.7j)
    assert reference.max_phase_minor(amps, partner, dims, perms) \
        == pytest.approx(0.7)


def test_sio_accessible_area_by_trapezoids():
    for t, z in ((0.3, 0.5), (0.7, -0.2), (0.5, 0.05)):
        a = t / math.sqrt(1 - z * z)
        x = np.linspace(-t, t, 400_001)
        height = 2 * np.sqrt(np.clip(1 - x * x / (a * a), 0, None))
        trapezoid = float(np.sum((height[1:] + height[:-1]) / 2 * np.diff(x)))
        assert reference.sio_accessible_area(t, z) == pytest.approx(
            trapezoid, abs=1e-8)


def test_planar_region_areas():
    a, b = 0.5, 0.3
    accessible, source = reference.planar_region_areas(a, b)
    # accessible: the triangle x1 >= a, x1 + x2 >= a + b inside the simplex
    assert accessible == pytest.approx(((1 - a) ** 2 - b * b) / 2)
    # source: the simplex corner cut by x1 <= a and x1 + x2 <= a + b
    assert source == pytest.approx(((a + b) ** 2 - b * b) / 2)
