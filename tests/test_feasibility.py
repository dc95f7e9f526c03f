"""Tests for majorization and transformation-feasibility predicates."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk import feasibility
from cohertk.feasibility import (
    FeasibilityVerdict,
    LemmaNotApplicableError,
    _as_bloch,
    ic_pure_feasible,
    licc_bipartite_feasible,
    locc_pure_feasible,
    majorization_verdict,
    majorizes,
    pio_feasible_mask,
    pio_qubit_feasible,
    sio_feasible_mask,
    sio_qubit_feasible,
)
from cohertk.states import PureState, QubitBloch

RT = math.sqrt


def check_verdict(verdict, feasible):
    assert isinstance(verdict, FeasibilityVerdict)
    assert verdict.feasible is feasible
    assert bool(verdict) is feasible
    if not feasible:
        assert verdict.binding  # an infeasible verdict names its violation


def test_majorizes_basic_order():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])
    # every distribution majorizes the uniform one and is majorized by a point
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = rng.standard_exponential(4)
        lam /= lam.sum()
        assert majorizes(lam, np.full(4, 0.25))
        assert majorizes([1, 0, 0, 0], lam)


def test_majorizes_pads_shorter_vector():
    assert majorizes([1.0], [0.6, 0.4])
    assert not majorizes([0.6, 0.4], [1.0])


def test_majorization_verdict_diagnostics():
    verdict = majorization_verdict([0.5, 0.5], [0.8, 0.2])
    check_verdict(verdict, False)
    assert any("partial-sum 1" in item and "violated" in item
               for item in verdict.binding)

    verdict = majorization_verdict([0.6, 0.4], [0.6, 0.4])
    check_verdict(verdict, True)
    assert len(verdict.binding) == 2  # both partial sums tight

    with pytest.raises(ValueError, match="not a normalized"):
        majorization_verdict([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="not a normalized"):
        majorization_verdict([0.5, 0.5], [1.2, -0.2])


def test_ic_pure_feasible_direction():
    uniform = PureState((4,), np.full(4, 0.5))
    basis = PureState((4,), [1, 0, 0, 0])
    check_verdict(ic_pure_feasible(uniform, basis), True)
    check_verdict(ic_pure_feasible(basis, uniform), False)
    # party structure is irrelevant; only the total dimension must agree
    check_verdict(
        ic_pure_feasible(uniform, PureState((2, 2), [1, 0, 0, 0])), True)
    with pytest.raises(ValueError, match="different total dimensions"):
        ic_pure_feasible(PureState((2,), [1, 0]), basis)


def test_locc_pure_feasible_uses_schmidt_vectors():
    bell = PureState((2, 2), [RT(0.5), 0, 0, RT(0.5)])
    product = PureState((2, 2), [1, 0, 0, 0])
    check_verdict(locc_pure_feasible(bell, product), True)
    check_verdict(locc_pure_feasible(product, bell), False)

    ghz = PureState((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / RT(2))
    top = PureState((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 0])
    check_verdict(locc_pure_feasible(ghz, top, cut=(0, 1)), True)
    with pytest.raises(ValueError, match="different party structures"):
        locc_pure_feasible(bell, PureState((4,), [1, 0, 0, 0]))


def correlated(p):
    return PureState((2, 2), [RT(p), 0, 0, RT(1 - p)])


def test_licc_bipartite_feasible():
    check_verdict(licc_bipartite_feasible(correlated(0.5), correlated(0.7)),
                  True)
    check_verdict(licc_bipartite_feasible(correlated(0.7), correlated(0.5)),
                  False)

    skew = PureState((2, 2), [RT(0.5), RT(0.5), 0, 0])
    with pytest.raises(LemmaNotApplicableError, match="non-diagonal"):
        licc_bipartite_feasible(skew, correlated(0.7))
    # the precondition failure is still a ValueError for generic handling
    assert issubclass(LemmaNotApplicableError, ValueError)

    ghz = PureState((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / RT(2))
    with pytest.raises(ValueError, match="bipartite"):
        licc_bipartite_feasible(ghz, ghz)


def test_sio_qubit_feasible_constraints():
    src = QubitBloch(0.6, 0.0, 0.2)
    check_verdict(sio_qubit_feasible(src, QubitBloch(0.3, 0.0, 0.1)), True)
    check_verdict(sio_qubit_feasible(src, src), True)  # reflexive, binding tight

    grow = sio_qubit_feasible(src, QubitBloch(0.7, 0.0, 0.0))
    check_verdict(grow, False)
    assert any(item.startswith("transverse") for item in grow.binding)

    tilt = sio_qubit_feasible(src, QubitBloch(0.6, 0.0, 0.75))
    check_verdict(tilt, False)
    assert any(item.startswith("ellipse") for item in tilt.binding)


def test_sio_qubit_degenerate_axis():
    axis = QubitBloch(0.0, 0.0, 0.5)
    check_verdict(sio_qubit_feasible(axis, QubitBloch(0.0, 0.0, 0.99)), True)
    check_verdict(sio_qubit_feasible(axis, QubitBloch(0.1, 0.0, 0.0)), False)


def test_pio_qubit_feasible_constraints():
    src = QubitBloch(0.5, 0.0, 0.4)
    check_verdict(pio_qubit_feasible(src, QubitBloch(0.25, 0.0, 0.2)), True)
    check_verdict(pio_qubit_feasible(src, QubitBloch(0.7, 0.0, 0.0)), False)
    # past the cone toward the pole the hexagon cuts off the corner
    cone = pio_qubit_feasible(QubitBloch(0.5, 0.0, 0.0),
                              QubitBloch(0.4, 0.0, 0.9))
    check_verdict(cone, False)
    assert any("cone" in item for item in cone.binding)

    axis = QubitBloch(0.0, 0.0, -0.3)
    check_verdict(pio_qubit_feasible(axis, QubitBloch(0.0, 0.0, 1.0)), True)
    check_verdict(pio_qubit_feasible(axis, QubitBloch(0.2, 0.0, 0.0)), False)


def test_pio_reachable_set_nested_in_sio():
    rng = np.random.default_rng(13)
    cases = hits = 0
    for _ in range(300):
        src = _random_ball(rng)
        dst = _random_ball(rng)
        if pio_qubit_feasible(src, dst):
            cases += 1
            assert sio_qubit_feasible(src, dst).feasible
        hits += 1
    assert cases > 10  # the comparison actually exercised feasible pairs


def test_ic_pure_and_sio_qubit_verdicts_agree_on_qubit_states():
    # a pure qubit pair is read two ways: dephased spectra under IC, Bloch
    # vectors under the SIO qubit criterion; the two rules must agree
    rng = np.random.default_rng(19)
    for _ in range(1000):
        psi, phi = (PureState((2,), amps / np.linalg.norm(amps))
                    for amps in rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))
        assert (ic_pure_feasible(psi, phi).feasible
                is sio_qubit_feasible(_as_bloch(psi), _as_bloch(phi)).feasible)


def _random_ball(rng):
    v = rng.standard_normal(3)
    v *= rng.random() ** (1 / 3) / np.linalg.norm(v)
    return QubitBloch(*v)


def test_vectorized_masks_match_scalar_predicates():
    rng = np.random.default_rng(31)
    sources = [_random_ball(rng) for _ in range(150)]
    targets = [_random_ball(rng) for _ in range(150)]
    src_t2 = np.array([r.transverse_sq for r in sources])
    src_z = np.array([r.r_z for r in sources])
    dst_t2 = np.array([s.transverse_sq for s in targets])
    dst_z = np.array([s.r_z for s in targets])

    sio = sio_feasible_mask(src_t2, src_z, dst_t2, dst_z)
    pio = pio_feasible_mask(src_t2, src_z, dst_t2, dst_z)
    for k, (r, s) in enumerate(zip(sources, targets)):
        assert sio[k] == sio_qubit_feasible(r, s).feasible
        assert pio[k] == pio_qubit_feasible(r, s).feasible

    # broadcasting: one source against a batch of targets
    batch = sio_feasible_mask(0.25, 0.1, dst_t2, dst_z)
    assert batch.shape == dst_t2.shape


def _every_point_mask(constraints, src_t2, src_z, dst_t2, dst_z):
    """The masks with every point broadcast through both constraint lists
    and picked by np.where, the reference for the per-side evaluation."""
    src_t2, src_z, dst_t2, dst_z = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (src_t2, src_z, dst_t2, dst_z)))
    degenerate = src_t2 <= feasibility.SLACK
    safe = np.where(degenerate, 1.0, src_t2)
    holds = [np.logical_and.reduce([lhs <= rhs + feasibility.SLACK
                                    for _, lhs, rhs
                                    in rows(safe, src_z, dst_t2, dst_z)])
             for rows in (feasibility._z_axis_constraints, constraints)]
    return np.where(degenerate, *holds)


@pytest.mark.parametrize("mask, constraints", [
    (sio_feasible_mask, feasibility._sio_constraints),
    (pio_feasible_mask, feasibility._pio_constraints),
])
def test_masks_give_the_every_point_verdicts(mask, constraints):
    # a scalar source or target, batches on both sides, and sources on the
    # z axis among them (t^2 = 0 and t^2 below the slack): the verdicts
    # are those of every point through both lists, bit for bit
    rng = np.random.default_rng(41)
    radius, angle = np.sqrt(rng.random(4000)), rng.uniform(0, 2 * np.pi, 4000)
    t2, z = (radius * np.cos(angle)) ** 2, radius * np.sin(angle)
    t2[::97], t2[1::89] = 0.0, 5e-11
    other = rng.permutation(4000)
    cases = [(s_t2, s_z, t2, z) for s_t2, s_z in
             ((0.25, 0.1), (0.0, 0.3), (4e-11, -0.2), (0.49, -0.7))]
    cases += [(t2, z, d_t2, d_z) for d_t2, d_z in ((0.04, 0.5), (0.0, -0.9))]
    cases += [(t2, z, t2[other], z[other]), (t2[:, None], z[:, None],
                                             t2[:5], z[:5])]
    for args in cases:
        got = mask(*args)
        assert got.dtype == bool
        assert np.array_equal(got, _every_point_mask(constraints, *args))
