"""Tests for state containers, spectra, and Schmidt data."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk.states import (
    PureState,
    QubitBloch,
    bloch_from_density,
    concurrence_2qubit,
    dephased_spectrum,
    density_from_bloch,
    maximally_correlated_lift,
    product_term_count,
    schmidt_spectrum,
    sorted_spectrum,
)

RT = math.sqrt


def bell_state():
    return PureState((2, 2), [RT(0.5), 0, 0, RT(0.5)])


def test_pure_state_rescales_nearly_normalized_input():
    amps = np.array([RT(0.6), RT(0.4)]) * (1.0 + 3e-9)
    state = PureState((2,), amps)
    assert_allclose(np.vdot(state.amps, state.amps).real, 1.0, atol=1e-15)


def test_pure_state_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="not normalized"):
        PureState((2,), [1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        PureState((2,), [bad, 1.0])


def test_pure_state_validates_shape():
    with pytest.raises(ValueError, match="nonempty"):
        PureState((), [1.0])
    with pytest.raises(ValueError, match=">= 2"):
        PureState((1,), [1.0])
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        PureState((2, 2), [1.0, 0.0])


@pytest.mark.parametrize("amps", [[[1.0, 0.0]], [[[1.0], [0.0]]]],
                         ids=["matrix", "three-axis"])
def test_pure_state_rejects_amplitudes_that_are_not_a_vector(amps):
    with pytest.raises(ValueError, match="one-dimensional vector"):
        PureState((2,), amps)


def test_pure_state_structure():
    state = PureState((2, 3), [RT(0.5), 0, 0, 0, RT(0.5), 0])
    assert state.dim == 6
    assert state.n_parties == 2
    assert state.tensor().shape == (2, 3)
    assert state == PureState((2, 3), state.amps)
    assert state != PureState((6,), state.amps)
    # stored amplitudes are read-only
    with pytest.raises(ValueError):
        state.amps[0] = 0.0


def test_qubit_bloch_ball_membership():
    QubitBloch(0.6, 0.0, 0.8)  # pure boundary point is fine
    with pytest.raises(ValueError, match="outside the ball"):
        QubitBloch(0.8, 0.0, 0.7)


@pytest.mark.parametrize("triple", [(math.nan, 0.0, 0.2),
                                    (0.0, math.inf, 0.0),
                                    (0.0, 0.0, -math.inf)])
def test_qubit_bloch_rejects_non_finite_components(triple):
    with pytest.raises(ValueError, match="outside the ball"):
        QubitBloch(*triple)


def test_qubit_bloch_helpers():
    r = QubitBloch(0.3, 0.4, 0.5)
    assert_allclose(r.transverse_sq, 0.25)
    assert_allclose(r.radius_sq, 0.5)
    assert not r.is_pure()
    assert QubitBloch(0.6, 0.0, 0.8).is_pure()
    assert r.as_tuple() == (0.3, 0.4, 0.5)


def test_sorted_spectrum_canonicalizes():
    spec = sorted_spectrum([0.2, 0.5, 0.3])
    assert_allclose(spec, [0.5, 0.3, 0.2])
    # tiny negatives within tolerance are clipped to zero
    spec = sorted_spectrum([0.6, 0.4 + 1e-10, -1e-10])
    assert spec[-1] == 0.0
    with pytest.raises(ValueError, match="negative"):
        sorted_spectrum([0.9, 0.2, -0.1])
    with pytest.raises(ValueError, match="sums to"):
        sorted_spectrum([0.5, 0.4])
    with pytest.raises(ValueError, match="empty"):
        sorted_spectrum([])


@pytest.mark.parametrize("values", [[math.nan, 0.5, 0.5],
                                    [math.inf, 0.5],
                                    [math.inf, -math.inf, 1.0]])
def test_sorted_spectrum_rejects_non_finite_entries(values):
    with pytest.raises(ValueError):
        sorted_spectrum(values)


def test_dephased_spectrum_sorts_populations():
    state = PureState((2, 2), [RT(0.3), RT(0.5), RT(0.2), 0])
    assert_allclose(dephased_spectrum(state), [0.5, 0.3, 0.2, 0.0], atol=1e-15)


def test_schmidt_spectrum_bell_and_product():
    data = schmidt_spectrum(bell_state())
    assert_allclose(data.coefficients, [0.5, 0.5], atol=1e-12)
    assert data.left_diagonal and data.right_diagonal

    product = PureState((2, 2), [RT(0.5), RT(0.5), 0, 0])  # |0> x |+>
    data = schmidt_spectrum(product)
    assert_allclose(data.coefficients, [1.0, 0.0], atol=1e-12)
    assert data.left_diagonal
    assert not data.right_diagonal  # |+><+| has off-diagonal entries


def test_schmidt_spectrum_w_state_flags():
    w = PureState((2, 2, 2), np.array([0, 1, 1, 0, 1, 0, 0, 0]) / RT(3))
    data = schmidt_spectrum(w, cut=0)
    assert_allclose(data.coefficients, [2 / 3, 1 / 3], atol=1e-12)
    assert data.left_diagonal
    assert not data.right_diagonal


def test_schmidt_spectrum_cut_selection():
    ghz = PureState((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / RT(2))
    for cut in (None, 0, (0, 1), 2, (1,)):
        data = schmidt_spectrum(ghz, cut)
        assert_allclose(data.coefficients, [0.5, 0.5], atol=1e-12)
    with pytest.raises(ValueError, match="does not split"):
        schmidt_spectrum(ghz, (0, 1, 2))
    with pytest.raises(ValueError, match="does not split"):
        schmidt_spectrum(ghz, 5)
    with pytest.raises(ValueError, match="at least two parties"):
        schmidt_spectrum(PureState((2,), [1, 0]))


def test_product_term_count():
    assert product_term_count(bell_state()) == 2
    w = PureState((2, 2, 2), np.array([0, 1, 1, 0, 1, 0, 0, 0]) / RT(3))
    assert product_term_count(w) == 3
    # a generous tolerance erases small amplitudes
    skew = PureState((2,), [RT(1 - 1e-8), 1e-4])
    assert product_term_count(skew) == 2
    assert product_term_count(skew, tol=1e-3) == 1
    with pytest.raises(ValueError):
        product_term_count(skew, tol=-1.0)


def test_concurrence_2qubit():
    assert_allclose(concurrence_2qubit(bell_state()), 1.0, atol=1e-12)
    assert_allclose(concurrence_2qubit(PureState((2, 2), [1, 0, 0, 0])), 0.0)
    uniform = PureState((2, 2), [0.5, 0.5, 0.5, 0.5])
    assert_allclose(concurrence_2qubit(uniform), 0.0, atol=1e-12)
    with pytest.raises(ValueError, match=r"dims \(2, 2\)"):
        concurrence_2qubit(PureState((2,), [1, 0]))


def test_bloch_density_round_trip():
    points = [
        QubitBloch(0.0, 0.0, 0.0),
        QubitBloch(0.3, -0.4, 0.5),
        QubitBloch(0.6, 0.0, 0.8),
        QubitBloch(0.0, 0.0, -1.0),
    ]
    for r in points:
        back = bloch_from_density(density_from_bloch(r))
        assert_allclose(back.as_tuple(), r.as_tuple(), atol=1e-12)


def test_density_bloch_round_trip_random_densities():
    rng = np.random.default_rng(715)
    for g in rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2)):
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert_allclose(density_from_bloch(bloch_from_density(rho)), rho,
                        atol=1e-12)


def test_bloch_from_density_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        bloch_from_density([[0.6, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError, match="trace"):
        bloch_from_density([[0.6, 0.0], [0.0, 0.6]])
    with pytest.raises(ValueError, match="positive"):
        bloch_from_density([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(ValueError, match="2x2"):
        bloch_from_density(np.eye(3) / 3)


def test_maximally_correlated_lift():
    single = PureState((3,), [RT(0.5), RT(0.3), RT(0.2)])
    lifted = maximally_correlated_lift(single)
    assert lifted.dims == (3, 3)
    data = schmidt_spectrum(lifted)
    assert_allclose(data.coefficients, dephased_spectrum(single), atol=1e-12)
    assert data.left_diagonal and data.right_diagonal
    with pytest.raises(ValueError, match="single-party"):
        maximally_correlated_lift(bell_state())
