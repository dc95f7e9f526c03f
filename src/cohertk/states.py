"""Pure multipartite states, qubit Bloch vectors, and derived spectra.

Everything downstream (feasibility predicates, monotones, classifiers)
consumes the two canonical representations defined here:

* :class:`PureState` -- a complex amplitude vector over a fixed product
  basis, indexed row-major with the last party varying fastest.
* :class:`QubitBloch` -- a single-qubit mixed state as a real triple
  ``(r_x, r_y, r_z)`` in the Bloch ball.

The reference ("incoherent") basis is always the computational product
basis; nothing in this package ever rotates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PureState",
    "QubitBloch",
    "SchmidtData",
    "sorted_spectrum",
    "dephased_spectrum",
    "schmidt_spectrum",
    "product_term_count",
    "concurrence_2qubit",
    "bloch_from_density",
    "density_from_bloch",
    "maximally_correlated_lift",
]

#: Absolute tolerance on the state norm accepted by constructors/loaders.
NORM_ATOL = 1e-8

#: Default modulus threshold below which an amplitude counts as zero.
AMP_TOL = 1e-9


def _as_complex_vector(amps: Iterable) -> np.ndarray:
    vec = np.asarray(list(amps) if not isinstance(amps, np.ndarray) else amps,
                     dtype=complex)
    if vec.ndim != 1:
        raise ValueError("amplitudes must form a one-dimensional vector")
    return vec


@dataclass(frozen=True)
class PureState:
    """A normalized pure state on a tensor product of finite parties.

    Parameters
    ----------
    dims : sequence of int
        Local dimension of each party, every entry >= 2.
    amps : sequence of complex
        ``prod(dims)`` amplitudes in row-major order (last party fastest).

    Notes
    -----
    The constructor checks the squared norm against 1 within ``1e-8``
    and then rescales so the stored vector is normalized to machine
    precision.  Inputs that are further from normalized are rejected
    rather than silently rescaled; normalize before constructing.
    """

    dims: tuple
    amps: np.ndarray = field(repr=False)

    def __init__(self, dims: Sequence[int], amps: Iterable):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("dims must be nonempty")
        if any(d < 2 for d in dims):
            raise ValueError("every party dimension must be >= 2")
        vec = _as_complex_vector(amps)
        size = math.prod(dims)
        if vec.size != size:
            raise ValueError(
                f"expected {size} amplitudes for dims {dims}, got {vec.size}")
        norm2 = float(np.vdot(vec, vec).real)
        if not math.isfinite(norm2):
            raise ValueError("amplitudes must be finite")
        if abs(norm2 - 1.0) > 2 * NORM_ATOL + NORM_ATOL**2:
            raise ValueError(
                f"state not normalized: |psi|^2 = {norm2:.12g} "
                f"(tolerance {NORM_ATOL:g} on the norm)")
        vec = vec / math.sqrt(norm2)
        vec.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", vec)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.amps.size

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amps.reshape(self.dims)

    def __eq__(self, other) -> bool:  # exact structural equality
        return (isinstance(other, PureState) and self.dims == other.dims
                and np.array_equal(self.amps, other.amps))


@dataclass(frozen=True)
class QubitBloch:
    """Single-qubit state as the Bloch triple ``(r_x, r_y, r_z)``.

    The triple must lie in the closed Bloch ball (squared radius at most
    ``1 + 1e-10``).
    """

    r_x: float
    r_y: float
    r_z: float

    def __post_init__(self):
        r2 = self.r_x**2 + self.r_y**2 + self.r_z**2
        if not r2 <= 1.0 + 1e-10:
            raise ValueError(f"Bloch vector outside the ball: |r|^2 = {r2:.12g}")

    @property
    def transverse_sq(self) -> float:
        """Squared transverse component r_x**2 + r_y**2 (coherence weight)."""
        return self.r_x**2 + self.r_y**2

    @property
    def radius_sq(self) -> float:
        return self.transverse_sq + self.r_z**2

    def is_pure(self, atol: float = 1e-12) -> bool:
        return abs(self.radius_sq - 1.0) <= atol

    def as_tuple(self) -> tuple:
        return (self.r_x, self.r_y, self.r_z)


def sorted_spectrum(values: Iterable, atol: float = 1e-8) -> np.ndarray:
    """Validate and canonicalize a probability spectrum.

    Sorts nonincreasing, clips negatives within ``-atol`` to zero, and
    checks the total against 1.  Returns a read-only float array.
    """
    vec = np.asarray(list(values) if not isinstance(values, np.ndarray)
                     else values, dtype=float).ravel()
    if vec.size == 0:
        raise ValueError("empty spectrum")
    if np.any(vec < -atol):
        raise ValueError("spectrum has a negative entry")
    total = float(vec.sum())
    if not abs(total - 1.0) <= atol:
        raise ValueError(f"spectrum sums to {total:.12g}, expected 1")
    vec = np.clip(vec, 0.0, None)
    vec = np.sort(vec)[::-1].copy()
    vec.setflags(write=False)
    return vec


def dephased_spectrum(state: PureState) -> np.ndarray:
    """Sorted populations ``|amps_k|**2`` of a pure state.

    This is the spectrum of the state after erasing all off-diagonal
    entries in the reference basis.
    """
    probs = np.abs(state.amps) ** 2
    out = np.sort(probs)[::-1].copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SchmidtData:
    """Squared Schmidt coefficients across a bipartition, plus basis flags.

    ``left_diagonal`` / ``right_diagonal`` record whether the reduced
    state of each side is diagonal in the reference product basis
    (off-diagonal magnitudes below ``1e-9``).  Several feasibility
    lemmas only apply when both flags are true.
    """

    coefficients: np.ndarray
    left_diagonal: bool
    right_diagonal: bool


def _normalize_cut(state: PureState, cut) -> tuple:
    n = state.n_parties
    if cut is None:
        left = (0,)
    elif isinstance(cut, int):
        left = (cut,)
    else:
        left = tuple(sorted(set(int(k) for k in cut)))
    if not left or any(k < 0 or k >= n for k in left) or len(left) >= n:
        raise ValueError(f"cut {cut!r} does not split {n} parties in two")
    right = tuple(k for k in range(n) if k not in left)
    return left, right


def schmidt_spectrum(state: PureState, cut=None) -> SchmidtData:
    """Squared Schmidt coefficients of ``state`` across a bipartition.

    Parameters
    ----------
    state : PureState
        A state with at least two parties.
    cut : int, iterable of int, or None
        Party indices forming the left side; ``None`` means party 0
        against the rest.

    Returns
    -------
    SchmidtData
        Sorted squared Schmidt coefficients (length = smaller side) and
        diagonality flags for the two reduced states.
    """
    if state.n_parties < 2:
        raise ValueError("need at least two parties for a Schmidt cut")
    left, right = _normalize_cut(state, cut)
    tensor = state.tensor().transpose(left + right)
    d_left = math.prod(state.dims[k] for k in left)
    d_right = math.prod(state.dims[k] for k in right)
    mat = tensor.reshape(d_left, d_right)

    rho_left = mat @ mat.conj().T
    rho_right = mat.conj().T @ mat
    small = rho_left if d_left <= d_right else rho_right
    eigs = np.linalg.eigvalsh(small)
    eigs = np.clip(eigs, 0.0, None)
    coeffs = np.sort(eigs)[::-1].copy()
    total = coeffs.sum()
    if total > 0:
        coeffs /= total
    coeffs.setflags(write=False)

    def _diag(rho):
        off = rho - np.diag(np.diag(rho))
        return bool(np.max(np.abs(off)) <= 1e-9) if rho.size > 1 else True

    return SchmidtData(coefficients=coeffs,
                       left_diagonal=_diag(rho_left),
                       right_diagonal=_diag(rho_right))


def product_term_count(state: PureState, tol: float = AMP_TOL) -> int:
    """Number of basis amplitudes with modulus above ``tol``.

    This count cannot increase along any branch of a strictly/plainly
    incoherent channel, which makes it the basic stochastic-conversion
    obstruction used by the two-qubit classifier.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return int(np.count_nonzero(np.abs(state.amps) > tol))


def concurrence_2qubit(state: PureState) -> float:
    """Entanglement concurrence ``2|ad - bc|`` of a two-qubit pure state."""
    if state.dims != (2, 2):
        raise ValueError("concurrence_2qubit needs dims (2, 2)")
    a, b, c, d = state.amps
    return float(2.0 * abs(a * d - b * c))


def bloch_from_density(rho) -> QubitBloch:
    """Bloch triple of a 2x2 density matrix.

    Raises
    ------
    ValueError
        If the matrix is not Hermitian/unit-trace/positive within 1e-9.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-9:
        raise ValueError("matrix is not Hermitian")
    if abs(mat[0, 0].real + mat[1, 1].real - 1.0) > 1e-9:
        raise ValueError("matrix trace is not 1")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -1e-9:
        raise ValueError("matrix is not positive semidefinite")
    return QubitBloch(r_x=float(2.0 * mat[0, 1].real),
                      r_y=float(-2.0 * mat[0, 1].imag),
                      r_z=float(mat[0, 0].real - mat[1, 1].real))


def density_from_bloch(r: QubitBloch) -> np.ndarray:
    """2x2 density matrix of a Bloch triple (inverse of bloch_from_density)."""
    x, y, z = r.r_x, r.r_y, r.r_z
    return 0.5 * np.array([[1.0 + z, x - 1j * y],
                           [x + 1j * y, 1.0 - z]], dtype=complex)


def maximally_correlated_lift(state: PureState) -> PureState:
    """Lift a single-party state ``sum_i c_i |i>`` to ``sum_i c_i |ii>``.

    The lifted state's Schmidt spectrum equals the original state's
    dephased spectrum, which ties the single-party and bipartite
    monotone computations together.
    """
    if state.n_parties != 1:
        raise ValueError("lift expects a single-party state")
    d = state.dims[0]
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * d + np.arange(d)] = state.amps
    return PureState((d, d), amps)
