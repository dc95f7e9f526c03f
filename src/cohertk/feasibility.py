"""Transformation-feasibility predicates.

Pure-state convertibility under the incoherent classes reduces to
majorization between the spectra that the one reader here takes off
each subject; single-qubit mixed-state convertibility under SIO/IC and
PIO reduces to closed inequality systems on Bloch triples.  All
predicates return a :class:`FeasibilityVerdict` carrying the tight or
violated constraints, and all inequality tests use an additive slack of
``1e-10`` so that boundary points of the closed feasibility regions
test feasible.

Each qubit criterion is written once, as a list of named inequalities.
The scalar qubit predicates read the tight and violated constraints off
that list, and the vectorized boolean kernels (`sio_feasible_mask`,
`pio_feasible_mask`) that back the Monte-Carlo volume oracle test the
same list on whole batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (PureState, QubitBloch, bloch_from_density,
                     dephased_spectrum, schmidt_spectrum, sorted_spectrum)

__all__ = [
    "FeasibilityVerdict",
    "LemmaNotApplicableError",
    "majorizes",
    "majorization_verdict",
    "ic_pure_feasible",
    "locc_pure_feasible",
    "licc_bipartite_feasible",
    "sio_qubit_feasible",
    "pio_qubit_feasible",
    "sio_feasible_mask",
    "pio_feasible_mask",
]

#: Additive slack on every feasibility inequality.
SLACK = 1e-10


class LemmaNotApplicableError(ValueError):
    """A feasibility criterion's precondition is not met.

    Distinct from an ordinary input error: the requested comparison is
    well-formed, but the closed-form criterion does not decide it.
    """


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility test plus constraint diagnostics.

    ``binding`` lists the constraints that are tight (within slack) when
    feasible, or the violated constraints when not; it is always
    nonempty for an infeasible verdict.
    """

    feasible: bool
    binding: tuple

    def __bool__(self) -> bool:
        return self.feasible


def _pad(vec: np.ndarray, length: int) -> np.ndarray:
    if vec.size == length:
        return vec
    out = np.zeros(length)
    out[:vec.size] = vec
    return out


def majorizes(y, x, slack: float = SLACK) -> bool:
    """True iff ``x`` is majorized by ``y`` (every partial sum of the
    sorted ``x`` is at most that of the sorted ``y``, totals equal).

    The shorter vector is zero-padded.  Raises ``ValueError`` when
    either input is not a normalized probability vector.
    """
    return majorization_verdict(y, x, slack=slack).feasible


def majorization_verdict(y, x, slack: float = SLACK) -> FeasibilityVerdict:
    """Constraint-level form of :func:`majorizes` (x majorized by y)."""
    xv = np.sort(np.asarray(x, dtype=float).ravel())[::-1]
    yv = np.sort(np.asarray(y, dtype=float).ravel())[::-1]
    for name, v in (("x", xv), ("y", yv)):
        if v.size == 0 or abs(v.sum() - 1.0) > 1e-8 or v.min() < -1e-8:
            raise ValueError(f"{name} is not a normalized probability vector")
    length = max(xv.size, yv.size)
    cx = np.cumsum(_pad(xv, length))
    cy = np.cumsum(_pad(yv, length))
    binding = []
    feasible = True
    for k in range(length):
        gap = cy[k] - cx[k]
        if gap < -slack:
            feasible = False
            binding.append(f"partial-sum {k + 1}: violated by {-gap:.3g}")
        elif gap <= slack:
            binding.append(f"partial-sum {k + 1}: tight")
    return FeasibilityVerdict(feasible, tuple(binding))


def ic_pure_feasible(psi: PureState, phi: PureState) -> FeasibilityVerdict:
    """Can ``psi`` be converted to ``phi`` deterministically by an
    incoherent (or strictly incoherent) channel?

    Holds iff the dephased spectrum of the *target* majorizes that of
    the source.
    """
    if psi.dim != phi.dim:
        raise ValueError("states live on different total dimensions")
    return majorization_verdict(
        *(_select_spectrum(s, "IC") for s in (phi, psi)))


def locc_pure_feasible(psi: PureState, phi: PureState, cut=None) -> FeasibilityVerdict:
    """Bipartite LOCC convertibility ``psi -> phi`` across ``cut``:
    the target's squared Schmidt vector must majorize the source's."""
    if psi.dims != phi.dims:
        raise ValueError("states have different party structures")
    s_psi = schmidt_spectrum(psi, cut).coefficients
    s_phi = schmidt_spectrum(phi, cut).coefficients
    return majorization_verdict(s_phi, s_psi)


def licc_bipartite_feasible(psi: PureState, phi: PureState,
                            cut=None) -> FeasibilityVerdict:
    """Convertibility ``psi -> phi`` under local incoherent operations
    and classical communication, for bipartite states whose reduced
    states are diagonal in the reference bases, split at ``cut``; any
    other state raises :class:`LemmaNotApplicableError`, since the
    criterion does not decide the instance."""
    if psi.dims != phi.dims:
        raise ValueError("states have different party structures")
    return majorization_verdict(
        *(_select_spectrum(s, "LICC", cut) for s in (phi, psi)))


#: The operation classes a subject is read under, each mapped to the
#: class whose qubit criterion, forms and regions it uses (qubit SIO and
#: IC admit the same state transformations; LICC and LSICC have none).
_QUBIT_FAMILY = {"PIO": "PIO", "SIO": "SIO", "IC": "SIO",
                 "LSICC": None, "LICC": None}


def _as_bloch(subject) -> QubitBloch:
    """The Bloch vector of a subject: a :class:`~cohertk.states.QubitBloch`
    itself, or the projector of a single-qubit pure state."""
    if isinstance(subject, QubitBloch):
        return subject
    if isinstance(subject, PureState) and subject.dims == (2,):
        return bloch_from_density(np.outer(subject.amps, subject.amps.conj()))
    raise ValueError("this operation needs a Bloch vector "
                     '({"bloch": [rx, ry, rz]}) or single-qubit state')


def _select_spectrum(subject, operation_class: str, cut=None) -> np.ndarray:
    """Sorted spectrum relevant to an operation class.

    A bare probability vector is the spectrum itself, for any known
    class but PIO.  For a :class:`~cohertk.states.PureState` it is the
    dephased populations under IC/SIO, or the Schmidt coefficients under
    LICC/LSICC, which need a bipartite state with diagonal reduced
    states and raise :class:`LemmaNotApplicableError` otherwise.
    ``operation_class`` must be upper case.
    """
    if isinstance(subject, QubitBloch):
        raise ValueError("this operation needs a state or spectrum, "
                         "not a Bloch vector")
    if operation_class not in _QUBIT_FAMILY:
        raise ValueError(f"unknown operation class {operation_class!r}")
    if operation_class == "PIO":
        # majorization alone does not govern pure-state PIO conversions
        subjects = "pure states" if isinstance(subject, PureState) else "spectra"
        raise ValueError(f"no spectrum rule for class 'PIO' on {subjects}")
    if not isinstance(subject, PureState):
        return sorted_spectrum(subject)
    if _QUBIT_FAMILY[operation_class] == "SIO":
        return dephased_spectrum(subject)
    if subject.n_parties != 2:
        raise LemmaNotApplicableError("LICC criteria need a bipartite state")
    data = schmidt_spectrum(subject, cut)
    if not (data.left_diagonal and data.right_diagonal):
        raise LemmaNotApplicableError(
            "a state has a non-diagonal reduced state; the "
            "Schmidt-majorization criterion does not apply")
    return data.coefficients


# Each qubit criterion is a list of inequalities (name, lhs, rhs), read
# lhs <= rhs, over the squared transverse radius and height of source
# and target, as floats or arrays.  The SIO and PIO lists assume the
# source is off the z axis; a source on the axis reaches exactly the axis.


def _z_axis_constraints(src_t2, src_z, dst_t2, dst_z):
    return (("degenerate-transverse", dst_t2, 0.0),)


def _sio_constraints(src_t2, src_z, dst_t2, dst_z):
    return (("transverse", dst_t2, src_t2),
            ("ellipse", (1.0 - src_z**2) * dst_t2 / src_t2 + dst_z**2, 1.0))


def _pio_constraints(src_t2, src_z, dst_t2, dst_z):
    scaled = dst_t2 / src_t2 * (1.0 - abs(src_z)) ** 2
    return (("transverse", dst_t2, src_t2),
            ("upper-cone", scaled, (1.0 - dst_z) ** 2),
            ("lower-cone", scaled, (1.0 + dst_z) ** 2))


def _qubit_verdict(constraints, r: QubitBloch, s: QubitBloch) -> FeasibilityVerdict:
    """Verdict of ``r -> s`` with its tight or violated constraints."""
    if r.transverse_sq <= SLACK:
        constraints = _z_axis_constraints
    gaps = [(name, rhs - lhs) for name, lhs, rhs in
            constraints(r.transverse_sq, r.r_z, s.transverse_sq, s.r_z)]
    binding = [f"{name}: violated by {-gap:.3g}" if gap < -SLACK
               else f"{name}: tight" for name, gap in gaps if gap <= SLACK]
    return FeasibilityVerdict(not any(gap < -SLACK for _, gap in gaps),
                              tuple(binding))


def _qubit_mask(constraints, src_t2, src_z, dst_t2, dst_z):
    """Where ``src -> dst`` holds under a constraint list (broadcast).
    The rows take the arguments as given, so a scalar side is worked out
    once; sources on the z axis then take the one z-axis row."""
    args = [np.asarray(a, dtype=float) for a in (src_t2, src_z, dst_t2, dst_z)]
    degenerate = args[0] <= SLACK
    if degenerate.any():
        args[0] = np.where(degenerate, 1.0, args[0])
    holds = np.ones(np.broadcast_shapes(*(a.shape for a in args)), dtype=bool)
    for _, lhs, rhs in constraints(*args):
        holds &= lhs <= rhs + SLACK
    if degenerate.any():
        (_, lhs, rhs), = _z_axis_constraints(*args)
        np.copyto(holds, lhs <= rhs + SLACK, where=degenerate)
    return holds


def sio_qubit_feasible(r: QubitBloch, s: QubitBloch) -> FeasibilityVerdict:
    """Single-qubit convertibility ``r -> s`` under strictly/plainly
    incoherent channels.

    Two inequalities: the transverse component cannot grow, and the
    target must lie inside the ellipse obtained by shrinking the unit
    disc's transverse axis by the source's transverse-to-purity ratio:

    * ``s_x^2 + s_y^2 <= r_x^2 + r_y^2``
    * ``(1 - r_z^2)(s_x^2 + s_y^2) + s_z^2 (r_x^2 + r_y^2)
      <= r_x^2 + r_y^2``

    A source on the z axis (no transverse part) can reach exactly the
    z axis.
    """
    return _qubit_verdict(_sio_constraints, r, s)


def pio_qubit_feasible(r: QubitBloch, s: QubitBloch) -> FeasibilityVerdict:
    """Single-qubit convertibility ``r -> s`` under the physical
    (projector-based) incoherent channels.

    The accessible set is the hexagon with vertices
    ``(+-t_r, +-|r_z|)`` and ``(0, +-1)`` in the transverse--z plane
    (``t_r = sqrt(r_x^2 + r_y^2)``), rotationally symmetric in the
    transverse plane:

    * ``s_x^2 + s_y^2 <= r_x^2 + r_y^2``
    * ``(s_x^2 + s_y^2)(1 - |r_z|)^2 <= (r_x^2 + r_y^2)(1 - s_z)^2``
    * ``(s_x^2 + s_y^2)(1 - |r_z|)^2 <= (r_x^2 + r_y^2)(1 + s_z)^2``

    The same degenerate z-axis rule as the SIO test applies.
    """
    return _qubit_verdict(_pio_constraints, r, s)


def sio_feasible_mask(src_t2, src_z, dst_t2, dst_z):
    """Vectorized boolean form of the SIO qubit criterion.

    All four arguments broadcast; returns the boolean array of
    "source (src) converts to target (dst)".  Used by the Monte-Carlo
    volume oracle, where either role may be the sampled batch.
    """
    return _qubit_mask(_sio_constraints, src_t2, src_z, dst_t2, dst_z)


def pio_feasible_mask(src_t2, src_z, dst_t2, dst_z):
    """Vectorized boolean form of the PIO qubit criterion (see
    :func:`pio_qubit_feasible`)."""
    return _qubit_mask(_pio_constraints, src_t2, src_z, dst_t2, dst_z)
