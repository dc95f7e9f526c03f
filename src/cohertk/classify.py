"""Equivalence deciders and canonical forms for stochastic local
incoherent classification.

Two pure states are *locally incoherent-unitarily* (LIU) equivalent when
some tensor product of permutation-with-phases unitaries maps one to the
other; for local incoherent protocols with classical communication this
already decides deterministic equivalence.  For the stochastic theory on
two qubits the classification is complete: the number of nonzero basis
amplitudes ``R`` splits states into ranks, ranks 2 and 3 split by
support pattern, and rank 4 carries the complex invariant
``r = ad / (bc)`` identified up to inversion, with the one-parameter
canonical family ``alpha (|00> + |01> + |10>) + beta |11>``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import IncoherentChannel, LocalChannelProduct, _apply_on_axis
from .states import AMP_TOL, PureState

__all__ = [
    "SliccClass",
    "LiuWitness",
    "TemplateWitness",
    "liu_equivalent",
    "slicc_class_2qubit",
    "slicc_equivalent_2qubit",
    "canonical_form_r4",
    "witness_templates_r4",
    "verify_slicc_witness",
]

#: Cap on the signature-compatible permutation tuples of liu_equivalent.
SEARCH_CAP = 10**6

#: Global-phase-adjusted fidelity threshold for witness verification.
FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class LiuWitness:
    """Per-party permutations and phases realizing an LIU equivalence.

    Party ``k`` applies ``U_k = sum_i exp(1j * phases[k][i])
    |permutations[k][i]><i|``.
    """

    permutations: tuple
    phases: tuple

    def unitaries(self) -> list:
        out = []
        for perm, phase in zip(self.permutations, self.phases):
            d = len(perm)
            mat = np.zeros((d, d), dtype=complex)
            for i in range(d):
                mat[perm[i], i] = np.exp(1j * phase[i])
            out.append(mat)
        return out

    def as_channels(self) -> LocalChannelProduct:
        return LocalChannelProduct([IncoherentChannel("IU", [u])
                                    for u in self.unitaries()])

    def apply(self, state: PureState) -> PureState:
        tensor = state.tensor()[None]
        for k, u in enumerate(self.unitaries()):
            tensor = _apply_on_axis(u[None], tensor, k)
        return PureState(state.dims, tensor.reshape(-1))


def _permuted_flat_index(dims, perms) -> np.ndarray:
    """Flat index array F with F[i] = flat(perm applied to multi-index i)."""
    grid = np.arange(int(np.prod(dims))).reshape(dims)
    return grid[np.ix_(*[np.asarray(p) for p in perms])].ravel()


def _solve_torus(rows, rhs, n, tol=1e-6):
    """Solve an integer linear system ``M x = rhs (mod 2 pi)``.

    ``rows`` is a list of integer coefficient vectors.  Gaussian
    elimination over the integers (keeping coefficients integral) makes
    the mod-2pi consistency of dependent equations checkable; plain
    phase propagation is not sound here because amplitude supports can
    carry affine relations among the unknowns.

    Returns a particular solution array or ``None`` when inconsistent.
    """
    two_pi = 2.0 * math.pi
    work = [(list(row), float(b)) for row, b in zip(rows, rhs)]
    pivots = []  # (column, coeffs, rhs)
    for col in range(n):
        # repeatedly reduce until at most one active row hits this column
        while True:
            active = [i for i, (row, _) in enumerate(work) if row[col] != 0]
            if not active:
                break
            if len(active) == 1:
                row, b = work.pop(active[0])
                pivots.append((col, row, b))
                break
            active.sort(key=lambda i: abs(work[i][0][col]))
            base_row, base_rhs = work[active[0]]
            coef = base_row[col]
            for i in active[1:]:
                row, b = work[i]
                q = row[col] // coef
                if q:
                    new_row = [x - q * y for x, y in zip(row, base_row)]
                    work[i] = (new_row, b - q * base_rhs)
    for row, b in work:
        if any(row):
            raise AssertionError("elimination left a nonzero row")
        wrapped = (b + math.pi) % two_pi - math.pi
        if abs(wrapped) > tol:
            return None

    # Back-substitute.  A pivot coefficient m with |m| > 1 leaves |m|
    # branches x = (resid + 2 pi ell) / m, but the first (ell = 0) always
    # suffices: every echelon row is an integer combination of the
    # original rows and vice versa (elimination used only unimodular
    # integer row operations), so any x that satisfies the echelon rows
    # mod 2 pi satisfies the original rows mod 2 pi.  Free columns stay 0.
    x = np.zeros(n)
    for col, row, b in reversed(pivots):
        resid = b - sum(row[j] * x[j] for j in range(col + 1, n) if row[j])
        x[col] = resid / row[col]
    residual = np.array(rows, dtype=float) @ x - np.asarray(rhs, dtype=float)
    wrapped = (residual + math.pi) % two_pi - math.pi
    return x if np.max(np.abs(wrapped)) <= tol else None


def _slice_compatibility(mod_psi, mod_phi, dims) -> list:
    """Per party, a boolean matrix whose entry (i, j) says whether index
    i of psi may map to index j of phi.

    It may only if the sorted moduli of the two slices agree as the full
    modulus test does (``np.isclose``, ``atol=1e-8``, phi against psi).
    That test bounds each phi modulus between two increasing functions
    of its psi partner, and sorting both sides keeps such bounds, so no
    tuple that passes the full test is ruled out.
    """
    tensor_psi, tensor_phi = mod_psi.reshape(dims), mod_phi.reshape(dims)
    out = []
    for k, d in enumerate(dims):
        sig_psi = np.sort(np.moveaxis(tensor_psi, k, 0).reshape(d, -1))
        sig_phi = np.sort(np.moveaxis(tensor_phi, k, 0).reshape(d, -1))
        out.append(np.isclose(sig_phi[None], sig_psi[:, None],
                              atol=1e-8).all(axis=2))
    return out


def _matching_bound(allowed) -> int:
    """Upper bound on the number of permutations p with
    ``allowed[i, p[i]]`` for every i; exact when the signatures fall
    into classes.

    Indices and images linked by allowed entries form connected
    components.  A permutation maps each component's indices onto its
    images, so none exists when a component has more of one than of the
    other (the bound is then 0), and a component of size c allows at
    most c! ways.  With classes, the components are the classes and
    every bijection within one is allowed.
    """
    unseen, bound = np.ones(len(allowed), dtype=bool), 1
    while unseen.any():
        rows = np.zeros_like(unseen)
        rows[np.argmax(unseen)] = True
        while True:
            cols = allowed[rows].any(axis=0)
            grown = rows | allowed[:, cols].any(axis=1)
            if (grown == rows).all():
                break
            rows = grown
        if rows.sum() != cols.sum():
            return 0
        bound *= math.factorial(int(rows.sum()))
        unseen &= ~rows
    return bound


def _compatible_permutations(allowed):
    """Yield, in lexicographic order, the permutations p with
    ``allowed[i, p[i]]`` for every i."""
    images = [np.flatnonzero(row).tolist() for row in allowed]
    perm, used = [0] * len(images), set()

    def extend(i):
        if i == len(images):
            yield tuple(perm)
            return
        for j in images[i]:
            if j not in used:
                used.add(j)
                perm[i] = j
                yield from extend(i + 1)
                used.discard(j)

    return extend(0)


def liu_equivalent(psi: PureState, phi: PureState, tol: float = AMP_TOL):
    """Search for a local permutation-with-phases map from psi to phi.

    Index i of party k may map to index j only if the sorted moduli of
    the two slices agree.  The tuples of per-party permutations that
    respect this are tried in the order of the exhaustive search, so the
    first witness is the same.  Their number is bounded before the
    search: a bound of 0 answers ``None`` at once, one above
    ``SEARCH_CAP`` raises.  Each tuple matches the amplitude-modulus
    pattern first and then solves the phase constraints exactly on the
    torus.  Every candidate is verified by application before being
    returned, at global-phase-adjusted fidelity ``1 - 1e-9``.

    Returns a :class:`LiuWitness`, or ``None`` when no witness exists;
    since deterministic local incoherent interconversion of pure states
    forces such a relabeling map, ``None`` also rules that out.
    """
    if psi.dims != phi.dims:
        raise ValueError("states have different party structures")
    mod_psi = np.abs(psi.amps)
    mod_phi = np.abs(phi.amps)
    if not np.allclose(np.sort(mod_psi), np.sort(mod_phi), atol=1e-8):
        return None
    dims = psi.dims
    allowed = _slice_compatibility(mod_psi, mod_phi, dims)
    space = math.prod(_matching_bound(a) for a in allowed)
    if space == 0:
        return None
    if space > SEARCH_CAP:
        raise ValueError(f"permutation search space {space} exceeds cap "
                         f"{SEARCH_CAP}")

    support = np.flatnonzero(mod_psi > tol)
    n_unknowns = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)[:-1]])
    multi = np.array(np.unravel_index(support, dims)).T  # (m, parties)
    rows = []
    for idx in multi:
        row = [0] * n_unknowns
        for k, i_k in enumerate(idx):
            row[offsets[k] + i_k] = 1
        rows.append(row)
    source_arg = np.angle(psi.amps[support])

    compatible = map(_compatible_permutations, allowed)
    for perms in itertools.product(*compatible):
        flat = _permuted_flat_index(dims, perms)
        if not np.allclose(mod_phi[flat], mod_psi, atol=1e-8):
            continue
        target_arg = np.angle(phi.amps[flat[support]])
        solution = _solve_torus(rows, target_arg - source_arg, n_unknowns)
        if solution is None:
            continue
        witness = LiuWitness(
            permutations=tuple(tuple(p) for p in perms),
            phases=tuple(tuple(solution[offsets[k]:offsets[k] + dims[k]])
                         for k in range(len(dims))))
        image = witness.apply(psi)
        if abs(np.vdot(phi.amps, image.amps)) >= 1.0 - FIDELITY_TOL:
            return witness
    return None


# ---------------------------------------------------------------------------
# two-qubit stochastic classification


@dataclass(frozen=True)
class SliccClass:
    """Classification label of a two-qubit pure state.

    ``support_pattern`` is the occupied-index set canonicalized over the
    four local bit swaps.  ``invariant_r`` is present only at rank 4 and
    holds the representative of the unordered pair ``{r, 1/r}`` with
    modulus >= 1 (ties broken toward nonnegative imaginary part); the
    ``invariant_pair`` property exposes both members.
    """

    rank: int
    subclass: str
    support_pattern: tuple
    invariant_r: complex = None

    @property
    def invariant_pair(self):
        if self.invariant_r is None:
            return None
        return (self.invariant_r, 1.0 / self.invariant_r)


def _canonical_invariant(r: complex) -> complex:
    mod = abs(r)
    if abs(mod - 1.0) <= 1e-12:
        return r if r.imag >= 0 else 1.0 / r
    return r if mod > 1.0 else 1.0 / r


_SWAPS = (0, 1, 2, 3)  # xor masks: identity, flip B, flip A, flip both


def _canonical_support(support) -> tuple:
    return min(tuple(sorted(i ^ mask for i in support)) for mask in _SWAPS)


def _rank4_invariant(amps) -> complex:
    """The invariant ``r = ad/(bc)`` of full-support amplitudes."""
    a, b, c, d = amps
    return complex((a * d) / (b * c))


def slicc_class_2qubit(state: PureState, tol: float = AMP_TOL) -> SliccClass:
    """Classify a two-qubit pure state under stochastic local incoherent
    protocols.

    Rank 1 states form one class; rank 2 splits into same-row,
    same-column and diagonal supports; all rank-3 supports are locally
    interchangeable and form a single class; rank-4 classes are labeled
    by ``r = ad/(bc)`` up to inversion.
    """
    if state.dims != (2, 2):
        raise ValueError("slicc_class_2qubit needs dims (2, 2)")
    amps = state.amps
    support = tuple(int(i) for i in np.flatnonzero(np.abs(amps) > tol))
    rank = len(support)
    pattern = _canonical_support(support)
    if rank == 1:
        return SliccClass(1, "point", pattern)
    if rank == 2:
        i, j = support
        differ = i ^ j
        subclass = {1: "row", 2: "column", 3: "diagonal"}[differ]
        return SliccClass(2, subclass, pattern)
    if rank == 3:
        return SliccClass(3, "triangle", pattern)
    return SliccClass(4, "generic", pattern,
                      _canonical_invariant(_rank4_invariant(amps)))


def _invariants_close(p: complex, q: complex, tol: float) -> bool:
    scale = max(1.0, abs(p), abs(q))
    return abs(p - q) <= tol * scale


def _same_class(first: SliccClass, second: SliccClass,
                tol: float = 1e-8) -> bool:
    """Rank and subclass must agree; at rank 4 the invariants must match
    as the unordered pair ``{r, 1/r}`` within relative tolerance."""
    if (first.rank, first.subclass) != (second.rank, second.subclass):
        return False
    if first.rank != 4:
        return True
    p, q = first.invariant_r, second.invariant_r
    return (_invariants_close(p, q, tol)
            or _invariants_close(p, 1.0 / q, tol))


def slicc_equivalent_2qubit(psi: PureState, phi: PureState,
                            tol: float = 1e-8) -> bool:
    """Same stochastic-local-incoherent class?  Compares the two
    :func:`slicc_class_2qubit` labels."""
    return _same_class(slicc_class_2qubit(psi), slicc_class_2qubit(phi), tol)


def _sio_instrument(mat) -> IncoherentChannel:
    """Wrap one permutation-sparse operator as a two-outcome channel.

    The operator is rescaled to have largest coefficient modulus 1 and
    completed by the diagonal square root of what remains; outcome 0 is
    the wrapped operator.
    """
    mat = np.asarray(mat, dtype=complex)
    hot = mat != 0
    if (not hot.any() or (hot.sum(axis=0) > 1).any()
            or (hot.sum(axis=1) > 1).any()):
        raise ValueError("witness operators must be nonzero and "
                         "permutation-sparse")
    modulus = np.abs(mat)
    scale = modulus.max()
    # one entry per column at most, so each column sum is a single weight;
    # the largest is exactly 1 and leaves no completion entry
    leftover = np.sqrt(np.clip(1.0 - ((modulus / scale) ** 2).sum(axis=0),
                               0.0, None))
    kraus = [mat / scale]
    if leftover.any():
        kraus.append(np.diag(leftover))
    return IncoherentChannel("SIO", kraus)


def _canonical_parameters(invariant: complex):
    """``(alpha, beta)`` of the canonical state
    ``alpha (|00> + |01> + |10>) + beta |11>`` with
    ``3 alpha^2 + |beta|^2 = 1``, ``alpha`` real positive and
    ``beta = invariant * alpha``."""
    alpha = 1.0 / math.sqrt(3.0 + abs(invariant) ** 2)
    return alpha, invariant * alpha


@dataclass(frozen=True)
class TemplateWitness:
    """One of the four local operator templates for rank-4 states.

    Applying ``product`` and selecting the (0, 0) branch yields the
    canonical state of ``invariant`` (which is ``r`` for the two
    diagonal-diagonal/antidiagonal-antidiagonal templates and ``1/r``
    for the two mixed ones).
    """

    name: str
    product: LocalChannelProduct
    invariant: complex
    alpha: float
    beta: complex


def _templates_r4(state: PureState):
    """Yield the four rank-4 templates, diagonal-diagonal first, each
    built only when asked for."""
    if slicc_class_2qubit(state).rank != 4:
        raise ValueError("witness templates exist only for rank-4 states")
    a, b, c, d = state.amps
    r = _rank4_invariant(state.amps)

    def template(name, mat_a, mat_b, invariant):
        product = LocalChannelProduct(
            [_sio_instrument(mat_a), _sio_instrument(mat_b)])
        return TemplateWitness(name, product, invariant,
                               *_canonical_parameters(invariant))

    alpha, beta = _canonical_parameters(r)
    yield template("diag-diag", [[alpha / (b * beta), 0], [0, 1.0 / d]],
                   [[d * alpha / c, 0], [0, beta]], r)
    alpha_inv, _ = _canonical_parameters(1.0 / r)
    yield template("diag-antidiag", [[alpha_inv / b, 0], [0, alpha_inv / d]],
                   [[0, 1.0], [b / a, 0]], 1.0 / r)
    yield template("antidiag-diag", [[0, 1.0], [c / a, 0]],
                   [[alpha_inv / c, 0], [0, alpha_inv / d]], 1.0 / r)
    yield template("antidiag-antidiag", [[0, alpha / d], [alpha / b, 0]],
                   [[0, 1.0], [d / c, 0]], r)


def witness_templates_r4(state: PureState) -> list:
    """All four local operator templates mapping a rank-4 two-qubit
    state onto a canonical representative.

    Diagonal operators keep the support in place; antidiagonal ones
    swap a local bit, which inverts the invariant.  Each template is a
    :class:`TemplateWitness` whose product, applied via
    :func:`cohertk.channels.local_product_apply`, has its (0, 0) branch
    exactly equal to the canonical state of ``invariant``.
    """
    return list(_templates_r4(state))


def canonical_form_r4(state: PureState) -> TemplateWitness:
    """Canonical representative of a rank-4 two-qubit state.

    Returns the diagonal-diagonal :class:`TemplateWitness`: ``alpha``
    (real positive), ``beta`` with ``beta/alpha = invariant = ad/(bc)``,
    and the witness pair ``product`` whose (0, 0) branch is exactly the
    canonical state.
    """
    return next(_templates_r4(state))


def canonical_state(alpha: float, beta: complex) -> PureState:
    """The state ``alpha (|00> + |01> + |10>) + beta |11>``."""
    return PureState((2, 2), [alpha, alpha, alpha, beta])


def verify_slicc_witness(psi: PureState, phi: PureState, ops) -> bool:
    """Check that a local operator tuple stochastically maps psi onto
    phi and back.

    ``ops`` may be a :class:`LocalChannelProduct` (outcome-0 operators
    are taken as the witness) or a plain sequence of dense per-party
    matrices.  Each operator must be an invertible permutation-sparse
    matrix; the forward image must be proportional to ``phi`` and the
    inverse image of ``phi`` proportional to ``psi`` within
    global-phase-adjusted fidelity ``1 - 1e-9``.
    """
    mats = ([ch.matrices[0] for ch in ops.channels]
            if isinstance(ops, LocalChannelProduct)
            else [np.asarray(op, dtype=complex) for op in ops])
    if len(mats) != psi.n_parties or psi.dims != phi.dims:
        raise ValueError("operator count does not match the party structure")
    forward, backward = psi.tensor()[None], phi.tensor()[None]
    for k, mat in enumerate(mats):
        if mat.shape != (psi.dims[k],) * 2:
            raise ValueError(f"operator {k} has wrong dimension")
        hot = mat != 0
        if not ((hot.sum(axis=0) == 1).all() and (hot.sum(axis=1) == 1).all()):
            raise ValueError(f"operator {k} is not invertible permutation-sparse")
        # a permutation with weights inverts entry by entry
        inverse = np.divide(1.0, mat, out=np.zeros_like(mat), where=hot).T
        forward = _apply_on_axis(mat[None], forward, k)
        backward = _apply_on_axis(inverse[None], backward, k)
    forward, backward = forward.reshape(-1), backward.reshape(-1)
    norm_f = np.linalg.norm(forward)
    if norm_f <= FIDELITY_TOL:
        return False
    if abs(np.vdot(phi.amps, forward)) / norm_f < 1.0 - FIDELITY_TOL:
        return False
    norm_b = np.linalg.norm(backward)
    if norm_b <= FIDELITY_TOL:
        return False
    return bool(abs(np.vdot(psi.amps, backward)) / norm_b >= 1.0 - FIDELITY_TOL)
