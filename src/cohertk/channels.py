"""Incoherent Kraus channels: construction, validation, sampling, application.

Four nested channel classes are distinguished by the sparsity pattern of
their Kraus operators ``K_n = sum_i c_n(i) |j_n(i)><i|`` (at most one
entry per source column ``i``):

``IU``
    A single permutation-with-phases unitary.
``PIO``
    Each Kraus operator acts as a permutation-with-phases on one cell of
    a partition of the basis (unimodular coefficients, each source index
    covered by exactly one operator).
``SIO``
    Every Kraus operator is permutation-sparse: at most one entry per
    row *and* per column.
``IC``
    Only the per-column sparsity is required.

The inclusion chain is IU < PIO < SIO < IC; :func:`validate_class`
returns the strongest label that applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .states import PureState, QubitBloch, bloch_from_density, density_from_bloch

__all__ = [
    "IncoherentChannel",
    "LocalChannelProduct",
    "LocalBranch",
    "validate_class",
    "apply_to_pure",
    "apply_to_density",
    "random_channel",
    "local_product_apply",
]

#: Frobenius tolerance on the completeness relation sum K^dag K = I.
COMPLETENESS_TOL = 1e-9

#: Branches with probability below this are pruned from ensembles.
BRANCH_PRUNE = 1e-12

_CLASSES = ("IU", "PIO", "SIO", "IC")
_CLASS_ORDER = {tag: order for order, tag in enumerate(_CLASSES)}


def _kraus_array(ops) -> np.ndarray:
    """A Kraus set of dense square matrices as one ``(n_kraus, dim, dim)``
    complex array."""
    mats = [np.asarray(op, dtype=complex) for op in ops]
    if not mats:
        raise ValueError("empty Kraus list")
    if any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in mats):
        raise ValueError("expected a square matrix")
    if len({m.shape for m in mats}) != 1:
        raise ValueError("Kraus operators have inconsistent dimensions")
    if mats[0].shape[0] < 1:
        raise ValueError("dim must be positive")
    return np.stack(mats)


def _check_kraus(kraus, class_tag: str = "IC", counts=None) -> np.ndarray:
    """Strongest class (an index into ``_CLASSES``) of each Kraus set in
    a ``(count, n_kraus, dim, dim)`` stack, zero past ``counts[c]``
    operators in set ``c``.  Raises ``ValueError`` unless every set is
    complete (Frobenius defect below ``1e-9``), column sparse, and at
    least as strong as ``class_tag``."""
    n_kraus, dim = kraus.shape[1], kraus.shape[-1]
    counts = np.reshape(n_kraus if counts is None else counts, (-1, 1))
    hot = kraus != 0
    column = hot.sum(axis=2)
    if (column > 1).any():
        raise ValueError("a column has two nonzero entries: "
                         "not an incoherent operator")
    rows = kraus.reshape(len(kraus), -1, dim)  # gram: sum_n K_n^dag K_n
    with np.errstate(invalid="ignore", over="ignore"):  # inf: defect nan
        gram = rows.conj().transpose(0, 2, 1) @ rows
    defect = np.linalg.norm(gram - np.eye(dim), axis=(1, 2))
    complete = defect < COMPLETENESS_TOL
    if not complete.all():
        raise ValueError("completeness violated: |sum K^dag K - I| = "
                         f"{defect[~complete][0]:.3g}")
    # SIO: at most one entry per row of every operator.  PIO: also
    # unimodular entries, no empty operator (but padding), and every
    # source covered by exactly one operator.  IU: PIO with one operator.
    sio = (hot.sum(axis=3) <= 1).all(axis=(1, 2))
    unimodular = (~hot | (np.abs(np.abs(kraus) - 1.0) <= COMPLETENESS_TOL)
                  ).all(axis=(1, 2, 3))
    nonempty = (column.any(axis=2) | (np.arange(n_kraus) >= counts)).all(1)
    partition = (column.sum(axis=1) == 1).all(axis=1)
    pio = sio & unimodular & nonempty & partition
    strongest = np.where(pio, counts[:, 0] != 1, np.where(sio, 2, 3))
    weaker = strongest > _CLASS_ORDER[class_tag]
    if weaker.any():
        raise ValueError(
            f"Kraus structure is only {_CLASSES[strongest[weaker][0]]}, "
            f"weaker than the declared tag {class_tag}")
    return strongest


def validate_class(channel_or_kraus) -> str:
    """Return the strongest class label a Kraus set satisfies.

    Accepts an :class:`IncoherentChannel` or a sequence of dense square
    matrices.  Checks the completeness relation (Frobenius norm below
    ``1e-9``) and the column sparsity, then reports the first of ``IU``,
    ``PIO``, ``SIO``, ``IC`` whose structural conditions hold.

    Raises
    ------
    ValueError
        On a completeness violation or a non-incoherent column pattern.
    """
    if isinstance(channel_or_kraus, IncoherentChannel):
        kraus = channel_or_kraus.matrices
    else:
        kraus = _kraus_array(channel_or_kraus)
    return _CLASSES[_check_kraus(kraus[None])[0]]


@dataclass(frozen=True, eq=False)
class IncoherentChannel:
    """A complete set of incoherent Kraus operators with a class tag.

    The constructor verifies completeness and that the declared
    ``class_tag`` is consistent with the structure: the strongest label
    found by :func:`validate_class` must be at least as strong as the
    tag (a permutation unitary may be tagged SIO, but a merely-IC Kraus
    set may not).

    ``kraus`` is a sequence of dense square matrices (or one
    ``(n_kraus, dim, dim)`` array).  The checked operators are stored
    once, as the read-only dense array ``matrices``.  Channels compare
    by identity.
    """

    class_tag: str
    matrices: np.ndarray = field(repr=False)

    def __init__(self, class_tag: str, kraus):
        class_tag = str(class_tag).upper()
        if class_tag not in _CLASS_ORDER:
            raise ValueError(f"unknown class tag {class_tag!r}")
        matrices = _kraus_array(kraus)
        _check_kraus(matrices[None], class_tag)
        matrices.setflags(write=False)
        object.__setattr__(self, "class_tag", class_tag)
        object.__setattr__(self, "matrices", matrices)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]


def _apply_kraus(kraus, states):
    """Apply a ``(count, n_kraus, dim, dim)`` stack of Kraus sets, one
    state per set.  Densities ``(count, dim, dim)`` give
    ``sum_n K_n rho K_n^dag``, checked for trace (``1e-10``) and
    positivity (``1e-9``).  Amplitudes ``(count, dim)`` give
    ``(probs, branches, kept)``: probabilities ``|K_n psi|^2`` pruned
    below ``1e-12`` and renormalized, and normalized branches (rows not
    ``kept`` are meaningless)."""
    if states.ndim == 3:
        # K rho first, then the sum over operators: n d^3, not n d^4
        out = np.einsum("cnik,cnlk->cil",
                        np.einsum("cnij,cjk->cnik", kraus, states), kraus.conj())
        drift = np.abs(np.trace(out, axis1=1, axis2=2).real
                       - np.trace(states, axis1=1, axis2=2).real)
        if not (drift <= 1e-10).all():
            raise ValueError("channel did not preserve the trace")
        if not (np.linalg.eigvalsh(out).min(axis=1) >= -1e-9).all():
            raise ValueError("channel output is not positive semidefinite")
        return out
    out = np.einsum("cnij,cj->cni", kraus, states)
    probs = np.einsum("cni,cni->cn", out.conj(), out).real
    kept = probs > BRANCH_PRUNE
    if not kept.any(axis=1).all():
        raise ValueError("all branches vanished")
    branches = out / np.sqrt(np.where(kept, probs, 1.0))[..., None]
    probs = np.where(kept, probs, 0.0)
    return probs / probs.sum(axis=1, keepdims=True), branches, kept


def apply_to_pure(channel: IncoherentChannel, state: PureState):
    """Selective application: list of ``(probability, PureState)`` branches.

    Branch probabilities are ``|K_n psi|^2``; branches below ``1e-12``
    are pruned and the remaining mass renormalized.
    """
    if channel.dim != state.dim:
        raise ValueError("channel and state dimensions differ")
    probs, branches, kept = _apply_kraus(channel.matrices[None],
                                         state.amps[None])
    return [(float(p), PureState(state.dims, branch))
            for p, branch, keep in zip(probs[0], branches[0], kept[0]) if keep]


def apply_to_density(channel: IncoherentChannel, rho):
    """Deterministic application ``sum_n K_n rho K_n^dag``.

    Accepts a density matrix or a :class:`QubitBloch` (returned in the
    same representation).  Verifies trace preservation within ``1e-10``
    and positivity within ``1e-9``.
    """
    as_bloch = isinstance(rho, QubitBloch)
    mat = density_from_bloch(rho) if as_bloch else np.asarray(rho, dtype=complex)
    if mat.shape != (channel.dim, channel.dim):
        raise ValueError("channel and state dimensions differ")
    out = _apply_kraus(channel.matrices[None], mat[None])[0]
    return bloch_from_density(out) if as_bloch else out


def _random_phases(rng, shape) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(shape))


def _random_unit_vectors(rng, shape, n: int, live=True) -> np.ndarray:
    """Uniform complex unit vectors of length ``n``, stacked to ``shape``
    (or of the entries where ``live`` holds, zero elsewhere)."""
    v = rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))
    v = v * live
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _random_permutations(rng, shape, n: int, size=None) -> np.ndarray:
    """Uniform permutations of ``range(n)``, stacked to ``shape``; with
    ``size`` (broadcast to ``shape + (1,)``), of ``range(size)`` first."""
    keys = rng.random(shape + (n,))
    if size is not None:
        keys = np.where(np.arange(n) < size, keys, np.inf)
    return np.argsort(keys, axis=-1)


def _random_maps(rng, count: int, n_sources: int, n_targets: int,
                 lo: int, hi: int, collide: bool = False) -> np.ndarray:
    """``count`` uniform maps ``range(n_sources) -> range(n_targets)``
    sending ``lo`` to ``hi`` sources to every target (and, with
    ``collide``, source 1 where source 0 goes).  Bijections are drawn as
    permutations; other maps are redrawn until they qualify."""
    if n_sources == n_targets and not collide and (lo >= 1 or hi <= 1):
        return _random_permutations(rng, (count,), n_sources)
    maps = np.empty((count, n_sources), dtype=np.intp)
    todo = np.arange(count)
    while todo.size:
        draw = rng.integers(0, n_targets, size=(todo.size, n_sources))
        if collide:
            draw[:, 1] = draw[:, 0]
        hits = (draw[:, :, None] == np.arange(n_targets)).sum(axis=1)
        ok = ((hits >= lo) & (hits <= hi)).all(axis=1)
        maps[todo[ok]] = draw[ok]
        todo = todo[~ok]
    return maps


def _rank_within(labels) -> np.ndarray:
    """``rank[c, i]``: how many ``j < i`` share the label ``labels[c, i]``."""
    same = labels[:, :, None] == labels[:, None, :]
    return np.tril(same, -1).sum(axis=2)


def _random_kraus(class_tag: str, dim: int, n_kraus, count: int,
                  rng) -> np.ndarray:
    """``count`` random Kraus sets of one class, set ``c`` with
    ``n_kraus[c]`` operators (or ``n_kraus`` each), as one zero-padded
    ``(count, max_k, dim, dim)`` array (see :func:`random_channel`).

    IU and PIO send each cell of a random partition of the sources to
    distinct targets; SIO gives every operator its own permutation.  IC
    fills groups of at most ``dim`` operators: inside a group, sources
    that collide on one target get distinct roots of unity, which keeps
    ``sum K^dag K`` exactly diagonal (the first group of two or more
    operators always holds a collision).  Draws are made at ``max_k``
    and masked per set, and maps once per number of cells or per cap on
    a collision, so equal counts draw exactly as an int count does.
    """
    class_tag = str(class_tag).upper()
    if class_tag not in _CLASS_ORDER:
        raise ValueError(f"unknown class tag {class_tag!r}")
    counts = np.broadcast_to(n_kraus, (count,))
    max_k = int(counts.max(initial=1))
    if dim < 2 or (counts < 1).any():
        raise ValueError("need dim >= 2 and n_kraus >= 1")
    if class_tag == "IU" and max_k != 1:
        raise ValueError("an IU channel has exactly one Kraus operator")
    if class_tag == "PIO" and max_k > dim:
        raise ValueError("a PIO channel needs n_kraus <= dim "
                         "(one operator per nonempty partition cell)")
    kraus = np.zeros((count, max_k, dim, dim), dtype=complex)
    chan = np.arange(count)[:, None]
    sources = np.arange(dim)

    if class_tag in ("IU", "PIO"):
        cells = np.empty((count, dim), dtype=np.intp)
        for k in range(1, max_k + 1):  # a partition into k cells
            rows = counts == k
            cells[rows] = _random_maps(rng, np.count_nonzero(rows), dim, k,
                                       1, dim)
        perms = _random_permutations(rng, (count, max_k), dim)
        targets = perms[chan, cells, _rank_within(cells)]
        kraus[chan, cells, targets, sources] = _random_phases(rng, (count, dim))
        return kraus

    live = np.arange(max_k) < counts[:, None]
    if class_tag == "SIO":
        perms = _random_permutations(rng, (count, max_k), dim)
        weights = _random_unit_vectors(rng, (count, dim), max_k, live[:, None])
        kraus[chan[:, :, None], np.arange(max_k)[:, None], perms,
              sources] = weights.transpose(0, 2, 1)
        return kraus

    starts = range(0, max_k, dim)
    split = _random_unit_vectors(rng, (count, dim), len(starts),
                                 live[:, None, ::dim])
    for g, start in enumerate(starts):
        sets = np.flatnonzero(counts > start)  # with a group g, of size m
        m = np.minimum(dim, counts[sets] - start)[:, None, None]
        targets = np.empty((sets.size, dim), dtype=np.intp)
        for size in np.unique(m):  # at most size sources on one target
            rows = m[:, 0, 0] == size
            targets[rows] = _random_maps(rng, np.count_nonzero(rows), dim,
                                         dim, 0, size,
                                         collide=(g == 0 and size >= 2))
        # a distinct residue per source within each collision class
        residues = _random_permutations(rng, (sets.size, dim), m.max(), m)[
            np.arange(sets.size)[:, None], targets, _rank_within(targets)]
        coeffs = (split[sets, :, g] * _random_phases(rng, (sets.size, dim))
                  / np.sqrt(m[:, 0]))
        branch = np.arange(m.max())[:, None]
        roots = np.exp(2j * np.pi * (branch * residues[:, None, :] % m) / m)
        kraus[sets[:, None, None], start + branch, targets[:, None, :],
              sources] = np.where(branch < m, coeffs[:, None, :] * roots, 0)
    return kraus


def random_channel(class_tag: str, dim: int, n_kraus: int, seed) -> IncoherentChannel:
    """Sample a random channel of the requested class.

    Deterministic given ``seed``.  Construction guarantees exact
    completeness by distributing, for every source index, a unit vector
    of coefficients over the allowed (branch, target) slots.

    Raises
    ------
    ValueError
        For infeasible combinations: IU needs ``n_kraus == 1``; PIO
        needs ``n_kraus <= dim`` (one operator per partition cell).
    """
    kraus = _random_kraus(class_tag, int(dim), int(n_kraus), 1,
                          np.random.default_rng(seed))
    return IncoherentChannel(class_tag, kraus[0])


@dataclass(frozen=True)
class LocalChannelProduct:
    """One channel per party, applied as a tensor product with bookkeeping."""

    channels: tuple

    def __init__(self, channels: Sequence[IncoherentChannel]):
        channels = tuple(channels)
        if not channels:
            raise ValueError("need at least one party channel")
        if not all(isinstance(ch, IncoherentChannel) for ch in channels):
            raise ValueError("every entry must be an IncoherentChannel")
        object.__setattr__(self, "channels", channels)

    @property
    def dims(self) -> tuple:
        return tuple(ch.dim for ch in self.channels)


@dataclass(frozen=True)
class LocalBranch:
    """One outcome of a local product channel.

    ``labels[k]`` is the Kraus index selected at party ``k``; the branch
    tree of a stochastic local protocol is read off these labels.
    """

    probability: float
    state: PureState
    labels: tuple


def _apply_on_axis(ops, tensor, axis: int) -> np.ndarray:
    """Apply every operator of an ``(n_ops, d, d)`` stack to party
    ``axis`` of each row of a ``(branches, *dims)`` tensor.  Returns
    ``(branches * n_ops, *dims)``, branch by branch and, within a branch,
    operator by operator."""
    out = np.einsum("nij,b...j->bn...i", ops, np.moveaxis(tensor, axis + 1, -1))
    return np.moveaxis(out, -1, axis + 2).reshape((-1,) + tensor.shape[1:])


def local_product_apply(product: LocalChannelProduct, state: PureState):
    """Apply each party's channel in sequence, tracking outcome labels.

    Returns a list of :class:`LocalBranch` in lexicographic label order;
    probabilities sum to 1 after pruning branches below ``1e-12``.
    """
    if product.dims != state.dims:
        raise ValueError(
            f"party dimensions {product.dims} do not match state {state.dims}")
    tensor = state.tensor()[None]
    labels = np.zeros((1, 0), dtype=np.intp)
    for k, channel in enumerate(product.channels):
        n_kraus = len(channel.matrices)
        tensor = _apply_on_axis(channel.matrices, tensor, k)
        labels = np.column_stack([labels.repeat(n_kraus, axis=0),
                                  np.tile(np.arange(n_kraus), len(labels))])
        # the state is normalized, so a branch's squared norm is its
        # probability
        probs = (np.abs(tensor) ** 2).reshape(len(tensor), -1).sum(axis=1)
        kept = probs > BRANCH_PRUNE
        tensor, labels, probs = tensor[kept], labels[kept], probs[kept]
    if not len(probs):
        raise ValueError("all branches vanished")
    amps = tensor.reshape(len(tensor), -1) / np.sqrt(probs)[:, None]
    return [LocalBranch(float(p), PureState(state.dims, branch),
                        tuple(int(i) for i in label))
            for p, branch, label in zip(probs / probs.sum(), amps, labels)]
