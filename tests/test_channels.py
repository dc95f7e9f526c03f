"""Tests for channel classes, validation, and application."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk.channels import (
    _CLASS_ORDER,
    COMPLETENESS_TOL,
    IncoherentChannel,
    LocalChannelProduct,
    apply_to_density,
    apply_to_pure,
    local_product_apply,
    random_channel,
    _apply_kraus,
    _check_kraus,
    _random_kraus,
    validate_class,
)
from cohertk.states import PureState, QubitBloch

R2 = 1.0 / math.sqrt(2.0)


def check_completeness(kraus, atol=1e-9):
    """sum K^dag K must be the identity."""
    total = sum(mat.conj().T @ mat for mat in kraus)
    assert_allclose(total, np.eye(len(total)), atol=atol)


def ic_pair():
    """A complete two-operator set that is IC but not SIO."""
    return [np.array([[R2, R2], [0, 0]]), np.array([[0, 0], [R2, -R2]])]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.5, math.nan)])
def test_incoherent_channel_rejects_non_finite_entries(bad):
    # a NaN or infinite entry makes the completeness defect non-finite
    with pytest.raises(ValueError, match="completeness"):
        IncoherentChannel("IC", [[[bad, 0], [0, 1]]])


def test_validate_class_ladder():
    phase_swap = [[[0, 1.0], [1j, 0]]]
    assert validate_class(phase_swap) == "IU"

    projectors = [np.diag([1.0, 0]), np.diag([0, -1j])]
    assert validate_class(projectors) == "PIO"

    damped = [[[0.8, 0], [0, 0.6]], [[0, 0.8], [0.6, 0]]]
    assert validate_class(damped) == "SIO"

    assert validate_class(ic_pair()) == "IC"
    # one (n_kraus, dim, dim) array is accepted too
    assert validate_class(np.stack(ic_pair())) == "IC"


def test_validate_class_rejects_bad_sets():
    with pytest.raises(ValueError, match="completeness"):
        validate_class([np.diag([0.5, 0.5])])
    hadamard = np.array([[R2, R2], [R2, -R2]])
    with pytest.raises(ValueError, match="not an incoherent"):
        validate_class([hadamard])


def test_incoherent_channel_tag_consistency():
    swap = [[0, 1.0], [1.0, 0]]
    # a stronger structure may carry a weaker tag
    channel = IncoherentChannel("SIO", [swap])
    assert channel.class_tag == "SIO"
    assert validate_class(channel) == "IU"
    assert channel.dim == 2
    with pytest.raises(ValueError, match="only IC, weaker"):
        IncoherentChannel("SIO", ic_pair())
    with pytest.raises(ValueError, match="unknown class tag"):
        IncoherentChannel("LOCC", [swap])


def test_apply_to_pure_branch_bookkeeping():
    channel = IncoherentChannel("IC", ic_pair())
    plus = PureState((2,), [R2, R2])
    branches = apply_to_pure(channel, plus)
    # the second operator annihilates |+>, so only one branch survives
    assert len(branches) == 1
    prob, state = branches[0]
    assert_allclose(prob, 1.0, atol=1e-12)
    assert_allclose(state.amps, [1.0, 0.0], atol=1e-12)

    minus = PureState((2,), [R2, -R2])
    branches = apply_to_pure(channel, minus)
    assert len(branches) == 1
    assert_allclose(branches[0][1].amps, [0.0, 1.0], atol=1e-12)

    mixed_input = PureState((2,), [1.0, 0.0])
    branches = apply_to_pure(channel, mixed_input)
    assert_allclose(sum(p for p, _ in branches), 1.0, atol=1e-12)
    for prob, state in branches:
        assert_allclose(np.vdot(state.amps, state.amps).real, 1.0, atol=1e-12)

    with pytest.raises(ValueError, match="dimensions differ"):
        apply_to_pure(channel, PureState((3,), [1, 0, 0]))


def test_apply_to_density_matches_dense_sum():
    channel = random_channel("IC", 3, 3, seed=11)
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec /= np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    dense = sum(k @ rho @ k.conj().T for k in channel.matrices)
    assert_allclose(apply_to_density(channel, rho), dense, atol=1e-12)
    assert_allclose(np.trace(dense).real, 1.0, atol=1e-10)


def test_density_contraction_matches_an_operator_loop_at_d16():
    # the contraction runs K rho before the sum over operators; at d = 16
    # it must still equal sum_n K_n rho K_n^dag term by term
    channel = random_channel("IC", 16, 4, 5)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    expected = sum(k @ rho @ k.conj().T for k in channel.matrices)
    assert_allclose(apply_to_density(channel, rho), expected, rtol=0,
                    atol=1e-12)


def test_apply_to_density_bloch_round_trip():
    dephase = IncoherentChannel("SIO", [np.eye(2) * R2, np.diag([R2, -R2])])
    out = apply_to_density(dephase, QubitBloch(0.6, 0.2, 0.3))
    assert isinstance(out, QubitBloch)
    assert_allclose(out.as_tuple(), (0.0, 0.0, 0.3), atol=1e-12)
    with pytest.raises(ValueError, match="dimensions differ"):
        apply_to_density(dephase, np.eye(3) / 3)


def test_random_channel_classes_and_determinism():
    cases = [("IU", 3, 1), ("PIO", 4, 2), ("SIO", 3, 3), ("IC", 3, 3)]
    for tag, dim, n_kraus in cases:
        channel = random_channel(tag, dim, n_kraus, seed=99)
        again = random_channel(tag, dim, n_kraus, seed=99)
        assert channel.class_tag == tag
        assert validate_class(channel) == tag
        assert channel.matrices.shape == (n_kraus, dim, dim)
        check_completeness(channel.matrices)
        assert np.array_equal(channel.matrices, again.matrices)

    with pytest.raises(ValueError, match="exactly one"):
        random_channel("IU", 3, 2, seed=0)
    with pytest.raises(ValueError, match="n_kraus <= dim"):
        random_channel("PIO", 2, 3, seed=0)
    with pytest.raises(ValueError, match="unknown class tag"):
        random_channel("LOCC", 2, 1, seed=0)


def _expected_branches(product, state):
    """Kron-product branches in lexicographic label order, pruned below
    1e-12 and renormalized: (probability, state amplitudes, labels)."""
    out = []
    for labels in itertools.product(*[range(len(ch.matrices))
                                      for ch in product.channels]):
        mat = functools.reduce(np.kron, [ch.matrices[i] for ch, i
                                         in zip(product.channels, labels)])
        image = mat @ state.amps
        prob = np.vdot(image, image).real
        if prob > 1e-12:
            out.append((prob, image / math.sqrt(prob), labels))
    total = sum(p for p, _, _ in out)
    return [(p / total, amps, labels) for p, amps, labels in out]


def test_local_product_apply_matches_kron():
    rng = np.random.default_rng(21)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    two_qubits = (
        PureState((2, 2), amps / np.linalg.norm(amps)),
        LocalChannelProduct([random_channel("SIO", 2, 2, seed=1),
                             random_channel("IC", 2, 3, seed=2)]))
    # (2, 3, 2) with party 0 always in |0>: every branch whose party-0
    # operator projects onto |1> vanishes and is pruned
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    amps[6:] = 0.0
    three_parties = (
        PureState((2, 3, 2), amps / np.linalg.norm(amps)),
        LocalChannelProduct([
            IncoherentChannel("PIO", [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
            random_channel("IC", 3, 3, seed=3),
            random_channel("SIO", 2, 2, seed=4)]))
    for state, product in (two_qubits, three_parties):
        branches = local_product_apply(product, state)
        expected = _expected_branches(product, state)
        assert [b.labels for b in branches] == [e[2] for e in expected]
        for branch, (prob, image, _) in zip(branches, expected):
            assert_allclose(branch.probability, prob, atol=1e-12)
            assert_allclose(branch.state.amps, image, atol=1e-12)
    assert len(branches) > 1 and all(b.labels[0] == 0 for b in branches)

    with pytest.raises(ValueError, match="do not match"):
        local_product_apply(product, PureState((2,), [1, 0]))


def test_list_and_array_kraus_inputs_build_the_same_channel():
    mats = random_channel("IC", 4, 3, seed=5).matrices
    from_array = IncoherentChannel("IC", mats)
    from_lists = IncoherentChannel("IC", [m.tolist() for m in mats])
    assert np.array_equal(from_array.matrices, from_lists.matrices)
    rng = np.random.default_rng(6)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
    assert np.array_equal(apply_to_density(from_array, rho),
                          apply_to_density(from_lists, rho))
    state = PureState((2, 2), vec / np.linalg.norm(vec))
    for (p, a), (q, b) in zip(apply_to_pure(from_array, state),
                              apply_to_pure(from_lists, state),
                              strict=True):
        assert p == q and np.array_equal(a.amps, b.amps)
    # the stored stack is a read-only copy, and channels compare by identity
    assert not from_array.matrices.flags.writeable
    source = mats.copy()
    copied = IncoherentChannel("IC", source)
    source[:] = 0.0
    assert np.array_equal(copied.matrices, mats)
    assert from_array == from_array and from_array != from_lists


def test_incoherent_channel_keeps_its_input_checks():
    with pytest.raises(ValueError, match="empty Kraus list"):
        IncoherentChannel("IC", [])
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        IncoherentChannel("IC", [np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="square"):
        IncoherentChannel("IC", [np.ones((2, 3))])
    with pytest.raises(ValueError, match="dim must be positive"):
        IncoherentChannel("IC", [np.zeros((0, 0))])
    with pytest.raises(ValueError, match="not an incoherent"):
        IncoherentChannel("IC", [[[R2, R2], [R2, -R2]]])
    with pytest.raises(ValueError, match="completeness"):
        IncoherentChannel("IC", [np.eye(2) * 0.5])


def test_random_ic_single_operator_is_a_phased_permutation():
    # one IC group of one operator needs a bijective target map
    for seed in range(50):
        channel = random_channel("IC", 8, 1, seed)
        assert channel.class_tag == "IC"
        assert validate_class(channel) == "IU"
        check_completeness(channel.matrices)


def _random_densities(rng, count, dim):
    g = (rng.standard_normal((count, dim, dim))
         + 1j * rng.standard_normal((count, dim, dim)))
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("tag, n_kraus", [("IU", 1), ("PIO", 2), ("SIO", 3),
                                          ("IC", 3)])
def test_batched_kraus_sets_are_class_members(tag, n_kraus, dim):
    rng = np.random.default_rng(dim * 10 + n_kraus)
    kraus = _random_kraus(tag, dim, n_kraus, 100, rng)
    assert kraus.shape == (100, n_kraus, dim, dim)
    assert (_check_kraus(kraus, tag) <= _CLASS_ORDER[tag]).all()
    rho = _random_densities(rng, 100, dim)
    amps = rng.standard_normal((100, dim)) + 1j * rng.standard_normal((100, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    images = _apply_kraus(kraus, rho)
    probs, branches, kept = _apply_kraus(kraus, amps)
    for c in range(100):
        channel = IncoherentChannel(tag, kraus[c])
        assert _CLASS_ORDER[validate_class(channel)] <= _CLASS_ORDER[tag]
        assert_allclose(apply_to_density(channel, rho[c]), images[c],
                        rtol=0, atol=1e-12)
        dense = sum(k @ rho[c] @ k.conj().T for k in kraus[c])
        assert_allclose(images[c], dense, rtol=0, atol=1e-12)
        public = apply_to_pure(channel, PureState((dim,), amps[c]))
        assert len(public) == kept[c].sum()
        for (prob, state), n in zip(public, np.flatnonzero(kept[c])):
            assert abs(prob - probs[c, n]) <= 1e-12
            assert_allclose(state.amps, branches[c, n], rtol=0, atol=1e-12)


# Gaussian rationals as (real, imaginary) pairs of Fraction object arrays
def _cmul(a, b):
    return (a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0])


def _dagger(a):
    return (a[0].T, -a[1].T)


def _as_float(a):
    return a[0].astype(float) + 1j * a[1].astype(float)


def _exact_phase(k):
    """i ** k as a (real, imaginary) pair."""
    return (Fraction((1, 0, -1, 0)[k % 4]), Fraction((0, 1, 0, -1)[k % 4]))


def _exact_kraus(rng, dim):
    """A complete rational two-operator Kraus set: every source splits
    its weight 3/5, 4/5 over two targets with phases in {+-1, +-i}.  At
    dim 2 the set is IC (both sources of an operator share its target);
    above, SIO (a permutation per operator)."""
    ops = [(np.full((dim, dim), Fraction(0), dtype=object),
            np.full((dim, dim), Fraction(0), dtype=object)) for _ in range(2)]
    if dim == 2:
        # sum K^dag K is diagonal when conj(p0) p1 = conj(p2) p3
        k = list(rng.integers(0, 4, size=3))
        k.append(k[2] - k[0] + k[1])
        slots = [(0, 0, 0, Fraction(3, 5)), (0, 0, 1, Fraction(4, 5)),
                 (1, 1, 0, Fraction(4, 5)), (1, 1, 1, Fraction(-3, 5))]
        for (n, target, source, weight), power in zip(slots, k):
            re, im = _exact_phase(power)
            ops[n][0][target, source] = weight * re
            ops[n][1][target, source] = weight * im
        return ops
    perms = [rng.permutation(dim) for _ in range(2)]
    for source in range(dim):
        weights = (Fraction(3, 5), Fraction(4, 5))[::int(rng.choice((-1, 1)))]
        for n in range(2):
            re, im = _exact_phase(int(rng.integers(4)))
            ops[n][0][perms[n][source], source] = weights[n] * re
            ops[n][1][perms[n][source], source] = weights[n] * im
    return ops


def _exact_vector(rng, dim):
    """A rational unit vector: a Pythagorean pair on two coordinates."""
    re = np.full(dim, Fraction(0), dtype=object)
    im = np.full(dim, Fraction(0), dtype=object)
    first, second = rng.choice(dim, size=2, replace=False)
    for index, weight in ((first, Fraction(3, 5)), (second, Fraction(4, 5))):
        phase = _exact_phase(int(rng.integers(4)))
        re[index], im[index] = weight * phase[0], weight * phase[1]
    return re[:, None], im[:, None]


@pytest.mark.parametrize("dim", [2, 4])
def test_batched_application_matches_exact_arithmetic(dim):
    rng = np.random.default_rng(dim)
    sets = [_exact_kraus(rng, dim) for _ in range(20)]
    vectors = [_exact_vector(rng, dim) for _ in range(20)]
    kraus = np.array([[_as_float(op) for op in ops] for ops in sets])
    assert (_check_kraus(kraus) == (3 if dim == 2 else 2)).all()

    # densities: equal mixtures of two rational pure states
    densities = []
    for c in range(20):
        u, v = vectors[c], vectors[(c + 1) % 20]
        pu, pv = _cmul(u, _dagger(u)), _cmul(v, _dagger(v))
        densities.append(((pu[0] + pv[0]) / 2, (pu[1] + pv[1]) / 2))
    images = _apply_kraus(kraus, np.array([_as_float(r) for r in densities]))
    for c, (ops, rho) in enumerate(zip(sets, densities)):
        exact = (np.full((dim, dim), Fraction(0), dtype=object),) * 2
        for op in ops:
            term = _cmul(_cmul(op, rho), _dagger(op))
            exact = (exact[0] + term[0], exact[1] + term[1])
        assert_allclose(images[c], _as_float(exact), rtol=0, atol=1e-15)

    # pure states: branch probabilities and branch projectors
    probs, branches, kept = _apply_kraus(
        kraus, np.array([_as_float(v)[:, 0] for v in vectors]))
    for c, (ops, vec) in enumerate(zip(sets, vectors)):
        for n, op in enumerate(ops):
            out = _cmul(op, vec)
            prob = _cmul(_dagger(out), out)[0][0, 0]
            assert kept[c, n] == (prob > 0)
            if prob == 0:
                continue
            assert abs(probs[c, n] - float(prob)) <= 1e-15
            projector = _cmul(out, _dagger(out))
            exact = _as_float((projector[0] / prob, projector[1] / prob))
            assert_allclose(np.outer(branches[c, n], branches[c, n].conj()),
                            exact, rtol=0, atol=1e-15)


def test_vectorized_check_rejects_broken_sets():
    good = np.array([[[R2, R2], [0, 0]], [[0, 0], [R2, -R2]]], dtype=complex)
    assert list(_check_kraus(np.stack([good, good]))) == [3, 3]
    short = good * 0.99
    with pytest.raises(ValueError, match="completeness"):
        _check_kraus(np.stack([good, short]))
    hadamard = np.array([[[R2, R2], [R2, -R2]]], dtype=complex)
    with pytest.raises(ValueError, match="not an incoherent"):
        _check_kraus(hadamard[None])
    with pytest.raises(ValueError, match="only IC, weaker than the declared tag SIO"):
        _check_kraus(good[None], "SIO")


# ---------------------------------------------------------------------------
# Kraus stacks with a count per set


def _valid_counts(tag, dim):
    return {"IU": [1], "PIO": range(1, dim + 1)}.get(tag, range(1, 2 * dim + 2))


@pytest.mark.parametrize("tag", ["IU", "PIO", "SIO", "IC"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_equal_counts_draw_what_the_int_count_draws(tag, dim):
    # bit for bit, and leaving the generator in the same state, so
    # random_channel keeps its streams
    for k in _valid_counts(tag, dim):
        by_int, by_set = np.random.default_rng(k), np.random.default_rng(k)
        expected = _random_kraus(tag, dim, k, 6, by_int)
        drawn = _random_kraus(tag, dim, np.full(6, k), 6, by_set)
        assert drawn.tobytes() == expected.tobytes(), (tag, dim, k)
        assert by_set.random() == by_int.random()


@pytest.mark.parametrize("tag", ["PIO", "SIO", "IC"])
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_mixed_counts_pad_each_set_with_zero_operators(tag, dim):
    rng = np.random.default_rng(dim)
    counts = rng.choice(_valid_counts(tag, dim), size=200)
    kraus = _random_kraus(tag, dim, counts, 200, rng)
    assert kraus.shape == (200, counts.max(), dim, dim)
    nonzero = (kraus != 0).any(axis=(2, 3))
    assert np.array_equal(nonzero, np.arange(counts.max()) < counts[:, None])
    strongest = _check_kraus(kraus, tag, counts)
    assert (strongest <= _CLASS_ORDER[tag]).all()
    for c in range(0, 200, 7):
        channel = IncoherentChannel(tag, kraus[c, :counts[c]])
        assert _CLASS_ORDER[validate_class(channel)] == strongest[c]
    # a set with one operator is a phased permutation however it is padded
    assert (strongest[counts == 1] == _CLASS_ORDER["IU"]).all()
    # the padded operators add no kept branch
    amps = rng.standard_normal((200, dim)) + 1j * rng.standard_normal((200, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    probs, _, kept = _apply_kraus(kraus, amps)
    assert not (kept & ~nonzero).any()
    assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_padded_pio_set_needs_its_count():
    # without its count, the empty padding operator demotes a one-operator
    # PIO set to SIO, which a PIO check rejects
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    padded = np.stack([swap, np.zeros((2, 2))])[None]
    assert list(_check_kraus(padded, "PIO", [1])) == [_CLASS_ORDER["IU"]]
    assert list(_check_kraus(padded)) == [_CLASS_ORDER["SIO"]]
    with pytest.raises(ValueError, match="only SIO, weaker than the "
                                         "declared tag PIO"):
        _check_kraus(padded, "PIO")


@pytest.mark.parametrize("tag, dim, top", [("PIO", 3, 3), ("SIO", 2, 4),
                                           ("IC", 2, 4), ("IC", 3, 7)])
def test_mixed_counts_keep_each_counts_distribution(tag, dim, top):
    # the sets of count k in a mixed draw look like an int draw of count
    # k: the chance that operator 0 sends source 0 to target 0, and the
    # mean weight |K_0[0, 0]|^2
    rng = np.random.default_rng(top)
    counts = rng.integers(1, top + 1, size=4000)
    mixed = _random_kraus(tag, dim, counts, 4000, rng)
    for k in range(1, top + 1):
        ours = mixed[counts == k, 0, 0, 0]
        theirs = _random_kraus(tag, dim, k, ours.size, rng)[:, 0, 0, 0]
        for stat in (lambda x: x != 0, lambda x: np.abs(x) ** 2):
            a, b = stat(ours).astype(float), stat(theirs).astype(float)
            spread = math.sqrt((a.var() + b.var()) / a.size) or 1.0
            assert abs(a.mean() - b.mean()) <= 5 * spread, (k, a.mean(), b.mean())


def test_apply_to_density_takes_every_channel_the_constructor_takes():
    # a Frobenius defect of 8e-10 passes the 1e-9 completeness check, and
    # on a density the trace drifts by at most that defect
    channel = IncoherentChannel("SIO", [np.diag([1.0, 1.0 + 4e-10])])
    out = apply_to_density(channel, np.diag([0.0, 1.0]))
    assert_allclose(out, np.diag([0.0, (1.0 + 4e-10) ** 2]), rtol=0,
                    atol=1e-16)
    assert abs(np.trace(out).real - 1.0) <= COMPLETENESS_TOL
    with pytest.raises(ValueError, match="completeness violated"):
        IncoherentChannel("SIO", [np.diag([1.0, 1.0 + 6e-10])])


@pytest.mark.parametrize("build, message", [
    (lambda: LocalChannelProduct([]), "at least one party channel"),
    (lambda: LocalChannelProduct([np.eye(2)]), "must be an IncoherentChannel"),
    (lambda: random_channel("SIO", 1, 1, 0), "dim >= 2 and n_kraus >= 1"),
    (lambda: random_channel("SIO", 2, 0, 0), "dim >= 2 and n_kraus >= 1"),
], ids=["no-party", "bare-matrix", "dim-1", "no-kraus"])
def test_constructors_reject_what_they_cannot_build(build, message):
    with pytest.raises(ValueError, match=message):
        build()
