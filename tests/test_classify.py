"""Tests for equivalence search, two-qubit classes, and canonical forms."""

import itertools
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk.channels import local_product_apply
from cohertk.classify import (
    FIDELITY_TOL,
    LiuWitness,
    _compatible_permutations,
    _matching_bound,
    _permuted_flat_index,
    _same_class,
    _slice_compatibility,
    _solve_torus,
    canonical_form_r4,
    canonical_state,
    liu_equivalent,
    slicc_class_2qubit,
    slicc_equivalent_2qubit,
    verify_slicc_witness,
    witness_templates_r4,
)
from cohertk.states import AMP_TOL, PureState

RT = math.sqrt


def random_full_support_state(rng, dims):
    total = int(np.prod(dims))
    amps = rng.uniform(0.2, 1.0, total) * np.exp(
        2j * np.pi * rng.random(total))
    return PureState(dims, amps / np.linalg.norm(amps))


def random_witness(rng, dims):
    perms = tuple(tuple(rng.permutation(d)) for d in dims)
    phases = tuple(tuple(rng.uniform(0, 2 * np.pi, d)) for d in dims)
    return LiuWitness(perms, phases)


def check_witness_maps(witness, psi, phi, atol=1e-9):
    image = witness.apply(psi)
    fidelity = abs(np.vdot(phi.amps, image.amps))
    assert fidelity >= 1.0 - atol


def phase_adjusted_fidelity(u, v):
    return abs(np.vdot(u, v))


# ---------------------------------------------------------------------------
# local unitary equivalence


def test_liu_equivalent_identity():
    state = PureState((2, 2), [0.5, 0.5, 0.5, 0.5])
    witness = liu_equivalent(state, state)
    assert witness is not None
    check_witness_maps(witness, state, state)


def test_liu_equivalent_constructed_pairs():
    rng = np.random.default_rng(42)
    for dims in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]:
        psi = random_full_support_state(rng, dims)
        planted = random_witness(rng, dims)
        phi = planted.apply(psi)
        found = liu_equivalent(psi, phi)
        assert found is not None
        check_witness_maps(found, psi, phi)


def test_liu_equivalent_rejects_modulus_mismatch():
    psi = PureState((2, 2), [RT(0.4), RT(0.3), RT(0.2), RT(0.1)])
    phi = PureState((2, 2), [RT(0.35), RT(0.35), RT(0.2), RT(0.1)])
    assert liu_equivalent(psi, phi) is None


def test_liu_equivalent_phase_obstruction():
    # equal moduli everywhere, but the product-phase invariant
    # theta(00) - theta(01) - theta(10) + theta(11) differs, and no
    # choice of local phases can absorb that
    psi = PureState((2, 2), [0.5, 0.5, 0.5, 0.5])
    phi = PureState((2, 2), [0.5, 0.5, 0.5, 0.5j])
    assert liu_equivalent(psi, phi) is None


def test_liu_equivalent_solvable_sign_pattern_on_even_support():
    # on the three-qubit support {000, 011, 101, 110} the per-party
    # phase unknowns are linearly independent, so any relative sign
    # pattern is reachable; a sign flip on one term must be accepted
    amps = np.zeros(8)
    amps[[0, 3, 5, 6]] = 0.5
    psi = PureState((2, 2, 2), amps)
    flipped = amps.copy()
    flipped[3] = -0.5
    phi = PureState((2, 2, 2), flipped)
    witness = liu_equivalent(psi, phi)
    assert witness is not None
    check_witness_maps(witness, psi, phi)


def test_liu_witness_channel_form():
    rng = np.random.default_rng(7)
    psi = random_full_support_state(rng, (2, 2))
    planted = random_witness(rng, (2, 2))
    phi = planted.apply(psi)
    product = planted.as_channels()
    assert all(ch.class_tag == "IU" for ch in product.channels)
    branches = local_product_apply(product, psi)
    assert len(branches) == 1  # unitaries are single-branch
    assert phase_adjusted_fidelity(branches[0].state.amps,
                                   phi.amps) >= 1.0 - 1e-9


def test_solve_torus_with_a_pivot_of_minus_two():
    # elimination turns the second row into (0, -2): the first
    # back-substitution branch must solve every consistent right-hand side
    rows = [[1, 1], [1, -1]]
    for rhs in ([0.3, 1.1], [math.pi, 0.0], [2.0, -2.5]):
        x = _solve_torus(rows, rhs, 2)
        residual = np.array(rows) @ x - np.array(rhs)
        wrapped = (residual + math.pi) % (2 * math.pi) - math.pi
        assert np.abs(wrapped).max() <= 1e-9
    # 2 x0 = 1.4 from the first two rows, but 0 from the third
    assert _solve_torus([[1, 1], [1, -1], [2, 0]], [0.3, 1.1, 0.0], 2) is None


def test_liu_equivalent_search_cap():
    # every index of the uniform state has the same slice signature, so
    # all 10! permutations stay compatible
    big = PureState((10,), np.full(10, 1 / math.sqrt(10)))
    with pytest.raises(ValueError, match="exceeds cap"):
        liu_equivalent(big, big)


# ---------------------------------------------------------------------------
# the pruned search against the exhaustive one


def exhaustive_liu(psi, phi, tol=AMP_TOL):
    """Reference oracle: try every tuple of per-party permutations in
    ``itertools.product`` order, with the checks of the pruned search."""
    mod_psi, mod_phi = np.abs(psi.amps), np.abs(phi.amps)
    if not np.allclose(np.sort(mod_psi), np.sort(mod_phi), atol=1e-8):
        return None
    dims = psi.dims
    support = np.flatnonzero(mod_psi > tol)
    n_unknowns = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)[:-1]])
    rows = []
    for idx in np.array(np.unravel_index(support, dims)).T:
        row = [0] * n_unknowns
        for k, i_k in enumerate(idx):
            row[offsets[k] + i_k] = 1
        rows.append(row)
    source_arg = np.angle(psi.amps[support])
    for perms in itertools.product(*[itertools.permutations(range(d))
                                     for d in dims]):
        flat = _permuted_flat_index(dims, perms)
        if not np.allclose(mod_phi[flat], mod_psi, atol=1e-8):
            continue
        target_arg = np.angle(phi.amps[flat[support]])
        solution = _solve_torus(rows, target_arg - source_arg, n_unknowns)
        if solution is None:
            continue
        witness = LiuWitness(
            tuple(tuple(p) for p in perms),
            tuple(tuple(solution[offsets[k]:offsets[k] + dims[k]])
                  for k in range(len(dims))))
        image = witness.apply(psi)
        if abs(np.vdot(phi.amps, image.amps)) >= 1.0 - FIDELITY_TOL:
            return witness
    return None


def oracle_pair(rng, dims, moduli, relation):
    """A seeded (psi, phi) pair for the oracle comparison.

    ``moduli`` is how psi's moduli are drawn: generic, all equal, tied,
    nearly tied, or with zeros.  ``relation`` makes phi a planted
    relabeling of psi, the same with one phase turned (usually an
    obstruction), or an unrelated state with nearly the same moduli.
    """
    total = int(np.prod(dims))
    if moduli == "generic":
        mod = rng.uniform(0.2, 1.0, total)
    elif moduli == "equal":
        mod = np.ones(total)
    elif moduli == "ties":
        mod = rng.choice([0.3, 0.6, 0.9], total)
    elif moduli == "near":
        # steps just inside the modulus tolerance (about 3e-6 at 0.3),
        # so compatibility is not transitive
        mod = rng.choice([0.3, 0.6], total) + rng.choice(
            [0.0, 2e-6, 4e-6], total)
    else:
        mod = rng.uniform(0.2, 1.0, total) * (rng.random(total) < 0.6)
        mod[0] = 1.0
    if moduli in ("generic", "zeros"):
        phases = np.exp(2j * np.pi * rng.random(total))
    else:
        # local phases only, so every tuple that matches the moduli
        # (within tolerance) is a witness and the first one must agree
        phases = np.ones(1)
        for d in dims:
            phases = np.kron(phases, np.exp(2j * np.pi * rng.random(d)))
    psi = PureState(dims, mod * phases / np.linalg.norm(mod))
    if relation == "unrelated":
        other = rng.permutation(mod)
        other[0] *= 1.1
        return psi, PureState(dims, other * phases / np.linalg.norm(other))
    phi = random_witness(rng, dims).apply(psi)
    if relation == "obstructed":
        amps = phi.amps.copy()
        hot = np.flatnonzero(np.abs(amps) > 1e-12)
        amps[hot[int(rng.integers(len(hot)))]] *= np.exp(
            1j * rng.uniform(0.5, 2 * np.pi - 0.5))
        phi = PureState(dims, amps)
    return psi, phi


def test_pruned_search_matches_exhaustive_oracle():
    rng = np.random.default_rng(20180)
    shapes = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (3, 3), (2, 2, 3),
              (3, 2, 2)]
    kinds = list(itertools.product(
        ["generic", "equal", "ties", "near", "zeros"],
        ["planted", "obstructed", "unrelated"]))
    verdicts = set()
    for index in range(420):
        dims = shapes[index % len(shapes)]
        psi, phi = oracle_pair(rng, dims, *kinds[index % len(kinds)])
        expected, got = exhaustive_liu(psi, phi), liu_equivalent(psi, phi)
        assert (got is None) == (expected is None), (dims, index)
        verdicts.add(got is None)
        if got is None:
            continue
        assert got.permutations == expected.permutations
        for ours, theirs in zip(got.phases, expected.phases):
            assert_allclose(ours, theirs, rtol=0, atol=1e-12)
    assert verdicts == {True, False}


def test_liu_equivalent_decides_generic_555():
    # 5!^3 = 1.7e6 tuples exceed the cap, but distinct slice signatures
    # leave one compatible tuple
    rng = np.random.default_rng(5)
    psi = random_full_support_state(rng, (5, 5, 5))
    planted = random_witness(rng, (5, 5, 5))
    phi = planted.apply(psi)
    found = liu_equivalent(psi, phi)
    assert found is not None
    assert found.permutations == tuple(tuple(int(i) for i in p)
                                       for p in planted.permutations)
    check_witness_maps(found, psi, phi)

    amps = phi.amps.copy()
    amps[7] *= np.exp(0.5j)
    assert liu_equivalent(psi, PureState(phi.dims, amps)) is None


def test_matching_bound_and_enumeration_agree_with_brute_force():
    rng = np.random.default_rng(11)
    for d in range(1, 6):
        for trial in range(40):
            classes = trial % 2 == 0
            if classes:  # classes of indices, shuffled on both sides
                labels = rng.integers(0, 3, d)
                allowed = (labels[rng.permutation(d)][:, None]
                           == labels[rng.permutation(d)][None])
            else:
                allowed = rng.random((d, d)) < rng.uniform(0.3, 0.9)
            brute = [p for p in itertools.permutations(range(d))
                     if all(allowed[i, p[i]] for i in range(d))]
            bound = _matching_bound(allowed)
            if classes:
                assert bound == len(brute)
            else:
                assert bound >= len(brute)
            assert list(_compatible_permutations(allowed)) == brute


def test_liu_equivalent_empty_party_answers_none_at_once():
    # party 0 keeps all 10! permutations, but no column signature of
    # party 1 matches, so there is no compatible tuple at all
    a, b = 0.1, math.sqrt(0.1 - 0.01)
    psi = PureState((10, 2), np.tile([a, b], 10))
    phi = PureState((10, 2), np.tile([a, b, b, a], 5))
    start = time.perf_counter()
    assert liu_equivalent(psi, phi) is None
    assert time.perf_counter() - start < 2.0


def test_liu_equivalent_caps_nontransitive_compatibility():
    # psi_0 and phi_0 sit just over one tolerance apart, each within it
    # of every other modulus: compatibility is not transitive and all
    # but one of the 30 x 30 index pairs stay allowed
    x, delta = 1 / math.sqrt(30), 1.2e-6
    mod_psi, mod_phi = np.full(30, x), np.full(30, x)
    mod_psi[0] -= delta
    mod_phi[0] += delta
    psi = PureState((30,), mod_psi / np.linalg.norm(mod_psi))
    phi = PureState((30,), mod_phi / np.linalg.norm(mod_phi))
    allowed, = _slice_compatibility(np.abs(psi.amps), np.abs(phi.amps),
                                    (30,))
    assert np.flatnonzero(~allowed.ravel()).tolist() == [0]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        liu_equivalent(psi, phi)
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# two-qubit stochastic classification


def normalized(amps):
    amps = np.asarray(amps, dtype=complex)
    return PureState((2, 2), amps / np.linalg.norm(amps))


def test_rank_one_and_rank_two_classes():
    for index in range(4):
        amps = np.zeros(4)
        amps[index] = 1.0
        cls = slicc_class_2qubit(PureState((2, 2), amps))
        assert (cls.rank, cls.subclass) == (1, "point")
        assert cls.support_pattern == (0,)
        assert cls.invariant_r is None

    row = slicc_class_2qubit(normalized([2, 1, 0, 0]))
    assert (row.rank, row.subclass) == (2, "row")
    column = slicc_class_2qubit(normalized([2, 0, 1, 0]))
    assert (column.rank, column.subclass) == (2, "column")
    diagonal = slicc_class_2qubit(normalized([2, 0, 0, 1]))
    assert (diagonal.rank, diagonal.subclass) == (2, "diagonal")

    # supports related by local bit swaps share the canonical pattern
    other_column = slicc_class_2qubit(normalized([0, 2, 0, 1]))
    assert other_column.subclass == "column"
    assert other_column.support_pattern == column.support_pattern
    anti = slicc_class_2qubit(normalized([0, 1, 2, 0]))
    assert anti.subclass == "diagonal"
    assert anti.support_pattern == diagonal.support_pattern


def test_rank_three_forms_single_class():
    first = normalized([1, 1, 1, 0])
    second = normalized([1, 1, 0, 1])
    cls_first = slicc_class_2qubit(first)
    cls_second = slicc_class_2qubit(second)
    assert (cls_first.rank, cls_first.subclass) == (3, "triangle")
    assert cls_second.subclass == "triangle"
    assert cls_first.support_pattern == cls_second.support_pattern
    assert slicc_equivalent_2qubit(first, second)


def test_rank_four_invariant():
    uniform = normalized([1, 1, 1, 1])
    cls = slicc_class_2qubit(uniform)
    assert (cls.rank, cls.subclass) == (4, "generic")
    assert_allclose(cls.invariant_r, 1.0, atol=1e-12)

    spread = normalized([1, 2, 1, 2])  # r = (1*2)/(2*1) = 1
    assert_allclose(slicc_class_2qubit(spread).invariant_r, 1.0, atol=1e-12)

    half = normalized([1, 2, 1, 1])    # r = 1/2, representative is 2
    cls = slicc_class_2qubit(half)
    assert_allclose(cls.invariant_r, 2.0, atol=1e-12)
    lo, hi = sorted(abs(v) for v in cls.invariant_pair)
    assert_allclose([lo, hi], [0.5, 2.0], atol=1e-12)

    # unimodular invariants canonicalize toward nonnegative imaginary part
    phase = normalized([1, 1, 1, np.exp(-1j * np.pi / 4)])
    cls = slicc_class_2qubit(phase)
    assert cls.invariant_r.imag >= 0
    assert_allclose(abs(cls.invariant_r), 1.0, atol=1e-12)


def test_slicc_equivalence_decisions():
    assert not slicc_equivalent_2qubit(normalized([2, 1, 0, 0]),
                                       normalized([2, 0, 1, 0]))
    r3 = normalized([1, 1, 1, 3])      # r = 3
    r3_inv = normalized([1, 3, 1, 1])  # r = 1/3
    assert slicc_equivalent_2qubit(r3, r3_inv)
    assert not slicc_equivalent_2qubit(r3, normalized([1, 1, 1, 2.9]))
    with pytest.raises(ValueError, match=r"dims \(2, 2\)"):
        slicc_class_2qubit(PureState((2,), [1, 0]))


def test_rank_class_stable_under_invertible_local_ops():
    # the classifier must not change its verdict when an invertible
    # permutation-sparse pair is applied and the leading branch kept
    rng = np.random.default_rng(17)
    for _ in range(25):
        psi = random_full_support_state(rng, (2, 2))
        template = witness_templates_r4(psi)[rng.integers(0, 4)]
        branches = local_product_apply(template.product, psi)
        image = next(b.state for b in branches if b.labels == (0, 0))
        assert slicc_equivalent_2qubit(psi, image)


def _random_local_monomial(rng):
    """Per qubit, a random permutation times a diagonal scaling with
    moduli in [1/2, 2] and random phases: an invertible incoherent map."""
    return np.kron(*[np.eye(2)[rng.permutation(2)]
                     @ np.diag(rng.uniform(0.5, 2.0, 2)
                               * np.exp(2j * np.pi * rng.random(2)))
                     for _ in range(2)])


def _random_support_state(rng):
    """A two-qubit state on a random support of random size."""
    support = rng.permutation(4) < rng.integers(1, 5)
    amps = (rng.uniform(0.2, 1.0, 4) * np.exp(2j * np.pi * rng.random(4))
            * support)
    return amps / np.linalg.norm(amps)


def test_slicc_labels_are_invariant_under_local_monomial_maps():
    # a local permutation maps r = ad/(bc) to r or 1/r and a diagonal
    # scaling leaves it alone, so neither the label nor any verdict may
    # change
    rng = np.random.default_rng(2018)
    for _ in range(300):
        amps, other = _random_support_state(rng), _random_support_state(rng)
        moved = _random_local_monomial(rng) @ amps
        moved_other = _random_local_monomial(rng) @ other
        first = slicc_class_2qubit(PureState((2, 2), amps))
        image = slicc_class_2qubit(
            PureState((2, 2), moved / np.linalg.norm(moved)))
        assert (image.rank, image.subclass, image.support_pattern) == (
            first.rank, first.subclass, first.support_pattern)
        assert _same_class(first, image)
        if first.rank == 4:
            assert any(abs(image.invariant_r - r) <= 1e-9 * abs(r)
                       for r in first.invariant_pair)
        second = slicc_class_2qubit(PureState((2, 2), other))
        second_image = slicc_class_2qubit(
            PureState((2, 2), moved_other / np.linalg.norm(moved_other)))
        assert (_same_class(image, second_image)
                == _same_class(first, second)
                == _same_class(second, first))


# ---------------------------------------------------------------------------
# canonical representatives


def test_witness_templates_reach_canonical_state():
    rng = np.random.default_rng(23)
    psi = random_full_support_state(rng, (2, 2))
    r = slicc_class_2qubit(psi).invariant_r
    names = []
    for template in witness_templates_r4(psi):
        names.append(template.name)
        target = canonical_state(template.alpha, template.beta)
        branches = local_product_apply(template.product, psi)
        image = next(b.state for b in branches if b.labels == (0, 0))
        assert phase_adjusted_fidelity(image.amps, target.amps) >= 1 - 1e-9
        # the template's invariant is r or 1/r
        pair = (template.invariant, 1.0 / template.invariant)
        assert min(abs(p - r) for p in pair) < 1e-8 * max(1.0, abs(r))
        assert_allclose(3 * template.alpha**2 + abs(template.beta) ** 2,
                        1.0, atol=1e-12)
    assert names == ["diag-diag", "diag-antidiag",
                     "antidiag-diag", "antidiag-antidiag"]
    with pytest.raises(ValueError, match="rank-4"):
        witness_templates_r4(normalized([1, 1, 1, 0]))


def test_canonical_form_round_trip():
    rng = np.random.default_rng(29)
    for _ in range(30):
        psi = random_full_support_state(rng, (2, 2))
        form = canonical_form_r4(psi)
        rebuilt = canonical_state(form.alpha, form.beta)
        cls = slicc_class_2qubit(rebuilt)
        original = slicc_class_2qubit(psi)
        pair = original.invariant_pair
        err = min(abs(cls.invariant_r - p) for p in pair)
        assert err <= 1e-8 * max(1.0, abs(original.invariant_r))
        assert verify_slicc_witness(psi, rebuilt, form.product)


def test_verify_slicc_witness_accepts_every_operator_form():
    rng = np.random.default_rng(37)
    for _ in range(5):
        psi = random_full_support_state(rng, (2, 2))
        for template in witness_templates_r4(psi):
            dense = [ch.matrices[0] for ch in template.product.channels]
            right = canonical_state(template.alpha, template.beta)
            wrong = canonical_state(*_canonical_pair(template.invariant * 1.5))
            for target, verdict in ((right, True), (wrong, False)):
                assert [verify_slicc_witness(psi, target, ops)
                        for ops in (template.product, dense)
                        ] == [verdict] * 2


def test_witness_instruments_have_no_spurious_completion():
    # outcome 0 is scaled to largest modulus 1; the completion operator
    # must then be exactly zero in that column
    rng = np.random.default_rng(41)
    for _ in range(50):
        psi = random_full_support_state(rng, (2, 2))
        for template in witness_templates_r4(psi):
            for channel in template.product.channels:
                modulus = np.abs(channel.matrices[0])
                column = np.argmax(modulus.max(axis=0))
                assert_allclose(modulus.max(), 1.0, atol=1e-15)
                if len(channel.matrices) == 2:
                    assert not channel.matrices[1][:, column].any()


def test_verify_slicc_witness_rejects_wrong_target():
    rng = np.random.default_rng(31)
    psi = random_full_support_state(rng, (2, 2))
    form = canonical_form_r4(psi)
    wrong = canonical_state(*_canonical_pair(0.25 + 0.1j))
    assert not verify_slicc_witness(psi, wrong, form.product)
    with pytest.raises(ValueError, match="not invertible"):
        verify_slicc_witness(psi, psi, [np.diag([1.0, 0.0]), np.eye(2)])
    with pytest.raises(ValueError, match="operator count"):
        verify_slicc_witness(psi, psi, [np.eye(2)])


def _canonical_pair(invariant):
    alpha = 1.0 / math.sqrt(3.0 + abs(invariant) ** 2)
    return alpha, invariant * alpha
