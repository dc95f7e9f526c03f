"""Tests for closed-form volumes, coherence monotones, and region geometry."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk.feasibility import (LemmaNotApplicableError, _as_bloch,
                                 _select_spectrum, majorizes)
from cohertk.monotones import (
    MonotoneValue,
    _closed_monotone,
    _permutation_sums,
    _qubit_monotone,
    permutation_sum,
    planar_example_volumes,
    qubit_pio_Ca,
    qubit_pio_Cs,
    qubit_sio_Ca,
    qubit_sio_Cs,
    region_geometry,
    source_coherence_closed,
    sup_source_volume,
)
from cohertk.states import (PureState, QubitBloch, bloch_from_density,
                            maximally_correlated_lift)

RT = math.sqrt
PIO_SUP = 1.0 + RT(2.0)


# ---------------------------------------------------------------------------
# permutation sums


def permutation_sum_fraction(spectrum) -> Fraction:
    """Exact permutation sum by enumerating all d! terms, the independent
    reference for :func:`_permutation_sums` and the volume oracle.  The
    entries, Fractions or integers summing to 1 exactly, are read in the
    given order, zeros kept.  With lam_k = n_k / D, each bracket
    sum_k pi(k) lam_k - (d+1)/2 is B / (2D) for the integer
    B = 2 sum_k pi(k) n_k - (d+1) D, so the sum is one integer numerator
    over (2D)^(d-1) times the lcm of the difference products."""
    lam = [Fraction(x) for x in spectrum]
    if sum(lam) != 1:
        raise ValueError("spectrum must sum to 1 exactly")
    d = len(lam)
    if d == 1:
        return Fraction(1)
    denom = math.lcm(*(x.denominator for x in lam))
    n = [int(x * denom) for x in lam]
    shift = (d + 1) * denom
    terms = [(2 * sum(p * c for p, c in zip(pi, n)) - shift,
              math.prod(pi[k] - pi[k + 1] for k in range(d - 1)))
             for pi in itertools.permutations(range(1, d + 1))]
    common = math.lcm(*(product for _, product in terms))
    numerator = sum(bracket ** (d - 1) * (common // product)
                    for bracket, product in terms)
    return Fraction(numerator, common * (2 * denom) ** (d - 1))


def test_permutation_sum_pinned_values():
    assert_allclose(permutation_sum([0.6, 0.4]), 0.2, atol=1e-15)
    assert_allclose(permutation_sum([0.5, 1 / 3, 1 / 6]), 1 / 6, atol=1e-15)
    for d in range(2, 10):
        assert_allclose(permutation_sum(np.full(d, 1 / d)), 0.0, atol=1e-12)
        basis = np.zeros(d)
        basis[0] = 1.0
        assert_allclose(permutation_sum(basis), 1.0, atol=1e-12)


def _dyadic_spectrum(d, pattern):
    """Entries k / 2^40, exact in floats and summing to exactly 1, built
    from the bottom up out of a gap pattern."""
    rng = np.random.default_rng(d)
    gaps = {"random": rng.integers(0, 2**34, size=d - 1),
            "tied": rng.integers(0, 2, size=d - 1) * 2**33,
            "multi-scale": [2**(35 - 5 * j) for j in range(d - 1)]}[pattern]
    unit = 2**40
    weighted = sum(int(u) * (j + 1) for j, u in enumerate(gaps))
    entries = [(unit - weighted) // d]
    for u in reversed(gaps):
        entries.insert(0, entries[0] + int(u))
    entries[0] += unit - sum(entries)
    return [Fraction(k, unit) for k in entries]


@pytest.mark.parametrize("d, pattern", [
    (d, pattern) for d in range(2, 8)
    for pattern in ("random", "tied", "multi-scale")] + [(8, "multi-scale")])
def test_permutation_sum_matches_the_exact_enumeration(d, pattern):
    lam = _dyadic_spectrum(d, pattern)
    exact = permutation_sum_fraction(lam)
    # the recursion itself is exact: in Fractions it gives the d!-term sum
    assert _permutation_sums(np.array([lam], dtype=object))[0] == exact
    floats = [float(x) for x in lam]
    assert math.fsum(floats) == 1.0
    assert_allclose(permutation_sum(floats), float(exact), rtol=1e-14, atol=0)


def test_permutation_sum_near_uniform_has_no_cancellation():
    # the float entries sum to exactly 1; the d!-term float sum was off
    # by 3e-9 relative here
    lam = [0.2500001, 0.25, 0.25, 0.2499999]
    assert math.fsum(lam) == 1.0
    exact = permutation_sum_fraction([Fraction(x) for x in lam])
    assert_allclose(permutation_sum(lam), float(exact), rtol=1e-14, atol=0)


def test_permutation_sum_keeps_zeros():
    # a zero entry is a level of the spectrum: (0.6, 0.4, 0) is measured
    # in the length-3 simplex, where it is not (0.6, 0.4)
    assert_allclose(permutation_sum([0.6, 0.4, 0.0]), 0.52, atol=1e-15)
    assert_allclose(permutation_sum([0.6, 0.4]), 0.2, atol=1e-15)
    # one nonzero level is the incoherent extreme at every length
    assert permutation_sum([1.0, 0.0, 0.0]) == 1.0
    assert permutation_sum([1.0]) == 1.0


def test_permutation_sum_dimension_cap():
    lam = np.full(10, 0.1)
    with pytest.raises(ValueError, match="recursion|cap|9"):
        permutation_sum(lam)


def test_permutation_sum_fraction_ambient_reading():
    # the degenerate direction of a zero entry contributes: the length-3
    # sum of (0.6, 0.4, 0) differs from the length-2 sum of (0.6, 0.4),
    # and the positive recursion gives it exactly
    lam = [Fraction(3, 5), Fraction(2, 5), Fraction(0)]
    ambient = permutation_sum_fraction(lam)
    assert ambient == Fraction(13, 25)  # 0.52, hand-checked expansion
    assert _permutation_sums(np.array([lam], dtype=object))[0] == ambient
    assert permutation_sum_fraction(lam[:2]) == Fraction(1, 5)


def test_sup_source_volume_values():
    assert_allclose(sup_source_volume(2), RT(2) / 2, atol=1e-15)
    assert_allclose(sup_source_volume(3), RT(3) / 12, atol=1e-15)
    assert_allclose(sup_source_volume(4), 1 / 72, atol=1e-17)


def test_source_coherence_closed_spectrum_route():
    value = source_coherence_closed([0.6, 0.4])
    assert value.kind == "source"
    assert value.value == 0.8
    assert_allclose(value.volume, RT(2) / 2 * 0.2, atol=1e-15)
    assert_allclose(value.sup_volume, RT(2) / 2, atol=1e-15)
    assert value.measure == "sorted-representative"

    # extremes: uniform input is maximally coherent, a point is incoherent
    assert_allclose(source_coherence_closed([0.25] * 4).value, 1.0, atol=1e-12)
    assert source_coherence_closed([1.0, 0.0, 0.0]).value == 0.0


def test_source_coherence_closed_state_routes():
    single = PureState((3,), [RT(0.5), RT(0.3), RT(0.2)])
    ic_value = source_coherence_closed(single, "IC")
    lifted = maximally_correlated_lift(single)
    licc_value = source_coherence_closed(lifted, "LICC")
    assert_allclose(ic_value.value, licc_value.value, atol=1e-12)

    skew = PureState((2, 2), [RT(0.5), RT(0.5), 0, 0])
    with pytest.raises(LemmaNotApplicableError):
        source_coherence_closed(skew, "LICC")
    with pytest.raises(ValueError, match="unknown operation class"):
        source_coherence_closed([0.6, 0.4], "LOCC")


def test_pio_has_no_spectrum_rule():
    # majorization does not decide pure-state PIO conversions, so a bare
    # spectrum is refused under PIO just as the pure state is
    with pytest.raises(ValueError, match="class 'PIO' on spectra"):
        source_coherence_closed([0.5, 0.3, 0.2], "PIO")
    with pytest.raises(ValueError, match="class 'PIO' on pure states"):
        source_coherence_closed(PureState((3,), [RT(0.5), RT(0.3), RT(0.2)]),
                                "PIO")
    with pytest.raises(ValueError, match="class 'PIO' on spectra"):
        planar_example_volumes([0.5, 0.3, 0.2], "PIO")


def test_monotone_value_validates_identity():
    with pytest.raises(ValueError, match="unknown kind"):
        MonotoneValue("sideways", 0.5, 0.5, 1.0,
                      "sorted-representative", "IC")
    with pytest.raises(ValueError, match="does not match"):
        MonotoneValue("accessible", 0.9, 0.5, 1.0,
                      "sorted-representative", "IC")


# ---------------------------------------------------------------------------
# single-qubit closed forms


def test_qubit_sio_accessible_pinned_points():
    assert_allclose(qubit_sio_Ca(QubitBloch(1.0, 0.0, 0.0)).value, 1.0,
                    atol=1e-12)
    assert qubit_sio_Ca(QubitBloch(0.0, 0.0, 0.7)).value == 0.0
    # a generic mixed point against the explicit expression
    t, z = 0.5, 0.3
    expected = (2 * (t / RT(1 - z * z)) * math.asin(RT(1 - z * z))
                + 2 * abs(z) * t)
    value = qubit_sio_Ca(QubitBloch(0.3, 0.4, 0.3))
    assert_allclose(value.volume, expected, atol=1e-12)
    assert_allclose(value.value, expected / math.pi, atol=1e-12)
    assert value.measure == "bloch-halfplane"


def test_qubit_sio_source_pinned_points():
    assert_allclose(qubit_sio_Cs(QubitBloch(1.0, 0.0, 0.0)).value, 1.0,
                    atol=1e-12)
    assert qubit_sio_Cs(QubitBloch(0.0, 0.0, 0.0)).value == 0.0
    assert qubit_sio_Cs(QubitBloch(0.0, 0.0, 1.0)).value == 0.0
    # accessible and source coincide on the pure circle
    for z in (0.0, 0.28, -0.6, 0.8):
        r = QubitBloch(RT(1 - z * z), 0.0, z)
        assert_allclose(qubit_sio_Cs(r).value, qubit_sio_Ca(r).value,
                        atol=1e-12)


def test_qubit_pio_accessible_pinned_points():
    peak = qubit_pio_Ca(QubitBloch(RT(0.5), 0.0, RT(0.5)))
    assert_allclose(peak.value, 1.0, atol=1e-10)
    assert_allclose(peak.volume, PIO_SUP, atol=1e-10)
    assert_allclose(qubit_pio_Ca(QubitBloch(1.0, 0.0, 0.0)).value,
                    2.0 / PIO_SUP, atol=1e-12)
    # the normalization is the value on the maximizing family, not a
    # global bound: part of the pure circle exceeds 1, and is reported as is
    tall = qubit_pio_Ca(QubitBloch(0.9, 0.0, RT(0.19)))
    assert tall.value > 1.0


def test_qubit_pio_source_pinned_points():
    assert_allclose(qubit_pio_Cs(QubitBloch(0.0, 0.0, 0.4)).value, 0.0,
                    atol=1e-12)
    # continuous to one on the pure circle, both branch sides
    assert_allclose(qubit_pio_Cs(QubitBloch(1.0, 0.0, 0.0)).value, 1.0,
                    atol=1e-12)
    assert_allclose(qubit_pio_Cs(QubitBloch(0.8, 0.0, 0.6)).value, 1.0,
                    atol=1e-12)
    # interior values stay inside [0, 1]
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.standard_normal(3)
        v *= rng.random() ** (1 / 3) / np.linalg.norm(v)
        value = qubit_pio_Cs(QubitBloch(*v)).value
        assert -1e-12 <= value <= 1.0 + 1e-12


def test_qubit_monotones_accept_tuples():
    direct = qubit_sio_Ca((0.3, 0.4, 0.3))
    wrapped = qubit_sio_Ca(QubitBloch(0.3, 0.4, 0.3))
    assert direct.value == wrapped.value


QUBIT_FORMS = {"sio-Ca": qubit_sio_Ca, "sio-Cs": qubit_sio_Cs,
               "pio-Ca": qubit_pio_Ca, "pio-Cs": qubit_pio_Cs}


@pytest.mark.parametrize("name", sorted(QUBIT_FORMS))
def test_qubit_forms_share_the_batched_kernel(name):
    points = [QubitBloch(0.5, 0.1, 0.3), QubitBloch(0.0, 0.0, 0.4),
              QubitBloch(0.3, 0.0, -0.2), QubitBloch(0.9, 0.0, RT(0.19)),
              QubitBloch(RT(0.5), 0.0, RT(0.5)),
              # pure boundary, including its poles and a point within 1e-12
              QubitBloch(0.6, 0.0, 0.8), QubitBloch(0.6, 0.0, -0.8),
              QubitBloch(1.0, 0.0, 0.0), QubitBloch(0.0, 0.0, 1.0),
              QubitBloch(0.0, 0.6, 0.8 - 1e-13),
              # just inside it: the mixed branch of sio-Cs
              QubitBloch(0.6, 0.0, 0.8 - 1e-9)]
    t = np.array([math.sqrt(r.transverse_sq) for r in points])
    z = np.array([r.r_z for r in points])
    public = np.array([QUBIT_FORMS[name](r).value for r in points])
    scalar = np.array([_qubit_monotone(name, float(ti), float(zi))
                       for ti, zi in zip(t, z)])
    assert np.array_equal(public, scalar)
    assert_allclose(_qubit_monotone(name, t, z), public, rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="unknown monotone"):
        _qubit_monotone("sio-Cx", t, z)


# ---------------------------------------------------------------------------
# one dispatcher: the same value as the public route for every subject


DISPATCH_SUBJECTS = {
    "bloch": QubitBloch(0.5, 0.1, 0.3),
    "bloch-pure": QubitBloch(0.6, 0.0, 0.8),
    "support-1": [1.0, 0.0, 0.0],
    "support-2": [0.7, 0.3],
    "support-3": [0.5, 0.3, 0.2],
    "support-4": [0.4, 0.3, 0.2, 0.1],
    "qutrit": PureState((3,), [RT(0.5), RT(0.3), RT(0.2)]),
    "two-qubit": PureState((2, 2), [0.8, 0, 0, 0.6]),
}

QUBIT_ROUTE = {("accessible", "SIO"): qubit_sio_Ca,
               ("accessible", "IC"): qubit_sio_Ca,
               ("source", "SIO"): qubit_sio_Cs, ("source", "IC"): qubit_sio_Cs,
               ("accessible", "PIO"): qubit_pio_Ca,
               ("source", "PIO"): qubit_pio_Cs}


def public_route(subject, kind, operation_class, planar):
    """The closed-form value as composed from the public functions."""
    if isinstance(subject, QubitBloch):
        if (kind, operation_class) not in QUBIT_ROUTE:
            raise ValueError(f"no closed qubit form for kind={kind!r} "
                             f"class={operation_class!r}")
        return QUBIT_ROUTE[(kind, operation_class)](subject)
    if not (planar or kind == "accessible"):
        return source_coherence_closed(subject, operation_class)
    va, vs, ca, cs = planar_example_volumes(subject, operation_class)
    if len(_select_spectrum(subject, operation_class)) == 3:
        measure, sup = "coordinate-plane", 0.5
    else:
        measure, sup = "sorted-representative", RT(2) / 2
    volume, value = (va, ca) if kind == "accessible" else (vs, cs)
    return MonotoneValue(kind, value, volume, sup, measure, operation_class)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("operation_class",
                         ["IC", "SIO", "PIO", "LICC", "LSICC", "FOO"])
@pytest.mark.parametrize("kind", ["accessible", "source"])
@pytest.mark.parametrize("subject", sorted(DISPATCH_SUBJECTS))
def test_dispatcher_matches_the_public_route(subject, kind, operation_class,
                                             planar):
    subject = DISPATCH_SUBJECTS[subject]
    got = outcome(_closed_monotone, subject, kind, operation_class,
                  planar=planar)
    assert got == outcome(public_route, subject, kind, operation_class, planar)


# ---------------------------------------------------------------------------
# planar example families


def test_planar_example_volumes_three_level():
    va, vs, ca, cs = planar_example_volumes([0.5, 0.3, 0.2])
    assert_allclose(va, 0.08, atol=1e-15)
    assert_allclose(vs, 0.275, atol=1e-15)
    assert_allclose(ca, 0.16, atol=1e-15)
    assert_allclose(cs, 0.45, atol=1e-15)


def test_planar_example_volumes_two_level():
    va, vs, ca, cs = planar_example_volumes([0.6, 0.4])
    assert_allclose(va, RT(2) * 0.4, atol=1e-15)
    assert_allclose(vs, RT(2) * 0.1, atol=1e-15)
    assert ca == cs == pytest.approx(0.8, abs=1e-15)
    # agreement with the permutation-sum source value
    assert_allclose(cs, source_coherence_closed([0.6, 0.4]).value, atol=1e-12)

    # zero entries keep their levels: (1, 0, 0) is the incoherent corner
    # of the coordinate-plane family, (1) the segment family at x = 1
    assert planar_example_volumes([1.0, 0.0, 0.0]) == (0.0, 0.5, 0.0, 0.0)
    va, vs, ca, cs = planar_example_volumes([1.0])
    assert ca == cs == 0.0

    for lam in ([0.4, 0.3, 0.2, 0.1], [1.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="length 4"):
            planar_example_volumes(lam)


def test_planar_example_accepts_states():
    state = PureState((3,), [RT(0.5), RT(0.3), RT(0.2)])
    va, vs, ca, cs = planar_example_volumes(state, "IC")
    assert_allclose((va, vs, ca, cs), (0.08, 0.275, 0.16, 0.45), atol=1e-12)
    # a zero amplitude keeps its level: c = 0 leaves no accessible area
    va, vs, ca, cs = planar_example_volumes(
        PureState((3,), [RT(0.5), RT(0.5), 0]), "IC")
    assert va == ca == 0.0
    assert_allclose((vs, cs), (0.375, 0.25), atol=1e-12)
    # a two-qubit state has four levels, here one of them empty
    with pytest.raises(ValueError, match="length 4"):
        planar_example_volumes(PureState((2, 2), [RT(0.5), RT(0.3), RT(0.2), 0]),
                               "IC")


@pytest.mark.parametrize("d", range(2, 7))
def test_emptying_levels_never_raises_the_closed_values(d):
    # emptying the smallest levels into the largest is a free conversion
    # (the target majorizes the source), so neither closed value may rise
    # along it; the accessible closed form covers length 3
    rng = np.random.default_rng(1400 + d)
    kinds = ("source", "accessible") if d == 3 else ("source",)
    for _ in range(300):
        lam = -np.sort(-rng.standard_exponential(d))
        lam /= lam.sum()
        cut = int(rng.integers(1, d))
        target = np.concatenate([lam[:cut], np.zeros(d - cut)])
        target[0] += lam[cut:].sum()
        assert majorizes(target, lam)
        for kind in kinds:
            rise = (_closed_monotone(target, kind, "IC").value
                    - _closed_monotone(lam, kind, "IC").value)
            assert rise <= 1e-12, (kind, lam, target, rise)


# ---------------------------------------------------------------------------
# region geometry: the emitted boundaries must integrate back to the
# closed-form areas (Green's theorem is an independent evaluation route)


def check_area_matches(subject, operation_class, kind, expected, atol=1e-9):
    geo = region_geometry(subject, operation_class, kind)
    assert geo.kind == kind
    assert_allclose(geo.area(), expected, atol=atol)
    for polyline in geo.boundary_points(32):
        assert polyline.ndim == 2 and polyline.shape[1] == 2


def test_region_geometry_qubit_sio():
    mixed = QubitBloch(0.5, 0.0, 0.3)
    check_area_matches(mixed, "SIO", "accessible",
                       qubit_sio_Ca(mixed).volume)
    check_area_matches(mixed, "SIO", "source",
                       math.pi - math.pi * qubit_sio_Cs(mixed).value)
    pure = QubitBloch(0.6, 0.0, 0.8)
    check_area_matches(pure, "IC", "source",
                       math.pi - math.pi * qubit_sio_Cs(pure).value)


def test_region_geometry_qubit_pio():
    wide = QubitBloch(0.3, 0.0, 0.2)   # cap branch
    check_area_matches(wide, "PIO", "accessible",
                       qubit_pio_Ca(wide).volume)
    check_area_matches(wide, "PIO", "source",
                       math.pi - math.pi * qubit_pio_Cs(wide).value)
    tall = QubitBloch(0.8, 0.0, 0.4)   # sliver branch
    check_area_matches(tall, "PIO", "source",
                       math.pi - math.pi * qubit_pio_Cs(tall).value)


def test_region_geometry_planar():
    va, vs, _, _ = planar_example_volumes([0.5, 0.3, 0.2])
    # coordinate-plane regions carry plain areas (no sqrt(2) scale)
    check_area_matches([0.5, 0.3, 0.2], "IC", "accessible", va)
    check_area_matches([0.5, 0.3, 0.2], "IC", "source", vs)

    va, vs, _, _ = planar_example_volumes([0.6, 0.4])
    check_area_matches([0.6, 0.4], "IC", "accessible", va)
    check_area_matches([0.6, 0.4], "IC", "source", vs)


def test_region_geometry_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        region_geometry(QubitBloch(0.5, 0.0, 0.0), "SIO", "outside")
    with pytest.raises(ValueError, match="no qubit region geometry"):
        region_geometry(QubitBloch(0.5, 0.0, 0.0), "LICC", "source")
    # a bare sequence is a spectrum, never a Bloch vector
    with pytest.raises(ValueError, match="sums to 0.8"):
        region_geometry((0.5, 0.0, 0.3), "SIO", "source")


def test_bloch_vectors_have_no_spectrum():
    for operation_class in ("IC", "SIO", "PIO", "LICC", "FOO"):
        with pytest.raises(ValueError, match="not a Bloch vector"):
            _select_spectrum(QubitBloch(0.5, 0.0, 0.3), operation_class)


def test_as_bloch_reads_pure_qubits_onto_the_sphere():
    rng = np.random.default_rng(2024)
    for amps in rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2)):
        amps /= np.linalg.norm(amps)
        r = _as_bloch(PureState((2,), amps))
        assert abs(r.radius_sq - 1.0) <= 1e-12
        projector = bloch_from_density(np.outer(amps, amps.conj()))
        assert_allclose(r.as_tuple(), projector.as_tuple(), atol=1e-12)
    bloch = QubitBloch(0.5, 0.0, 0.3)
    assert _as_bloch(bloch) is bloch
    for subject in ([0.6, 0.4], PureState((3,), [1, 0, 0])):
        with pytest.raises(ValueError, match="single-qubit state"):
            _as_bloch(subject)


@pytest.mark.parametrize("changes, message", [
    ({"measure": "torus"}, "unknown measure tag"),
    ({"operation_class": "LOCC"}, "unknown operation class"),
    ({"sup_volume": 0.0, "value": 0.0}, "sup_volume must be positive"),
], ids=["measure", "class", "sup-volume"])
def test_monotone_value_rejects_bad_fields(changes, message):
    fields = {"kind": "accessible", "value": 0.5, "volume": 0.5,
              "sup_volume": 1.0, "measure": "coordinate-plane",
              "operation_class": "IC"}
    with pytest.raises(ValueError, match=message):
        MonotoneValue(**(fields | changes))
