"""Tests for the JSON formats and 12-significant-digit float policy."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohertk.channels import random_channel
from cohertk.oracle import VolumeEstimate
from cohertk.serialize import (
    KRAUS_ENTRY_CAP,
    bloch_from_dict,
    bloch_to_dict,
    channel_from_dict,
    channel_to_dict,
    dumps,
    round_floats,
    spectrum_from_dict,
    state_from_dict,
    state_to_dict,
    subject_from_dict,
)
from cohertk.states import PureState, QubitBloch


# ---------------------------------------------------------------------------
# round_floats / dumps


def test_round_floats_trims_to_twelve_significant_digits():
    assert round_floats(math.pi) == 3.14159265359
    assert round_floats(1 / 3) == 0.333333333333
    assert round_floats(1.5e-17) == 1.5e-17  # significant, not absolute
    assert round_floats(123456789012345.0) == 123456789012000.0


def test_round_floats_handles_structured_inputs():
    assert round_floats(2 + 3j) == [2.0, 3.0]
    assert round_floats(float("nan")) is None
    assert round_floats(float("inf")) is None
    assert round_floats(np.float64(0.25)) == 0.25
    assert round_floats(np.int64(7)) == 7
    assert round_floats(np.bool_(True)) is True
    assert round_floats(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]
    assert round_floats({1: [np.float32(0.5)]}) == {"1": [0.5]}
    est = VolumeEstimate(mean=1 / 7, standard_error=0.0,
                         samples=10, seed=3)
    assert round_floats(est) == {
        "mean": 0.142857142857, "standard_error": 0.0,
        "samples": 10, "seed": 3,
    }


def test_dumps_emits_strict_indented_json():
    text = dumps({"value": float("nan"), "flag": np.bool_(False)})
    assert text.endswith("\n")
    assert "\n  " in text  # indented
    assert json.loads(text) == {"value": None, "flag": False}


# ---------------------------------------------------------------------------
# state / bloch / spectrum round trips


def test_state_round_trip_within_tolerance():
    amps = np.array([math.sqrt(1 / 3) * np.exp(1j),
                     math.sqrt(2 / 3) * np.exp(-0.7j)])
    state = PureState((2,), amps)
    parsed = state_from_dict(json.loads(dumps(state_to_dict(state))))
    assert parsed.dims == (2,)
    assert_allclose(parsed.amps, amps, atol=1e-12)


def test_state_from_dict_accepts_bare_reals_and_rejects_malformed():
    parsed = state_from_dict({"dims": [2], "amps": [1.0, 0.0]})
    assert parsed.amps[0] == 1.0 + 0.0j
    with pytest.raises(ValueError, match="malformed state"):
        state_from_dict({"amps": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="re, im"):
        state_from_dict({"dims": [2], "amps": [[1.0, 0.0, 0.0], [0.0]]})


@pytest.mark.parametrize("dims, value", [
    ([2.5], 2.5), ([2.0], 2.0), ([True, 2], True), (["2"], "'2'"),
])
def test_state_from_dict_rejects_non_integer_dims(dims, value):
    # int() would read 2.5 as a qubit and true as a trivial party
    with pytest.raises(ValueError, match=re.escape(
            f"malformed state object: expected an integer, got {value}")):
        state_from_dict({"dims": dims, "amps": [1, 0]})


def test_bloch_round_trip_and_validation():
    r = QubitBloch(0.25, -0.125, 0.5)
    parsed = bloch_from_dict(json.loads(dumps(bloch_to_dict(r))))
    assert (parsed.r_x, parsed.r_y, parsed.r_z) == (0.25, -0.125, 0.5)
    with pytest.raises(ValueError, match="three components"):
        bloch_from_dict({"bloch": [0.1, 0.2]})
    with pytest.raises(ValueError, match="malformed bloch"):
        bloch_from_dict({"vector": [0.1, 0.2, 0.3]})


def test_spectrum_from_dict_is_a_plain_parse():
    values = spectrum_from_dict({"spectrum": [0.5, 0.3, 0.2]})
    assert values.tolist() == [0.5, 0.3, 0.2]
    # no sorting or sum validation at parse time; consumers canonicalize
    assert spectrum_from_dict({"spectrum": [0.1, 0.9]}).tolist() == [0.1, 0.9]
    with pytest.raises(ValueError, match="malformed spectrum"):
        spectrum_from_dict({"spectrum": None})


def test_subject_from_dict_dispatches_on_identifying_key():
    assert isinstance(
        subject_from_dict({"dims": [2], "amps": [[1.0, 0.0], [0.0, 0.0]]}),
        PureState)
    assert isinstance(subject_from_dict({"bloch": [0.0, 0.0, 0.5]}),
                      QubitBloch)
    assert isinstance(subject_from_dict({"spectrum": [0.6, 0.4]}),
                      np.ndarray)
    with pytest.raises(ValueError, match="'amps', 'bloch', 'spectrum'"):
        subject_from_dict({"state": [1, 0]})


# ---------------------------------------------------------------------------
# channels


def check_channel_round_trip(channel):
    parsed = channel_from_dict(json.loads(dumps(channel_to_dict(channel))))
    assert parsed.class_tag == channel.class_tag
    assert parsed.dim == channel.dim
    assert parsed.matrices.shape == channel.matrices.shape
    assert_allclose(parsed.matrices, channel.matrices, rtol=0, atol=1e-12)
    # without the 12-digit rounding the stack comes back exactly
    assert np.array_equal(
        channel_from_dict(channel_to_dict(channel)).matrices, channel.matrices)


def test_channel_round_trips_preserve_kraus_matrices():
    check_channel_round_trip(random_channel("IU", 3, 1, seed=11))
    check_channel_round_trip(random_channel("PIO", 4, 2, seed=12))
    check_channel_round_trip(random_channel("SIO", 3, 3, seed=13))
    check_channel_round_trip(random_channel("IC", 3, 3, seed=14))


def test_channel_from_dict_revalidates_class_tag():
    obj = channel_to_dict(random_channel("IC", 3, 3, seed=14))
    obj["class"] = "IU"  # stronger than the Kraus structure supports
    with pytest.raises(ValueError, match="only IC, weaker"):
        channel_from_dict(obj)


def test_channel_from_dict_rejects_malformed_objects():
    with pytest.raises(ValueError, match="malformed channel"):
        channel_from_dict({"class": "SIO", "dim": 2})
    with pytest.raises(ValueError, match="malformed channel"):
        channel_from_dict({"class": "SIO", "dim": 2,
                           "kraus": [{"entries": [["a", 0, 1.0, 0.0]]}]})


# the JSON bytes of one seeded channel per class
PINNED_CHANNELS = [
    (("IU", 2, 1, 0), [
        [[1, 0, 0.967043856515, 0.254609857579],
         [0, 1, 0.994612827612, 0.103659650535]]]),
    (("PIO", 3, 2, 1), [
        [[0, 0, -0.951842316693, -0.306588003928]],
        [[2, 1, 0.985045400394, 0.172294977186],
         [0, 2, 0.0220717203355, -0.999756389908]]]),
    (("SIO", 2, 2, 2), [
        [[0, 0, 0.810230199312, 0.126601345989],
         [1, 1, -0.245522779178, 0.737548353228]],
        [[1, 0, 0.515104706158, -0.249331636602],
         [0, 1, 0.583816260557, -0.234306562999]]]),
    (("IC", 2, 2, 3), [
        [[0, 0, 0.430466661191, 0.560979904813],
         [0, 1, 0.632083517354, -0.316970703835]],
        [[0, 0, 0.430466661191, 0.560979904813],
         [0, 1, -0.632083517354, 0.316970703835]]]),
]


@pytest.mark.parametrize("args, entries", PINNED_CHANNELS)
def test_channel_json_bytes_are_pinned(args, entries):
    expected = {"class": args[0], "dim": args[1],
                "kraus": [{"entries": op} for op in entries]}
    text = dumps(channel_to_dict(random_channel(*args)))
    assert text == json.dumps(expected, indent=2) + "\n"


def _one_operator(dim, *entries):
    return {"class": "IC", "dim": dim,
            "kraus": [{"entries": [list(e) for e in entries]}]}


@pytest.mark.parametrize("obj, reason", [
    (_one_operator(2, (-1, 0, 1, 0), (1, 1, 1, 0)), "entry (-1,0) outside dim 2"),
    (_one_operator(2, (0, -1, 1, 0), (1, 1, 1, 0)), "entry (0,-1) outside dim 2"),
    (_one_operator(2, (2, 0, 1, 0), (1, 1, 1, 0)), "entry (2,0) outside dim 2"),
    (_one_operator(2, (0, 2, 1, 0), (1, 1, 1, 0)), "entry (0,2) outside dim 2"),
    (_one_operator(2, (0, 0, math.nan, 0), (1, 1, 1, 0)), "entry (0,0) is not finite"),
    (_one_operator(2, (0, 0, 1, math.inf), (1, 1, 1, 0)), "entry (0,0) is not finite"),
    (_one_operator(2, (1, 1, -math.inf, 0)), "entry (1,1) is not finite"),
    (_one_operator(0), "dim must be positive, got 0"),
    (_one_operator(-1), "dim must be positive, got -1"),
])
def test_channel_from_dict_rejects_bad_entries(obj, reason):
    with pytest.raises(ValueError,
                       match=re.escape(f"malformed channel object: {reason}")):
        channel_from_dict(obj)


@pytest.mark.parametrize("column", [
    [(0, 0, 0.5, 0), (1, 0, 0.5, 0)],
    [(0, 0, 0, 0), (0, 0, 1, 0)],
    [(0, 0, 1, 0), (0, 0, 0, 0)],
    [(0, 0, 0, 0), (1, 0, 0, 0)],
])
def test_channel_from_dict_rejects_a_source_column_named_twice(column):
    # whatever the values and their order, a dense stack would keep only
    # the last entry of the column
    with pytest.raises(ValueError, match="malformed channel object: two "
                                         "entries share source column 0"):
        channel_from_dict(_one_operator(2, *column, (1, 1, 1, 0)))


def test_channel_from_dict_needs_a_nonzero_entry_per_column():
    # a completeness check would fail anyway; this one says why, in terms
    # of the entries given
    with pytest.raises(ValueError, match="dim 5 needs a nonzero entry in "
                                         "every column, got 2"):
        channel_from_dict(_one_operator(5, (0, 0, 1, 0), (1, 1, 1, 0)))
    with pytest.raises(ValueError, match="got 1 nonzero"):
        channel_from_dict(_one_operator(2, (0, 0, 1, 0), (1, 1, 0, 0)))
    with pytest.raises(ValueError, match="got 0 nonzero"):
        channel_from_dict({"class": "IC", "dim": 2, "kraus": []})
    # a zero operator is still a member of the set
    swap = {"class": "SIO", "dim": 2, "kraus": [
        {"entries": [[1, 0, 1.0, 0.0], [0, 1, 1.0, 0.0]]}, {"entries": []}]}
    channel = channel_from_dict(swap)
    assert channel.matrices.shape == (2, 2, 2)
    assert channel_to_dict(channel) == swap


@pytest.mark.parametrize("obj, value", [
    ({"class": "IU", "dim": 2.9, "kraus": [
        {"entries": [[0.7, 0, 1, 0], [True, 1.2, 1, 0]]}]}, 2.9),
    ({"class": "IU", "dim": True, "kraus": [{"entries": [[0, 0, 1, 0]]}]},
     True),
    (_one_operator(2, (0, 0, 1, 0), (True, 1, 1, 0)), True),
    (_one_operator(2, (0, 0, 1, 0), (1, 1.0, 1, 0)), 1.0),
    (_one_operator(2, (0, 0, 1, 0), (1, "1", 1, 0)), "'1'"),
])
def test_channel_from_dict_rejects_non_integer_indices(obj, value):
    with pytest.raises(ValueError, match=re.escape(
            f"malformed channel object: expected an integer, got {value}")):
        channel_from_dict(obj)


def _identity_plus_empty(dim, n_kraus):
    return {"class": "IC", "dim": dim, "kraus": [
        {"entries": [[i, i, 1, 0] for i in range(dim)]}]
        + [{"entries": []}] * (n_kraus - 1)}


def test_channel_from_dict_caps_the_stack_before_allocating():
    # n_kraus * dim**2 complex entries: 26 * 100**2 is just under the cap,
    # 27 * 100**2 just over
    assert 26 * 100**2 <= KRAUS_ENTRY_CAP < 27 * 100**2
    channel = channel_from_dict(_identity_plus_empty(100, 26))
    assert channel.matrices.shape == (26, 100, 100)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                "malformed channel object: 27 operators of dim 100 need "
                f"270000 entries, above the cap {KRAUS_ENTRY_CAP}")):
            channel_from_dict(_identity_plus_empty(100, 27))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
