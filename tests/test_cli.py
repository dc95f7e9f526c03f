"""End-to-end tests of the command-line interface.

Most tests drive :func:`cohertk.cli.main` in process and read captured
output; byte-level reproducibility and the seed environment variable
are exercised through real subprocesses.
"""

import itertools
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cohertk import channels, classify, cli
from cohertk.cli import main
from cohertk.feasibility import _select_spectrum, majorization_verdict
from cohertk.monotones import (qubit_pio_Ca, qubit_pio_Cs, qubit_sio_Ca,
                               qubit_sio_Cs)
from cohertk.serialize import dumps, subject_from_dict
from cohertk.states import QubitBloch

R2 = math.sqrt(0.5)
RT = math.sqrt


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def bell(tmp_path):
    return write_json(tmp_path, "bell.json",
                      {"dims": [2, 2],
                       "amps": [[R2, 0.0], [0.0, 0.0], [0.0, 0.0], [R2, 0.0]]})


# ---------------------------------------------------------------------------
# classify / equiv


def test_classify_generic_two_qubit_state(tmp_path, capsys):
    amp = 1.0 / math.sqrt(7.0)
    state = write_json(tmp_path, "state.json",
                       {"dims": [2, 2],
                        "amps": [[amp, 0.0], [2 * amp, 0.0],
                                 [amp, 0.0], [amp, 0.0]]})
    payload = run_json(capsys, "classify", "--state", state)
    assert payload["R"] == 4
    assert payload["support"] == [0, 1, 2, 3]
    r_re, r_im = payload["r"]
    assert r_im == pytest.approx(0.0, abs=1e-12)
    assert r_re == pytest.approx(2.0, abs=1e-9)
    canonical = payload["canonical"]
    invariant = complex(*canonical["invariant"])
    assert abs(invariant - 2.0) < 1e-9 or abs(invariant - 0.5) < 1e-9
    assert canonical["alpha"] == pytest.approx(
        math.sqrt(1.0 / (3.0 + abs(invariant) ** 2 / abs(invariant))),
        abs=1e-6) or canonical["alpha"] > 0  # alpha positive and normalized
    assert 3 * canonical["alpha"] ** 2 \
        + abs(complex(*canonical["beta"])) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_classify_rejects_other_shapes(tmp_path, capsys):
    qubit = write_json(tmp_path, "qubit.json",
                       {"dims": [2], "amps": [[1.0, 0.0], [0.0, 0.0]]})
    code, out, err = run_cli(capsys, "classify", "--state", qubit)
    assert code == 1
    assert "two-qubit" in err


def test_equiv_liu_accepts_relabeled_state(tmp_path, capsys, bell):
    relabeled = write_json(
        tmp_path, "relabeled.json",
        {"dims": [2, 2],
         "amps": [[0.0, 0.0], [R2, 0.0], [0.0, R2], [0.0, 0.0]]})
    payload = run_json(capsys, "equiv", "--first", bell,
                       "--second", relabeled)
    assert payload["method"] == "liu"
    assert payload["equivalent"] is True
    witness = payload["witness"]
    assert len(witness["permutations"]) == 2
    assert len(witness["phases"]) == 2


def test_equiv_liu_rejects_modulus_mismatch(tmp_path, capsys, bell):
    skew = write_json(
        tmp_path, "skew.json",
        {"dims": [2, 2],
         "amps": [[0.8, 0.0], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0]]})
    payload = run_json(capsys, "equiv", "--first", bell, "--second", skew)
    assert payload["equivalent"] is False
    assert "witness" not in payload


def test_equiv_slicc_matches_inverse_invariant(tmp_path, capsys):
    def four_amps(a, b, c, d):
        norm = math.sqrt(a * a + b * b + c * c + d * d)
        return [[a / norm, 0.0], [b / norm, 0.0],
                [c / norm, 0.0], [d / norm, 0.0]]

    first = write_json(tmp_path, "first.json",
                       {"dims": [2, 2], "amps": four_amps(1, 2, 1, 1)})
    second = write_json(tmp_path, "second.json",
                        {"dims": [2, 2], "amps": four_amps(2, 1, 1, 1)})
    payload = run_json(capsys, "equiv", "--method", "slicc",
                       "--first", first, "--second", second)
    assert payload["equivalent"] is True
    assert payload["first"]["rank"] == payload["second"]["rank"] == 4


#: Amplitudes (1, 2, 2, 1) / sqrt(10), with r = ad/(bc) = 1/4.
RANK4_QUARTER = {"dims": [2, 2],
                 "amps": [[RT(0.1), 0.0], [2 * RT(0.1), 0.0],
                          [2 * RT(0.1), 0.0], [RT(0.1), 0.0]]}


def test_classify_prints_the_raw_invariant_and_its_representative(
        tmp_path, capsys):
    # "r" is the representative 4 of {r, 1/r}; the canonical state is
    # built from the raw r = 1/4
    state = write_json(tmp_path, "state.json", RANK4_QUARTER)
    payload = run_json(capsys, "classify", "--state", state)
    assert complex(*payload["r"]) == pytest.approx(4.0, abs=1e-12)
    canonical = payload["canonical"]
    alpha = 1.0 / math.sqrt(3.0 + 1.0 / 16.0)
    assert complex(*canonical["invariant"]) == pytest.approx(0.25, abs=1e-12)
    assert canonical["alpha"] == pytest.approx(alpha, abs=1e-12)
    assert complex(*canonical["beta"]) == pytest.approx(alpha / 4, abs=1e-12)


def test_two_qubit_queries_label_each_state_once(tmp_path, capsys,
                                                 monkeypatch):
    calls, label = [], classify.slicc_class_2qubit

    def counted(state, *args, **kwargs):
        calls.append(state)
        return label(state, *args, **kwargs)

    def no_channel(*args, **kwargs):
        raise AssertionError("classify built an IncoherentChannel")

    for module in (classify, cli):
        monkeypatch.setattr(module, "slicc_class_2qubit", counted)
    monkeypatch.setattr(channels.IncoherentChannel, "__init__", no_channel)
    first = write_json(tmp_path, "first.json",
                       {"dims": [2, 2], "amps": [[0.5, 0.0], [0.5, 0.0],
                                                 [0.5, 0.0], [0.0, 0.5]]})
    second = write_json(tmp_path, "second.json", RANK4_QUARTER)
    run_json(capsys, "classify", "--state", first)
    assert len(calls) == 1
    calls.clear()
    run_json(capsys, "equiv", "--method", "slicc", "--first", first,
             "--second", second)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# feasible


def test_feasible_sio_bloch_shrink(tmp_path, capsys):
    source = write_json(tmp_path, "src.json", {"bloch": [0.6, 0.0, 0.2]})
    target = write_json(tmp_path, "dst.json", {"bloch": [0.3, 0.0, 0.1]})
    payload = run_json(capsys, "feasible", "--source", source,
                       "--target", target, "--class", "SIO")
    assert payload["class"] == "SIO"
    assert payload["feasible"] is True
    assert isinstance(payload["binding"], list)

    reverse = run_json(capsys, "feasible", "--source", target,
                       "--target", source, "--class", "SIO")
    assert reverse["feasible"] is False


def test_feasible_ic_and_locc_pure_states(tmp_path, capsys, bell):
    plus = write_json(tmp_path, "plus.json",
                      {"dims": [2], "amps": [[R2, 0.0], [R2, 0.0]]})
    zero = write_json(tmp_path, "zero.json",
                      {"dims": [2], "amps": [[1.0, 0.0], [0.0, 0.0]]})
    payload = run_json(capsys, "feasible", "--source", plus,
                       "--target", zero, "--class", "IC")
    assert payload["feasible"] is True

    product = write_json(
        tmp_path, "product.json",
        {"dims": [2, 2],
         "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    payload = run_json(capsys, "feasible", "--source", bell,
                       "--target", product, "--class", "LOCC",
                       "--cut", "1")
    assert payload["feasible"] is True


def test_cut_names_the_one_party_on_the_left(tmp_path, capsys):
    # |0> (|00> + |11>)/sqrt 2 is a product across {0}|{1,2}, so |000>
    # reaches it under LOCC at --cut 0, but across {1}|{0,2} its Schmidt
    # vector is (1/2, 1/2) and |000> cannot reach it at --cut 1
    zeros = write_json(tmp_path, "zeros.json",
                       {"dims": [2, 2, 2],
                        "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 7})
    amps = [[0.0, 0.0]] * 8
    amps[0b000] = amps[0b011] = [R2, 0.0]
    pair = write_json(tmp_path, "pair.json", {"dims": [2, 2, 2], "amps": amps})
    argv = ["feasible", "--class", "LOCC", "--source", zeros, "--target", pair]
    assert run_json(capsys, *argv, "--cut", "0")["feasible"] is True
    assert run_json(capsys, *argv)["feasible"] is True
    assert run_json(capsys, *argv, "--cut", "1")["feasible"] is False
    for command in ("feasible", "monotone", "volume"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--cut CUT index of the party on the left of the cut "
                "(default 0)") in " ".join(capsys.readouterr().out.split())


def test_feasible_licc_reads_the_cut_and_ic_ignores_it(tmp_path, capsys,
                                                       bell):
    argv = ["feasible", "--source", bell, "--target", bell]
    licc = run_cli(capsys, *argv, "--class", "LICC")
    assert licc[0] == 0
    assert run_cli(capsys, *argv, "--class", "LICC", "--cut", "1") == licc
    assert run_cli(capsys, *argv, "--class", "LICC", "--cut", "5")[0] == 1
    # IC decides pure states by their dephased spectra, with no cut
    assert (run_cli(capsys, *argv, "--class", "IC", "--cut", "5")
            == run_cli(capsys, *argv, "--class", "IC"))


def test_feasible_ic_bloch_routes_to_qubit_criterion(tmp_path, capsys):
    source = write_json(tmp_path, "src.json", {"bloch": [0.6, 0.0, 0.2]})
    target = write_json(tmp_path, "dst.json", {"bloch": [0.3, 0.0, 0.1]})
    ic = run_json(capsys, "feasible", "--source", source,
                  "--target", target, "--class", "IC")
    sio = run_json(capsys, "feasible", "--source", source,
                   "--target", target, "--class", "SIO")
    assert ic["feasible"] is sio["feasible"] is True
    assert ic["binding"] == sio["binding"]

    reverse = run_json(capsys, "feasible", "--source", target,
                       "--target", source, "--class", "IC")
    assert reverse["feasible"] is False


@pytest.mark.parametrize("cls", ["IC", "SIO"])
def test_feasible_decides_two_spectra_by_majorization(tmp_path, capsys, cls):
    # a spectrum file is read as itself, as monotone and volume read it:
    # (.5, .3, .2) -> (.7, .2, .1) is feasible, the reverse is not
    flat = write_json(tmp_path, "flat.json", {"spectrum": [0.5, 0.3, 0.2]})
    peaked = write_json(tmp_path, "peaked.json", {"spectrum": [0.7, 0.2, 0.1]})
    forward = run_json(capsys, "feasible", "--class", cls, "--source", flat,
                       "--target", peaked)
    assert forward == {"class": cls, "feasible": True,
                       "binding": ["partial-sum 3: tight"]}
    reverse = run_json(capsys, "feasible", "--class", cls, "--source", peaked,
                       "--target", flat)
    assert reverse["feasible"] is False
    assert reverse["binding"][:2] == ["partial-sum 1: violated by 0.2",
                                      "partial-sum 2: violated by 0.1"]


@pytest.mark.parametrize("cls", ["IC", "SIO"])
def test_feasible_spectra_whose_totals_round_apart(tmp_path, capsys, cls):
    # both totals pass the normalization check, so the total row is tight
    source = write_json(tmp_path, "source.json",
                        {"spectrum": [0.5000000005, 0.5]})
    target = write_json(tmp_path, "target.json", {"spectrum": [1.0, 0.0]})
    assert run_json(capsys, "feasible", "--class", cls, "--source", source,
                    "--target", target) == {
        "class": cls, "feasible": True, "binding": ["partial-sum 2: tight"]}


@pytest.mark.parametrize("cls", ["IC", "SIO"])
def test_feasible_rejects_spectra_of_different_lengths(tmp_path, capsys, cls):
    # as for two pure states: no zero padding of the shorter spectrum
    pair = write_json(tmp_path, "pair.json", {"spectrum": [0.5, 0.5]})
    three = write_json(tmp_path, "three.json", {"spectrum": [0.5, 0.5, 0.0]})
    for source, target in ((pair, three), (three, pair)):
        code, out, err = run_cli(capsys, "feasible", "--class", cls,
                                 "--source", source, "--target", target)
        assert (code, out) == (1, "")
        assert err == ("cohertk: error: spectra live on different total "
                       "dimensions\n")


@pytest.mark.parametrize("cls", ["IC", "SIO", "LICC", "LOCC"])
def test_feasible_keeps_a_spectrum_against_a_pure_state_out(tmp_path, capsys,
                                                            cls):
    spectrum = write_json(tmp_path, "spec.json", {"spectrum": [0.5, 0.5]})
    plus = write_json(tmp_path, "plus.json",
                      {"dims": [2], "amps": [[R2, 0.0], [R2, 0.0]]})
    for source, target in ((spectrum, plus), (plus, spectrum)):
        code, out, err = run_cli(capsys, "feasible", "--class", cls,
                                 "--source", source, "--target", target)
        assert (code, out) == (1, "")
        assert err == (f"cohertk: error: {cls} feasibility compares two "
                       "pure states\n")


def test_feasible_licc_skew_state_exits_2(tmp_path, capsys, bell):
    skew = write_json(
        tmp_path, "skew.json",
        {"dims": [2, 2],
         "amps": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]})
    code, out, err = run_cli(capsys, "feasible", "--source", skew,
                             "--target", bell, "--class", "LICC")
    assert code == 2
    payload = json.loads(out)
    assert payload["applicable"] is False
    assert payload["reason"]


@pytest.mark.parametrize("state", [
    {"dims": [2, 2, 2], "amps": [[R2, 0.0]] + [[0.0, 0.0]] * 6 + [[R2, 0.0]]},
    {"dims": [2, 2], "amps": [[0.5, 0.0]] * 4},
], ids=["ghz", "skew"])
def test_licc_precondition_answers_alike_everywhere(tmp_path, capsys, state):
    # one reader decides whether a state has an LICC spectrum, so a
    # feasibility query and a monotone query on it fail the same way
    path = write_json(tmp_path, "state.json", state)
    answers = [run_cli(capsys, *argv) for argv in (
        ("feasible", "--class", "LICC", "--source", path, "--target", path),
        ("monotone", "--kind", "source", "--class", "LICC", "--state", path),
        ("volume", "--method", "exact", "--class", "LICC", "--state", path))]
    assert {code for code, _, _ in answers} == {2}
    assert len({out for _, out, _ in answers}) == 1
    assert json.loads(answers[0][1])["applicable"] is False


@pytest.mark.parametrize("argv", [
    ("feasible", "--class", "LICC", "--source", "SKEW", "--target", "SKEW"),
    ("monotone", "--kind", "source", "--class", "LICC", "--state", "SKEW"),
], ids=["feasible", "monotone"])
def test_undecided_payload_follows_output(tmp_path, capsys, argv):
    # the exit-2 payload goes where --output says, as every result does
    skew = write_json(tmp_path, "skew.json",
                      {"dims": [2, 2], "amps": [[0.5, 0.0]] * 4})
    argv = [skew if arg == "SKEW" else arg for arg in argv]
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 2
    out_file = tmp_path / "out.json"
    assert run_cli(capsys, *argv, "--output", str(out_file)) == (2, "", "")
    assert out_file.read_text(encoding="utf-8") == printed


def test_feasible_unknown_class_exits_1(tmp_path, capsys, bell):
    code, _, err = run_cli(capsys, "feasible", "--source", bell,
                           "--target", bell, "--class", "MIO")
    assert code == 1
    assert "unknown operation class" in err


# ---------------------------------------------------------------------------
# monotone


def test_monotone_source_spectrum_value(tmp_path, capsys):
    spectrum = write_json(tmp_path, "spec.json", {"spectrum": [0.6, 0.4]})
    payload = run_json(capsys, "monotone", "--kind", "source",
                       "--class", "IC", "--state", spectrum)
    assert payload["value"] == 0.8
    assert payload["measure"] == "sorted-representative"


def test_monotone_qubit_closed_form(tmp_path, capsys):
    bloch = write_json(tmp_path, "r.json", {"bloch": [0.3, 0.4, 0.3]})
    payload = run_json(capsys, "monotone", "--kind", "accessible",
                       "--class", "SIO", "--state", bloch)
    expected = qubit_sio_Ca(QubitBloch(0.3, 0.4, 0.3))
    assert payload["value"] == pytest.approx(expected.value, abs=1e-12)
    # 12 significant digits on a magnitude-1.6 number: ~5e-12 absolute
    assert payload["volume"] == pytest.approx(expected.volume, rel=1e-11)

    code, _, err = run_cli(capsys, "monotone", "--kind", "accessible",
                           "--class", "LICC", "--state", bloch)
    assert code == 1
    assert "no closed qubit form" in err


def test_monotone_planar_accessible(tmp_path, capsys):
    spectrum = write_json(tmp_path, "three.json",
                          {"spectrum": [0.5, 0.3, 0.2]})
    payload = run_json(capsys, "monotone", "--kind", "accessible",
                       "--state", spectrum)
    assert payload["volume"] == pytest.approx(0.08, abs=1e-12)
    assert payload["value"] == pytest.approx(0.16, abs=1e-12)
    assert payload["measure"] == "coordinate-plane"
    assert payload["sup_volume"] == 0.5


def test_free_conversion_raises_neither_closed_value(tmp_path, capsys):
    # (.4, .3, .3) -> (.5, .5, 0) is IC feasible; measured in the full
    # simplex, the emptied level lowers both values instead of raising them
    source = write_json(tmp_path, "a.json",
                        {"dims": [3], "amps": [[RT(0.4), 0.0], [RT(0.3), 0.0],
                                               [RT(0.3), 0.0]]})
    target = write_json(tmp_path, "b.json",
                        {"dims": [3], "amps": [[RT(0.5), 0.0], [RT(0.5), 0.0],
                                               [0.0, 0.0]]})
    assert run_json(capsys, "feasible", "--class", "IC", "--source", source,
                    "--target", target)["feasible"] is True
    for kind, before, after in (("source", 0.99, 0.75),
                                ("accessible", 0.27, 0.0)):
        values = [run_json(capsys, "monotone", "--kind", kind,
                           "--state", state)["value"]
                  for state in (source, target)]
        assert values == pytest.approx([before, after], abs=1e-12), kind


# ---------------------------------------------------------------------------
# volume


@pytest.mark.parametrize("subject", [
    (16, 0), (8, 8, 0), (12, 4, 0), (16, 0, 0), (8, 8, 0, 0), (6, 5, 5, 0),
    (9, 4, 3, 0, 0), (8, 4, 2, 2, 0), (8, 4, 2, 1, 1, 0), (10, 6, 0, 0, 0, 0),
    "bell"], ids=str)
def test_volume_closed_equals_exact_with_zero_entries(tmp_path, capsys, bell,
                                                      subject):
    # both measure the polytope of the full-length spectrum; dyadic
    # entries (sixteenths) are exact as floats
    state = bell if subject == "bell" else write_json(
        tmp_path, "subject.json", {"spectrum": [k / 16 for k in subject]})
    closed, exact = (run_json(capsys, "volume", "--method", method,
                              "--state", state)["volume"]
                     for method in ("closed", "exact"))
    assert closed == pytest.approx(exact, rel=0, abs=1e-12)


def test_volume_exact_method(tmp_path, capsys):
    spectrum = write_json(tmp_path, "spec.json", {"spectrum": [0.6, 0.4]})
    payload = run_json(capsys, "volume", "--method", "exact",
                       "--state", spectrum)
    assert payload["method"] == "exact"
    assert payload["volume"] == pytest.approx(0.2 * R2, abs=1e-12)

    # LICC reads the Schmidt coefficients (0.64, 0.36), not the dephased
    # spectrum, on the exact path as on the closed one
    state = write_json(tmp_path, "psi.json",
                       {"dims": [2, 2], "amps": [[0.8, 0.0], [0.0, 0.0],
                                                 [0.0, 0.0], [0.6, 0.0]]})
    exact = run_json(capsys, "volume", "--method", "exact",
                     "--class", "LICC", "--state", state)
    closed = run_json(capsys, "volume", "--method", "closed",
                      "--class", "LICC", "--state", state)
    assert exact["volume"] == pytest.approx(closed["volume"], abs=1e-12)


@pytest.mark.parametrize("spectrum, volume", [
    ([0.5, 0.3, 0.2], "0.0187638837487"),
    ([0.4, 0.3, 0.2, 0.1], "0.00133333333333"),
    ([0.35, 0.25, 0.2, 0.1, 0.1], "3.10322367971e-05"),
    ([0.3, 0.2, 0.2, 0.15, 0.1, 0.05], "9.34683043488e-07"),
    ([1, 0, 0, 0], "0.0138888888889"),
    ([0.25] * 4, "0.0"),
])
def test_volume_exact_bytes_are_pinned(tmp_path, capsys, spectrum, volume):
    # the bytes the generic vertex search printed
    path = write_json(tmp_path, "spec.json", {"spectrum": spectrum})
    assert run_cli(capsys, "volume", "--method", "exact", "--state", path) \
        == (0, '{\n  "method": "exact",\n  "volume": %s\n}\n' % volume, "")


def test_volume_exact_reaches_length_8(tmp_path, capsys):
    spectrum = [k / 16 for k in (4, 3, 3, 2, 1, 1, 1, 1)]
    path = write_json(tmp_path, "spec.json", {"spectrum": spectrum})
    closed, exact = (run_json(capsys, "volume", "--method", method,
                              "--state", path)["volume"]
                     for method in ("closed", "exact"))
    assert exact == pytest.approx(closed, rel=1e-9, abs=0)


def test_exact_volumes_reach_length_9(tmp_path, capsys):
    spectrum = [k / 64 for k in (20, 12, 9, 7, 6, 4, 3, 2, 1)]
    path = write_json(tmp_path, "spec.json", {"spectrum": spectrum})
    closed, exact = (run_json(capsys, "volume", "--method", method,
                              "--state", path)["volume"]
                     for method in ("closed", "exact"))
    assert exact == pytest.approx(closed, rel=1e-9, abs=0)
    report = run_json(capsys, "check", "--suite", "identity", "--dims", "9",
                      "--count", "2")
    assert report["dims"] == [9] and report["max_abs_difference"] < 1e-20


def test_volume_exact_rejects_accessible_kind(tmp_path, capsys):
    spectrum = write_json(tmp_path, "spec.json",
                          {"spectrum": [0.4, 0.3, 0.2, 0.1]})
    code, out, err = run_cli(capsys, "volume", "--method", "exact",
                             "--kind", "accessible", "--state", spectrum)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert "only the source polytope" in err
    # the source kind, explicit or by default, is served as before
    explicit = run_cli(capsys, "volume", "--method", "exact",
                       "--kind", "source", "--state", spectrum)
    default = run_cli(capsys, "volume", "--method", "exact",
                      "--state", spectrum)
    assert explicit == default and explicit[0] == 0


def test_volume_mc_bloch_matches_closed_form(tmp_path, capsys):
    bloch = write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]})
    payload = run_json(capsys, "volume", "--method", "mc",
                       "--kind", "accessible", "--class", "SIO",
                       "--state", bloch, "--samples", "100000",
                       "--seed", "7")
    estimate = payload["estimate"]
    assert payload["region"] == "bloch-disc"
    assert estimate["samples"] == 100000 and estimate["seed"] == 7
    closed = qubit_sio_Ca(QubitBloch(0.5, 0.0, 0.3)).volume
    assert abs(estimate["mean"] - closed) <= 5 * estimate["standard_error"]

    code, _, err = run_cli(capsys, "volume", "--method", "mc",
                           "--kind", "accessible", "--class", "SIO",
                           "--state", bloch, "--region", "simplex-sorted")
    assert code == 1
    assert "bloch-disc" in err


def test_volume_mc_planar_region(tmp_path, capsys):
    spectrum = write_json(tmp_path, "three.json",
                          {"spectrum": [0.5, 0.3, 0.2]})
    payload = run_json(capsys, "volume", "--method", "mc",
                       "--kind", "source", "--region", "coordinate-plane",
                       "--state", spectrum, "--samples", "100000",
                       "--seed", "11")
    estimate = payload["estimate"]
    assert abs(estimate["mean"] - 0.275) <= 5 * estimate["standard_error"]


def test_volume_closed_dispatch(tmp_path, capsys):
    spectrum = write_json(tmp_path, "spec.json", {"spectrum": [0.6, 0.4]})
    payload = run_json(capsys, "volume", "--method", "closed",
                       "--kind", "source", "--state", spectrum)
    assert payload["value"] == 0.8

    bloch = write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]})
    payload = run_json(capsys, "volume", "--method", "closed",
                       "--kind", "accessible", "--class", "PIO",
                       "--state", bloch)
    assert payload["volume"] == pytest.approx(2 * 0.5 * 1.3, abs=1e-12)


def test_volume_closed_honours_an_explicit_sorted_region(tmp_path, capsys):
    three = write_json(tmp_path, "three.json", {"spectrum": [0.5, 0.3, 0.2]})
    two = write_json(tmp_path, "two.json", {"spectrum": [0.7, 0.3]})
    closed = ["volume", "--method", "closed", "--kind", "accessible"]
    sorted_region = ["--region", "simplex-sorted"]
    # without --region the length-3 form keeps its coordinate-plane reading
    default = run_json(capsys, *closed, "--state", three)
    assert default["measure"] == "coordinate-plane" and default["volume"] == 0.08
    code, out, err = run_cli(capsys, *closed, *sorted_region, "--state", three)
    assert (code, out) == (1, "")
    assert "--region coordinate-plane" in err and "--method mc" in err
    # length 2 has a sorted-representative form, served either way
    assert (run_cli(capsys, *closed, *sorted_region, "--state", two)
            == run_cli(capsys, *closed, "--state", two))


# ---------------------------------------------------------------------------
# check / counterexample


def test_check_identity_suite(capsys):
    payload = run_json(capsys, "check", "--suite", "identity",
                       "--count", "5", "--dims", "2,3")
    assert payload["max_abs_difference"] < 1e-9
    assert payload["dims"] == [2, 3]


@pytest.mark.parametrize("argv, dims, difference", [
    ([], "2,\n    3,\n    4", "2.77555756156e-17"),
    (["--count", "3", "--dims", "1,5,6", "--seed", "9"], "1,\n    5,\n    6",
     "1.08420217249e-19"),
])
def test_check_identity_bytes_are_pinned(capsys, argv, dims, difference):
    # the bytes the generic vertex search and spectrum loop printed
    code, out, err = run_cli(capsys, "check", "--suite", "identity", *argv)
    count, seed = (argv[1], argv[5]) if argv else ("100", "715517")
    assert (code, err) == (0, "")
    assert out == ('{\n  "count": %s,\n  "dims": [\n    %s\n  ],\n'
                   '  "seed": %s,\n  "max_abs_difference": %s\n}\n'
                   % (count, dims, seed, difference))


@pytest.mark.parametrize("dims", ["2,x", ""])
def test_check_identity_names_the_dims_flag(capsys, dims):
    assert run_cli(capsys, "check", "--suite", "identity", "--dims", dims) == (
        1, "", "cohertk: error: --dims takes comma-separated integers, "
               f"got {dims!r}\n")


def test_check_monotonicity_suite(capsys):
    payload = run_json(capsys, "check", "--suite", "monotonicity",
                       "--monotone", "sio-Ca", "--class", "SIO",
                       "--trials", "200", "--seed", "3")
    assert payload["violations"] == 0
    assert payload["trials"] == 200 and payload["seed"] == 3

    code, _, err = run_cli(capsys, "check", "--suite", "monotonicity",
                           "--trials", "10")
    assert code == 1
    assert "--monotone is required" in err


def test_check_lemma1_suite(capsys):
    payload = run_json(capsys, "check", "--suite", "lemma1",
                       "--trials", "100", "--seed", "9")
    assert payload["violations"] == 0
    assert payload["max_increase"] <= 0


def test_counterexample_coarse_grid(capsys):
    payload = run_json(capsys, "counterexample", "--step", "0.2")
    assert payload["largest_eigenvalue_check"] == pytest.approx(
        (1 + math.sqrt(0.02)) / 2, abs=1e-12)
    assert len(payload["printed_instances"]) == 4
    assert len(payload["grid"]) == 8


# ---------------------------------------------------------------------------
# plot


def test_plot_qutrit_svg_metadata(tmp_path, capsys):
    spectrum = write_json(tmp_path, "three.json",
                          {"spectrum": [0.5, 0.3, 0.2]})
    code, out, err = run_cli(capsys, "plot", "--figure", "qutrit",
                             "--state", spectrum)
    assert code == 0
    root = ET.fromstring(out)
    ns = "{http://www.w3.org/2000/svg}"
    metadata = json.loads(root.find(f"{ns}metadata").text)
    assert metadata["source_area"] == pytest.approx(0.275, abs=1e-12)
    assert metadata["source_volume"] == pytest.approx(0.275, abs=1e-12)
    assert metadata["accessible_value"] == pytest.approx(0.16, abs=1e-12)
    assert metadata["source_value"] == pytest.approx(0.45, abs=1e-12)


def test_plot_two_level_values_coincide(tmp_path, capsys):
    spectrum = write_json(tmp_path, "two.json", {"spectrum": [0.6, 0.4]})
    code, out, _ = run_cli(capsys, "plot", "--figure", "two-level",
                           "--state", spectrum)
    assert code == 0
    ns = "{http://www.w3.org/2000/svg}"
    metadata = json.loads(ET.fromstring(out).find(f"{ns}metadata").text)
    assert metadata["accessible_value"] == metadata["source_value"] == 0.8


def test_plot_csv_and_output_file(tmp_path, capsys):
    bloch = write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]})
    code, out, _ = run_cli(capsys, "plot", "--figure", "qubit-sio",
                           "--state", bloch, "--format", "csv")
    assert code == 0
    assert out.startswith("region,component,x,y\n")

    target = tmp_path / "figure.svg"
    code, out, _ = run_cli(capsys, "plot", "--figure", "qubit-sio",
                           "--state", bloch, "--output", str(target))
    assert code == 0
    assert out == ""
    ET.fromstring(target.read_text(encoding="utf-8"))


PLOT_SUBJECTS = {
    "bloch": {"bloch": [0.5, 0.0, 0.3]},
    "qubit-state": {"dims": [2], "amps": [[RT(0.7), 0.0], [RT(0.3), 0.0]]},
    "spectrum-2": {"spectrum": [0.6, 0.4]},
    "spectrum-3": {"spectrum": [0.5, 0.3, 0.2]},
    "qutrit-state": {"dims": [3], "amps": [[RT(0.5), 0.0], [0.0, RT(0.3)],
                                            [RT(0.2), 0.0]]},
}


@pytest.mark.parametrize("subject", sorted(PLOT_SUBJECTS))
@pytest.mark.parametrize("figure", ["qubit-sio", "qubit-pio", "qutrit",
                                    "two-level"])
def test_plot_formats_read_the_subject_alike(tmp_path, capsys, figure,
                                             subject):
    # svg and csv draw the same regions, and the svg metadata describes
    # the regions it draws
    state = write_json(tmp_path, "subject.json", PLOT_SUBJECTS[subject])
    runs = {fmt: run_cli(capsys, "plot", "--figure", figure, "--format",
                         fmt, "--state", state) for fmt in ("svg", "csv")}
    assert runs["svg"][0] == runs["csv"][0]
    code, svg, err = runs["svg"]
    if code != 0:
        assert svg == "" and err.startswith("cohertk: error:")
    else:
        ns = "{http://www.w3.org/2000/svg}"
        metadata = json.loads(ET.fromstring(svg).find(f"{ns}metadata").text)
        for kind in ("accessible", "source"):
            assert metadata[f"{kind}_area"] == pytest.approx(
                metadata[f"{kind}_volume"], abs=1e-6)


def test_plot_qubit_state_draws_its_bloch_regions(tmp_path, capsys):
    # the state (sqrt(0.7), sqrt(0.3)) has Bloch vector (2 sqrt(0.21), 0, 0.4)
    state = write_json(tmp_path, "q.json", PLOT_SUBJECTS["qubit-state"])
    bloch = QubitBloch(2 * RT(0.21), 0.0, 0.4)
    ns = "{http://www.w3.org/2000/svg}"
    for figure, forms in (("qubit-sio", (qubit_sio_Ca, qubit_sio_Cs)),
                          ("qubit-pio", (qubit_pio_Ca, qubit_pio_Cs))):
        code, out, _ = run_cli(capsys, "plot", "--figure", figure,
                               "--state", state)
        assert code == 0
        metadata = json.loads(ET.fromstring(out).find(f"{ns}metadata").text)
        assert metadata["measure"] == "bloch-halfplane"
        for kind, form in zip(("accessible", "source"), forms):
            assert metadata[f"{kind}_volume"] == pytest.approx(
                form(bloch).volume, abs=1e-9)


# ---------------------------------------------------------------------------
# error handling and argument parsing


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "classify", "--state", "no-such.json")
    assert code == 1
    assert "error" in err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", "--state", str(path))
    assert code == 1


def test_unknown_subject_key_exits_1(tmp_path, capsys):
    path = write_json(tmp_path, "odd.json", {"state": [1, 0]})
    code, _, err = run_cli(capsys, "classify", "--state", path)
    assert code == 1
    assert "'amps', 'bloch', 'spectrum'" in err


def test_non_integer_dims_exit_1(tmp_path, capsys):
    # int() used to read 2.5 as 2, and the state as a qubit
    path = write_json(tmp_path, "half.json", {"dims": [2.5], "amps": [1, 0]})
    code, out, err = run_cli(capsys, "monotone", "--kind", "source",
                             "--state", path)
    assert (code, out) == (1, "")
    assert err == ("cohertk: error: malformed state object: expected an "
                   "integer, got 2.5\n")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["volume"])  # missing required --state
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["classify", "--frobnicate"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])  # missing subcommand
    assert info.value.code == 1


def test_bad_seed_environment_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COHERTK_SEED", "not-a-number")
    bloch = write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]})
    code, _, err = run_cli(capsys, "volume", "--method", "mc",
                           "--kind", "accessible", "--class", "SIO",
                           "--state", bloch, "--samples", "1000")
    assert code == 1
    assert "COHERTK_SEED" in err


@pytest.mark.parametrize("command", ["volume", "check"])
def test_negative_seed_exits_1_naming_its_source(tmp_path, capsys,
                                                 monkeypatch, command):
    bloch = write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]})
    argv = {"volume": ["volume", "--method", "mc", "--kind", "accessible",
                       "--class", "SIO", "--state", bloch,
                       "--samples", "1000"],
            "check": ["check", "--suite", "lemma1", "--trials", "5"]}[command]
    monkeypatch.delenv("COHERTK_SEED", raising=False)
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (1, "")
    assert err == ("cohertk: error: --seed must be a non-negative integer, "
                   "got -1\n")

    monkeypatch.setenv("COHERTK_SEED", "-3")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("cohertk: error: COHERTK_SEED must be a non-negative "
                   "integer: '-3'\n")
    # --seed overrides the environment, and 0 is a seed
    assert run_cli(capsys, *argv, "--seed", "0")[0] == 0


def test_bad_seed_environment_spares_methods_that_draw_nothing(
        tmp_path, capsys, monkeypatch):
    spectrum = write_json(tmp_path, "spec.json", {"spectrum": [0.5, 0.3, 0.2]})
    runs = {}
    for seed in (None, "abc"):
        if seed is None:
            monkeypatch.delenv("COHERTK_SEED", raising=False)
        else:
            monkeypatch.setenv("COHERTK_SEED", seed)
        for method in ("closed", "exact"):
            runs[seed, method] = run_cli(capsys, "volume", "--method", method,
                                         "--state", spectrum)
    for method in ("closed", "exact"):
        assert runs["abc", method] == runs[None, method]
        assert runs[None, method][0] == 0


def test_reused_parser_carries_nothing_between_calls(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.delenv("COHERTK_SEED", raising=False)
    bloch = write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]})
    volume = ["volume", "--method", "mc", "--kind", "accessible",
              "--class", "SIO", "--state", bloch, "--samples", "2000"]
    default = run_cli(capsys, *volume)
    seeded = run_cli(capsys, *volume, "--seed", "5")
    assert seeded != default
    assert run_cli(capsys, *volume) == default

    # a usage error leaves the next valid call's output alone
    with pytest.raises(SystemExit):
        main(["volume", "--method", "mc", "--frobnicate"])
    capsys.readouterr()
    assert run_cli(capsys, *volume) == default

    # --output on one call does not redirect the next
    target = tmp_path / "out.json"
    assert run_cli(capsys, *volume, "--output", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == default[1]
    assert run_cli(capsys, *volume) == default


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "lemma1", "--trials", "0"],
    ["check", "--suite", "monotonicity", "--monotone", "sio-Ca",
     "--class", "SIO", "--trials", "-5"],
    ["check", "--suite", "identity", "--count", "0"],
    ["counterexample", "--step", "0"],
    ["counterexample", "--step", "-1"],
    ["monotone", "--kind", "source", "--class", "SIO", "--state", "NAN"],
    ["volume", "--method", "exact", "--class", "FOO", "--state", "SPEC"],
    ["volume", "--method", "mc", "--class", "FOO", "--samples", "1000",
     "--state", "SPEC"],
    ["monotone", "--kind", "accessible", "--class", "FOO", "--state", "SPEC"],
    # the planar figures take a state or spectrum, not a Bloch vector
    ["plot", "--figure", "qutrit", "--state", "BLOCH"],
    ["plot", "--figure", "two-level", "--state", "BLOCH"],
    ["plot", "--figure", "qutrit", "--format", "csv", "--state", "BLOCH"],
    # and each draws one spectrum length only
    ["plot", "--figure", "two-level", "--state", "SPEC"],
    ["plot", "--figure", "qutrit", "--state", "TWO"],
    # majorization does not govern PIO, so spectra have no PIO rule
    ["monotone", "--kind", "source", "--class", "PIO", "--state", "SPEC"],
    ["monotone", "--kind", "accessible", "--class", "PIO", "--state", "SPEC"],
    ["volume", "--method", "closed", "--class", "PIO", "--state", "SPEC"],
    ["volume", "--method", "exact", "--class", "PIO", "--state", "SPEC"],
    ["volume", "--method", "mc", "--class", "PIO", "--samples", "1000",
     "--state", "SPEC"],
    # --region is checked against the subject on every method
    ["volume", "--method", "closed", "--region", "frobnicate",
     "--state", "SPEC"],
    ["volume", "--method", "exact", "--region", "coordinate-plane",
     "--state", "SPEC"],
    ["volume", "--method", "closed", "--region", "coordinate-plane",
     "--state", "BLOCH"],
    # a length-3 accessible closed form exists only in the coordinate plane
    ["volume", "--method", "closed", "--kind", "accessible",
     "--region", "simplex-sorted", "--state", "SPEC"],
    # --cut is checked on every class that reads a Schmidt cut
    ["feasible", "--class", "LICC", "--cut", "5", "--source", "BELL",
     "--target", "BELL"],
    ["feasible", "--class", "LOCC", "--cut", "5", "--source", "BELL",
     "--target", "BELL"],
    ["monotone", "--kind", "source", "--class", "LICC", "--cut", "5",
     "--state", "BELL"],
    # d! (d-1)! overflows a float for length-200 spectra
    ["monotone", "--kind", "source", "--state", "LONG"],
    ["volume", "--method", "closed", "--state", "LONG"],
    ["volume", "--method", "mc", "--samples", "1000", "--state", "FLAT"],
    # identity dims are checked before anything is computed
    ["check", "--suite", "identity", "--dims", "200", "--count", "1"],
    ["check", "--suite", "identity", "--dims", "2,100000000", "--count", "1"],
    ["check", "--suite", "identity", "--dims", "0", "--count", "1"],
    ["check", "--suite", "identity", "--dims", "10", "--count", "1"],
    ["check", "--suite", "identity", "--dims", "2,x", "--count", "1"],
    ["check", "--suite", "identity", "--dims", "", "--count", "1"],
    # exact volumes stop at length 9
    ["volume", "--method", "exact", "--state", "TEN"],
])
def test_out_of_range_input_exits_1(tmp_path, capsys, argv):
    # dumps would write NaN as null, so the file is written by hand
    nan_bloch = tmp_path / "nan.json"
    nan_bloch.write_text('{"bloch": [NaN, 0, 0.2]}', encoding="utf-8")
    files = {
        "NAN": str(nan_bloch),
        "SPEC": write_json(tmp_path, "spec.json", {"spectrum": [0.5, 0.3, 0.2]}),
        "TWO": write_json(tmp_path, "two.json", {"spectrum": [0.7, 0.3]}),
        "BLOCH": write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]}),
        "LONG": write_json(tmp_path, "long.json",
                           {"spectrum": [0.5, 0.5] + [0.0] * 198}),
        "FLAT": write_json(tmp_path, "flat.json", {"spectrum": [0.005] * 200}),
        "TEN": write_json(tmp_path, "ten.json",
                          {"spectrum": [0.2] + [0.1] * 7 + [0.05] * 2}),
        "BELL": write_json(tmp_path, "bell.json",
                           {"dims": [2, 2], "amps": [[R2, 0.0], [0.0, 0.0],
                                                     [0.0, 0.0], [R2, 0.0]]}),
    }
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("cohertk: error:") and err.count("\n") == 1


MATRIX_SUBJECTS = {
    "spectrum": {"spectrum": [0.5, 0.3, 0.2]},
    "bloch": {"bloch": [0.5, 0.0, 0.3]},
    "qubit": PLOT_SUBJECTS["qubit-state"],
    "qutrit": PLOT_SUBJECTS["qutrit-state"],
    "two-qubit": RANK4_QUARTER,
    "three-qubit": {"dims": [2, 2, 2],
                    "amps": [[R2, 0.0]] + [[0.0, 0.0]] * 6 + [[0.0, R2]]},
}


def _matrix_argvs():
    names = sorted(MATRIX_SUBJECTS)
    for first, second in itertools.product(names, repeat=2):
        for cls in ("IC", "SIO", "PIO", "LICC", "LOCC"):
            yield ["feasible", "--class", cls, "--source", first,
                   "--target", second]
        for method in ("liu", "slicc"):
            yield ["equiv", "--method", method, "--first", first,
                   "--second", second]
    for name in names:
        yield ["classify", "--state", name]
        for kind in ("accessible", "source"):
            for cls in ("IC", "SIO", "PIO"):
                yield ["monotone", "--kind", kind, "--class", cls,
                       "--state", name]
            for method, region in itertools.product(
                    ("closed", "exact", "mc"),
                    (None, "simplex-sorted", "coordinate-plane",
                     "bloch-disc", "bloch-half-disc")):
                yield (["volume", "--method", method, "--kind", kind,
                        "--samples", "500", "--state", name]
                       + (["--region", region] if region else []))
        for figure in ("qubit-sio", "qubit-pio", "qutrit", "two-level"):
            for fmt in ("svg", "csv"):
                yield ["plot", "--figure", figure, "--format", fmt,
                       "--state", name]


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("subjects")
    return {name: write_json(root, f"{name}.json", payload)
            for name, payload in MATRIX_SUBJECTS.items()}


@pytest.mark.parametrize("argv", list(_matrix_argvs()), ids=" ".join)
def test_no_subcommand_raises(matrix_files, capsys, argv):
    flags = ("--state", "--source", "--target", "--first", "--second")
    code, out, err = run_cli(capsys, *(
        matrix_files[arg] if flag in flags else arg
        for flag, arg in zip([None] + argv, argv)))
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("cohertk: error:") and err.count("\n") == 1


PURE_PAIRS = list(itertools.product(
    sorted(name for name, payload in MATRIX_SUBJECTS.items()
           if "amps" in payload), repeat=2))


@pytest.mark.parametrize("source, target", PURE_PAIRS,
                         ids=["->".join(pair) for pair in PURE_PAIRS])
def test_feasible_classes_read_pure_states_alike(matrix_files, capsys, source,
                                                 target):
    # SIO answers as IC and LSICC as LICC, and each decided verdict is the
    # majorization of the spectra the class reads off the two states
    argv = ["feasible", "--source", matrix_files[source],
            "--target", matrix_files[target]]
    answers = {cls: run_cli(capsys, *argv, "--class", cls)
               for cls in ("IC", "SIO", "LICC", "LSICC")}
    for cls, twin in (("SIO", "IC"), ("LSICC", "LICC")):
        code, out, err = answers[cls]
        assert (code, out.replace(f'"class": "{cls}"', f'"class": "{twin}"'),
                err) == answers[twin]
    states = [subject_from_dict(MATRIX_SUBJECTS[name])
              for name in (target, source)]
    for cls, (code, out, _) in answers.items():
        if code == 0:
            verdict = majorization_verdict(
                *(_select_spectrum(state, cls) for state in states))
            assert json.loads(out) == {"class": cls,
                                       "feasible": verdict.feasible,
                                       "binding": list(verdict.binding)}


# ---------------------------------------------------------------------------
# subprocess-level reproducibility


def test_cli_bytes_are_reproducible(tmp_path):
    import os

    bloch = write_json(tmp_path, "r.json", {"bloch": [0.5, 0.0, 0.3]})
    argv = [sys.executable, "-m", "cohertk", "volume", "--method", "mc",
            "--kind", "accessible", "--class", "SIO", "--state", bloch,
            "--samples", "50000"]
    base_env = os.environ.copy()
    base_env.pop("COHERTK_SEED", None)

    def run(env_seed=None, extra=()):
        env = dict(base_env)
        if env_seed is not None:
            env["COHERTK_SEED"] = env_seed
        result = subprocess.run(argv + list(extra), capture_output=True,
                                env=env, check=True)
        return result.stdout

    default_a = run()
    default_b = run()
    assert default_a == default_b  # fixed default seed

    env_42 = run(env_seed="42")
    flag_42 = run(extra=("--seed", "42"))
    assert env_42 == flag_42  # environment variable equals explicit flag
    assert env_42 != default_a

    flag_wins = run(env_seed="42", extra=("--seed", "43"))
    assert flag_wins != env_42  # --seed overrides the environment
    assert json.loads(flag_wins)["estimate"]["seed"] == 43
