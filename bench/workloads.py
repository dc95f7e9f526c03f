"""The two benchmark workloads.

``suites`` runs the property suites: the scalar per-trial path.
``mixed`` runs, in one round, the spectrum oracles, the Monte-Carlo
volumes and the command-line queries: the permutation sum, the batched
numpy path and the only calls into classify, cli, serialize and
plotting.  These three share one workload so that each run can last
55 s in the time the benchmark may take: the speed of a shared machine
drifts over tens of seconds, and 25-s runs spread past the bounds.

Each workload turns a seed into rounds: a fixed list of operations,
each with its own inputs and a check against values computed apart from
the program (see ``reference.py``).  The worker runs round after round
in a closed loop; every round attempts the same operations, so the share
that fails is the same in every run.

Operations call cohertk through module attributes at call time, so the
per-layer tracer, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import functools
import io
import json
import math
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from cohertk import cli, monotones, oracle, states

import reference

#: Trials per property-suite call, and per call during warm-up.
SUITE_TRIALS = 300
WARMUP_TRIALS = 10

#: The monotone/class pairs of acceptance criterion 5.
SUITE_PAIRS = (
    [("sio-Ca", c) for c in ("IU", "PIO", "SIO", "IC")]
    + [("sio-Cs", c) for c in ("IU", "PIO", "SIO", "IC")]
    + [("pio-Ca", c) for c in ("IU", "PIO")]
    + [("pio-Cs", c) for c in ("IU", "PIO")]
    + [("source-closed", c) for c in ("SIO", "IC", "LICC", "LSICC")]
)
MONOTONICITY_TOL = 1e-8
#: lemma1_suite calls per round, each with its own seed.  They are the
#: slowest calls; four of them make up a fifth of the round, so the 90th
#: percentile falls inside them rather than on the edge of a tier.
LEMMA1_CALLS = 4

#: Rational spectra have entries k / 1024: binary floats, so the program
#: reads exactly the rational input the reference evaluates.
DENOMINATOR = 1024
#: Largest allowed |float result - exact rational result|.
SPECTRUM_TOL = 1e-9

#: Monte-Carlo samples per mc_volume call; an estimate must lie within
#: this many standard errors of the closed form.
MC_SAMPLES = 200_000
MC_SIGMAS = 4.0

#: Phase-obstructed pairs per party structure.  The two largest searches
#: run on three fresh states each, so a round averages over states.
OBSTRUCTED_DIMS = ((2, 2), (3, 3), (2, 2, 2)) + ((4, 4), (3, 3, 3)) * 3
PLANTED_DIMS = ((2, 2), (2, 3), (3, 3), (2, 2, 2))

#: Reference table of acceptance criterion 7: support, rank, subclass.
CLASSIFY_TABLE = (
    ((0,), 1, "point"),
    ((0, 1), 2, "row"),
    ((0, 2), 2, "column"),
    ((0, 3), 2, "diagonal"),
    ((1, 2), 2, "diagonal"),
    ((0, 1, 2), 3, "triangle"),
    ((1, 2, 3), 3, "triangle"),
    ((0, 1, 2, 3), 4, "generic"),
)


@dataclass
class Op:
    """One operation of a round.

    ``run`` performs the timed call and returns its output; ``check``
    returns None when that output is right and a message otherwise.  A
    ``malformed`` operation feeds the program bad input: it counts as
    failed, not as wrong, when the program does not reject it cleanly.
    """

    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], object]
    malformed: bool = False


@dataclass
class Workload:
    """``round(r)`` lists the operations of round r; ``warmup`` holds one
    operation of each kind."""

    round: Callable[[int], list]
    warmup: list


def build(name: str, seed: int, workdir, tracer) -> Workload:
    """Workload ``name`` for ``seed``.  ``workdir`` holds the JSON inputs
    of the queries; ``tracer`` wraps the Monte-Carlo predicates
    while tracing is on."""
    if name == "suites":
        # A suite call's cost depends on the trials its seed draws (15%
        # between lemma1_suite seeds), so each round draws fresh seeds
        # from (seed, round) and a run averages over many of them.
        def suite_round(index):
            return _suite_ops(np.random.default_rng([seed, index]), SUITE_TRIALS)

        # a kind is a monotone/class pair; warm each up with a few trials
        warmup = _suite_ops(np.random.default_rng(seed), WARMUP_TRIALS)
        return Workload(suite_round, warmup)
    if name != "mixed":
        raise ValueError(f"unknown workload {name!r}")
    # The mixed rounds repeat the same inputs: their costs do not depend
    # on the seed, and repeating keeps the Monte-Carlo estimates, each of
    # which is checked at 4 standard errors, to a few per run.
    rng = np.random.default_rng(seed)
    ops = _query_ops(rng, workdir) + _spectra_ops(rng) + _volume_ops(rng, tracer)
    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.kind, op)
    return Workload(lambda index: ops, list(first_of_kind.values()))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _close(actual, expected, tol) -> bool:
    return actual is not None and abs(actual - expected) <= tol


# ---------------------------------------------------------------------------
# suites: the scalar per-trial path


def _suite_ops(rng, trials):
    ops = []
    for monotone, cls in SUITE_PAIRS:
        seed = _seed(rng)

        def run(monotone=monotone, cls=cls, seed=seed):
            return oracle.monotonicity_suite(monotone, cls, trials, seed)

        def check(report, monotone=monotone, cls=cls, seed=seed):
            if (report.monotone, report.operation_class, report.trials,
                    report.seed) != (monotone, cls, trials, seed):
                return f"report provenance {report}"
            if report.violations != 0 or not report.max_increase <= MONOTONICITY_TOL:
                return (f"{monotone}/{cls} increased: {report.violations} "
                        f"violations, max {report.max_increase}")
            return None

        ops.append(Op(f"monotonicity-{monotone}-{cls}", f"{monotone}-{cls}",
                      run, check))
    for index in range(LEMMA1_CALLS):
        seed = _seed(rng)

        def lemma1_check(report, seed=seed):
            if (report.trials, report.seed) != (trials, seed):
                return f"report provenance {report}"
            if report.violations != 0 or not report.max_increase <= 0:
                return (f"lemma1: {report.violations} violations, "
                        f"max increase {report.max_increase}")
            return None

        ops.append(Op(f"lemma1-{index}", "lemma1",
                      lambda seed=seed: oracle.lemma1_suite(trials, seed),
                      lemma1_check))
    return ops


# ---------------------------------------------------------------------------
# mixed, spectra: the permutation sum and the exact volume oracle


def _floats(spectrum):
    return np.array([float(x) for x in spectrum])


def _spectra_ops(rng):
    ops = []
    spectra = {d: reference.rational_spectrum(rng, d, DENOMINATOR)
               for d in range(2, 9)}
    for d, lam in spectra.items():
        ops.append(_source_op(f"source-d{d}", f"source-d{d}", lam))
    uniform = [Fraction(1, 8)] * 8
    incoherent = [Fraction(1)] + [Fraction(0)] * 7
    ops.append(_source_op("source-uniform-d8", "source-d8", uniform, value=1))
    ops.append(_source_op("source-incoherent-d8", "source-incoherent",
                          incoherent, value=0))
    for d in (2, 3, 4):
        ops.append(_exact_op(d, spectra[d]))
    seed = _seed(rng)

    def identity_check(report, seed=seed):
        if (report.count, tuple(report.dims), report.seed) != (5, (2, 3, 4), seed):
            return f"report provenance {report}"
        if not report.max_abs_difference <= SPECTRUM_TOL:
            return f"identity check differs by {report.max_abs_difference}"
        return None

    ops.append(Op("formula-identity", "formula-identity",
                  lambda: oracle.formula_identity_check(5, (2, 3, 4), seed),
                  identity_check))
    return ops


@functools.cache
def _exact_sigma(lam: tuple) -> Fraction:
    """The exact permutation sum, computed at the first check that needs
    it: set-up-only launches never pay for it, and it stays out of the
    timed rounds."""
    return reference.permutation_sum_exact(lam)


def _source_op(label, kind, lam, value=None):
    """source_coherence_closed on a rational spectrum, checked against the
    exact permutation sum (and against a known value when given)."""
    lam = tuple(lam)
    spectrum = _floats(lam)

    def check(result):
        sigma = _exact_sigma(lam)
        if value is not None and 1 - sigma != value:
            return f"{label}: the reference gives {1 - sigma}, not {value}"
        expected_value = float(1 - sigma)
        expected_volume = reference.sup_source_volume(len(lam)) * float(sigma)
        if not _close(result.value, expected_value, SPECTRUM_TOL):
            return f"{label}: value {result.value} != {expected_value}"
        if not _close(result.volume, expected_volume, SPECTRUM_TOL):
            return f"{label}: volume {result.volume} != {expected_volume}"
        return None

    return Op(label, kind,
              lambda: monotones.source_coherence_closed(spectrum, "IC"), check)


def _exact_op(d, lam):
    """exact_polytope_volume against the exact permutation sum and
    against the program's own closed form."""
    lam = tuple(lam)
    spectrum = _floats(lam)

    def run():
        return (oracle.exact_polytope_volume(spectrum),
                monotones.source_coherence_closed(spectrum, "IC").volume)

    def check(result):
        exact, closed = result
        expected = reference.sup_source_volume(d) * float(_exact_sigma(lam))
        if not _close(exact, expected, SPECTRUM_TOL):
            return f"exact-d{d}: volume {exact} != {expected}"
        if not _close(closed, exact, SPECTRUM_TOL):
            return f"exact-d{d}: closed form {closed} != exact {exact}"
        return None

    return Op(f"exact-d{d}", f"exact-d{d}", run, check)


# ---------------------------------------------------------------------------
# mixed, volumes: the batched Monte-Carlo path and the counterexample grid


def _mc_check(label, expected):
    """Each estimate must lie within MC_SIGMAS standard errors of its
    closed form.  For a correct closed form one check fails by chance
    with probability about 6e-5."""
    def check(estimates):
        for est, (name, closed) in zip(estimates, expected):
            if (est.samples != MC_SAMPLES
                    or not abs(est.mean - closed) <= MC_SIGMAS * est.standard_error):
                return (f"{label} {name}: estimate {est.mean} +- "
                        f"{est.standard_error} vs closed form {closed}")
        return None
    return check


def _volume_ops(rng, tracer):
    ops = []

    # the four qubit regions of one mixed Bloch vector
    t, z = rng.uniform(0.15, 0.75), rng.uniform(-0.6, 0.6)
    bloch = states.QubitBloch(float(t), 0.0, float(z))
    regions = [("SIO", "accessible", monotones.qubit_sio_Ca),
               ("SIO", "source", monotones.qubit_sio_Cs),
               ("PIO", "accessible", monotones.qubit_pio_Ca),
               ("PIO", "source", monotones.qubit_pio_Cs)]
    seeds = [_seed(rng) for _ in regions]
    expected = [(f"{cls}-{kind}", fn(bloch).volume) for cls, kind, fn in regions]

    def qubit_run():
        disc = oracle.make_region("bloch-disc")
        return [oracle.mc_volume(
                    tracer.predicate(oracle.qubit_region_predicate(bloch, cls, kind)),
                    disc, MC_SAMPLES, seed)
                for (cls, kind, _), seed in zip(regions, seeds)]

    ops.append(Op("mc-bloch", "mc-bloch", qubit_run,
                  _mc_check("mc-bloch", expected)))

    # sorted-simplex source regions against sup * exact permutation sum
    for d in range(3, 7):
        lam = reference.rational_spectrum(rng, d, DENOMINATOR)
        closed = reference.sup_source_volume(d) * float(
            reference.permutation_sum_exact(lam))
        spectrum, seed = _floats(lam), _seed(rng)

        def simplex_run(d=d, spectrum=spectrum, seed=seed):
            region = oracle.make_region("simplex-sorted", dim=d)
            predicate = oracle.sorted_simplex_predicate(spectrum, "source")
            return [oracle.mc_volume(tracer.predicate(predicate), region,
                                     MC_SAMPLES, seed)]

        ops.append(Op(f"mc-simplex-d{d}", f"mc-simplex-d{d}", simplex_run,
                      _mc_check(f"mc-simplex-d{d}", [("source", closed)])))

    # both coordinate-plane regions of a qutrit spectrum
    lam = reference.rational_spectrum(rng, 3, DENOMINATOR)
    accessible, source = reference.planar_region_areas(float(lam[0]),
                                                       float(lam[1]))
    spectrum = _floats(lam)
    plane_seeds = (_seed(rng), _seed(rng))

    def plane_run():
        plane = oracle.make_region("coordinate-plane")
        return [oracle.mc_volume(
                    tracer.predicate(oracle.coordinate_plane_predicate(spectrum, kind)),
                    plane, MC_SAMPLES, seed)
                for kind, seed in zip(("accessible", "source"), plane_seeds)]

    ops.append(Op("mc-plane", "mc-plane", plane_run,
                  _mc_check("mc-plane", [("accessible", accessible),
                                         ("source", source)])))

    grid_points = reference.counterexample_grid_points()

    def counterexample_check(report):
        if report.grid_points != grid_points:
            return f"grid has {report.grid_points} points, expected {grid_points}"
        for condition in ("selective-measurement", "convexity"):
            for monotone in ("accessible", "source"):
                if not any(g.count > 0 and g.best_margin > 1e-3
                           for g in report.grid
                           if (g.condition, g.monotone) == (condition, monotone)):
                    return f"no strict {condition} violation for {monotone}"
        return None

    # three scans per round: with the two d = 8 sums they are the five
    # slowest calls of the mixed round, which puts its 90th percentile
    # inside the next tier (formula identity, Bloch-disc estimates)
    # rather than on the edge below it
    for index in range(3):
        ops.append(Op(f"counterexamples-{index}", "counterexamples",
                      lambda: oracle.b3_b4_counterexamples(),
                      counterexample_check))
    return ops


# ---------------------------------------------------------------------------
# mixed, queries: in-process command lines over JSON inputs


def _run_cli(argv):
    """cli.main(argv) with stdout and stderr captured; returns
    (exit code, stdout, stderr, escaped exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a fault the program did not handle
        escaped = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), escaped


def _query(label, kind, argv, check_payload, parse=json.loads):
    """A command that must succeed, print the same bytes every time it
    repeats, and print a payload that ``check_payload`` accepts."""
    first = {}

    def check(result):
        code, out, err, escaped = result
        if escaped is not None or code != 0:
            return f"{label}: exit {code}: {escaped or err.strip()}"
        if "out" not in first:
            first["out"], first["verdict"] = out, check_payload(parse(out))
        elif out != first["out"]:
            return f"{label}: output bytes differ between repeats"
        return first["verdict"]

    return Op(label, kind, lambda: _run_cli(argv), check)


def _malformed(label, argv):
    """A command on bad input: it must exit 1 with a one-line message on
    stderr, print nothing on stdout and raise nothing."""
    def check(result):
        code, out, err, escaped = result
        if escaped is not None:
            return f"{label}: raised {escaped}"
        if code != 1:
            return f"{label}: exit {code}, expected 1"
        if out or err.count("\n") != 1 or "Traceback" in err:
            return f"{label}: expected one line on stderr only"
        return None

    return Op(label, label, lambda: _run_cli(argv), check, malformed=True)


class _Files:
    """JSON inputs written once into the work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, payload) -> str:
        self.count += 1
        path = self.workdir / f"input-{self.count}.json"
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def state(self, dims, amps) -> str:
        return self.write({"dims": list(dims),
                           "amps": [[a.real, a.imag] for a in amps]})


def _normalized(amps):
    amps = np.asarray(amps, dtype=complex)
    return amps / np.linalg.norm(amps)


def _random_phases(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def _random_relabeling(rng, dims):
    return ([rng.permutation(d) for d in dims],
            [rng.uniform(0.0, 2 * np.pi, d) for d in dims])


def _canonical_invariant(r: complex) -> complex:
    """Representative of {r, 1/r}: modulus >= 1, nonnegative imaginary
    part on the unit circle."""
    if abs(abs(r) - 1.0) <= 1e-12:
        return r if r.imag >= 0 else 1 / r
    return r if abs(r) > 1 else 1 / r


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _classify_op(rng, files, index, support, rank, subclass):
    amps = np.zeros(4, dtype=complex)
    amps[list(support)] = rng.uniform(0.3, 1.0, len(support)) \
        * _random_phases(rng, len(support))
    amps = _normalized(amps)
    path = files.state((2, 2), amps)
    a, b, c, d = amps
    raw = a * d / (b * c) if rank == 4 else None

    def check(payload):
        if (payload["R"], payload["subclass"]) != (rank, subclass):
            return f"classify row {index}: {payload['R']} {payload['subclass']}"
        if rank == 4:
            alpha = 1 / math.sqrt(3 + abs(raw) ** 2)
            form = payload["canonical"]
            pairs = ((_complex(payload["r"]), _canonical_invariant(raw)),
                     (_complex(form["invariant"]), raw),
                     (complex(form["alpha"]), alpha),
                     (_complex(form["beta"]), raw * alpha))
            if any(abs(got - want) > 1e-9 * max(1.0, abs(want))
                   for got, want in pairs):
                return f"classify row {index}: invariants {payload}"
        return None

    return _query(f"classify-{index}", f"classify-rank{rank}",
                  ["classify", "--state", path], check)


def _planted_op(rng, files, dims):
    total = math.prod(dims)
    size = int(rng.integers(1, total + 1))
    amps = np.zeros(total, dtype=complex)
    amps[rng.choice(total, size=size, replace=False)] = (
        rng.normal(size=size) + 1j * rng.normal(size=size))
    amps = _normalized(amps)
    partner = reference.relabel(amps, dims, *_random_relabeling(rng, dims))
    first, second = files.state(dims, amps), files.state(dims, partner)
    label = "liu-planted-" + "x".join(map(str, dims))

    def check(payload):
        if not payload["equivalent"]:
            return f"{label}: planted pair reported inequivalent"
        witness = payload["witness"]
        image = reference.relabel(amps, dims, witness["permutations"],
                                  witness["phases"])
        if reference.fidelity(image, partner) < 1 - 1e-9:
            return f"{label}: witness does not map the pair"
        return None

    return _query(label, label,
                  ["equiv", "--first", first, "--second", second], check)


def _obstructed_op(rng, files, dims, index):
    """Equal moduli, but one amplitude of the relabeled partner carries an
    extra phase that no local phases absorb: the program must search the
    whole permutation space and answer "not equivalent"."""
    total = math.prod(dims)
    amps = _normalized(rng.uniform(0.2, 1.0, total) * _random_phases(rng, total))
    perms, phases = _random_relabeling(rng, dims)
    partner = reference.relabel(amps, dims, perms, phases)
    partner[int(rng.integers(0, total))] *= np.exp(
        1j * rng.uniform(0.5, 2 * np.pi - 0.5))
    # distinct moduli leave only `perms` to try, and a nonzero phase minor
    # rules it out: the pair is inequivalent
    if (reference.min_modulus_gap(amps) <= 1e-6
            or reference.max_phase_minor(amps, partner, dims, perms) <= 1e-3):
        return _obstructed_op(rng, files, dims, index)
    first, second = files.state(dims, amps), files.state(dims, partner)
    shape = "x".join(map(str, dims))

    def check(payload):
        if payload != {"method": "liu", "equivalent": False}:
            return f"liu-obstructed-{shape}: {payload}"
        return None

    return _query(f"liu-obstructed-{shape}-{index}", f"liu-obstructed-{shape}",
                  ["equiv", "--first", first, "--second", second], check)


def _rank4_state(rng):
    return _normalized(rng.uniform(0.3, 1.0, 4) * _random_phases(rng, 4))


def _slicc_ops(rng, files):
    ops = []
    # local invertible diagonal operators keep r = ad/(bc)
    amps = _rank4_state(rng)
    scale = np.kron(rng.uniform(0.5, 2.0, 2) * _random_phases(rng, 2),
                    rng.uniform(0.5, 2.0, 2) * _random_phases(rng, 2))
    pairs = [(amps, _normalized(scale * amps), True)]
    while True:
        first, second = _rank4_state(rng), _rank4_state(rng)
        r1, r2 = (_canonical_invariant(x[0] * x[3] / (x[1] * x[2]))
                  for x in (first, second))
        if abs(r1 - r2) > 0.1:
            break
    pairs.append((first, second, False))
    for index, (first, second, expected) in enumerate(pairs):
        def check(payload, expected=expected, index=index):
            if (payload["equivalent"], payload["first"]["rank"],
                    payload["second"]["rank"]) != (expected, 4, 4):
                return f"slicc-{index}: {payload['equivalent']}, expected {expected}"
            return None

        ops.append(_query(f"slicc-{index}", "slicc",
                          ["equiv", "--method", "slicc",
                           "--first", files.state((2, 2), first),
                           "--second", files.state((2, 2), second)], check))
    return ops


def _bloch(rng):
    """(t, z) of a mixed Bloch vector with t^2 + z^2 <= 0.9."""
    while True:
        t, z = rng.uniform(0.3, 0.75), rng.uniform(-0.6, 0.6)
        if t * t + z * z <= 0.9:
            return float(t), float(z)


def _query_ops(rng, workdir):
    files = _Files(workdir)
    ops = [_classify_op(rng, files, i, *row)
           for i, row in enumerate(CLASSIFY_TABLE)]
    ops += [_planted_op(rng, files, dims) for dims in PLANTED_DIMS]
    ops += [_obstructed_op(rng, files, dims, i)
            for i, dims in enumerate(OBSTRUCTED_DIMS)]
    ops += _slicc_ops(rng, files)

    # a dephased target is reachable under SIO; a target with more
    # transverse coherence is reachable under no incoherent class
    t, z = _bloch(rng)
    source = files.write({"bloch": [t, 0.0, z]})
    for cls, target_t, expected in (
            ("SIO", rng.uniform(0.2, 0.8) * t, True),
            ("PIO", 0.5 * (t + math.sqrt(1 - z * z)), False)):
        target = files.write({"bloch": [target_t, 0.0, z]})

        def check(payload, expected=expected, cls=cls):
            if payload["feasible"] != expected:
                return f"feasible-{cls}: {payload}"
            return None

        ops.append(_query(f"feasible-{cls}", "feasible",
                          ["feasible", "--source", source, "--target", target,
                           "--class", cls], check))

    # accessible coherence of a qutrit spectrum: the planar family, whose
    # coordinate-plane measure has supremum 1/2
    lam = reference.rational_spectrum(rng, 3, DENOMINATOR)
    areas = dict(zip(("accessible", "source"),
                     reference.planar_region_areas(float(lam[0]), float(lam[1]))))
    qutrit = files.write({"spectrum": [float(x) for x in lam]})

    def accessible_check(payload):
        if not (payload["measure"] == "coordinate-plane"
                and _close(payload["volume"], areas["accessible"], 1e-9)
                and _close(payload["value"], 2 * areas["accessible"], 1e-9)):
            return f"monotone-accessible: {payload} vs area {areas['accessible']}"
        return None

    ops.append(_query("monotone-accessible", "monotone",
                      ["monotone", "--kind", "accessible", "--class", "IC",
                       "--state", qutrit], accessible_check))

    for d, argv in ((4, ["monotone", "--kind", "source", "--class", "IC"]),
                    (5, ["volume", "--method", "closed", "--kind", "source",
                         "--class", "IC"]),
                    (3, ["volume", "--method", "exact"]),
                    (4, ["volume", "--method", "exact"])):
        lam = reference.rational_spectrum(rng, d, DENOMINATOR)
        sigma = float(reference.permutation_sum_exact(lam))
        volume = reference.sup_source_volume(d) * sigma
        path = files.write({"spectrum": [float(x) for x in lam]})
        label = f"{argv[0]}-{argv[2]}-d{d}"

        def check(payload, label=label, volume=volume, sigma=sigma):
            if not _close(payload["volume"], volume, SPECTRUM_TOL):
                return f"{label}: volume {payload['volume']} != {volume}"
            if "value" in payload and not _close(payload["value"], 1 - sigma,
                                                 SPECTRUM_TOL):
                return f"{label}: value {payload['value']} != {1 - sigma}"
            return None

        ops.append(_query(label, label, argv + ["--state", path], check))

    area = reference.sio_accessible_area(t, z)

    def svg_check(root):
        meta = json.loads(root.find("{http://www.w3.org/2000/svg}metadata").text)
        if not (meta["figure"] == "qubit-sio"
                and _close(meta["accessible_volume"], area, 1e-8)
                and _close(meta["accessible_area"], area, 1e-6)):
            return f"plot-svg: metadata {meta} vs area {area}"
        return None

    ops.append(_query("plot-svg", "plot-svg",
                      ["plot", "--figure", "qubit-sio", "--state", source],
                      svg_check, parse=ET.fromstring))

    def csv_check(text):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        for region, expected in areas.items():
            loops = {}
            for name, component, x, y in rows:
                if name == region:
                    loops.setdefault(component, []).append((float(x), float(y)))
            got = sum(reference.shoelace(points) for points in loops.values())
            if not _close(got, expected, 1e-9):
                return f"plot-csv: {region} boundary encloses {got}, expected {expected}"
        return None

    ops.append(_query("plot-csv", "plot-csv",
                      ["plot", "--figure", "qutrit", "--state", qutrit,
                       "--format", "csv"], csv_check, parse=lambda text: text))

    # malformed inputs: each should exit 1 with a one-line message
    nan_bloch = files.write('{"bloch": [NaN, 0, 0.2]}')
    ops.append(_malformed("malformed-nan-bloch",
                          ["monotone", "--kind", "source", "--class", "SIO",
                           "--state", nan_bloch]))
    ops.append(_malformed("malformed-step-0",
                          ["counterexample", "--step", "0"]))
    ops.append(_malformed("malformed-negative-trials",
                          ["check", "--suite", "monotonicity", "--monotone",
                           "sio-Ca", "--class", "SIO", "--trials", "-5"]))
    return ops
