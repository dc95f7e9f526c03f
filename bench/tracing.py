"""Per-layer tracing from outside the program.

The tracer wraps cohertk's public functions and rebinds every module-level
name that holds them, including values of module-level dicts (the suites
look their monotones up in one).  ``random_channel``, for example, is
rebound both in ``cohertk.channels`` and in ``cohertk.oracle``.  Classes
keep their identity: their methods are wrapped in place.

Each call records a span ``[name, start_ns, end_ns, parent, bucket, work]``
in memory; ``bucket`` and ``work`` are what the layer metric groups by and
counts (spectrum length, points, trials, samples, permutation tuples).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

from cohertk import (channels, classify, cli, feasibility, monotones, oracle,
                     plotting, serialize, states)


def _spectrum_length(args, kwargs, result):
    return f"d{int(np.count_nonzero(np.asarray(args[0], dtype=float) > 1e-12))}", 1


def _length(args, kwargs, result):
    return f"d{len(args[0])}", 1


def _points(args, kwargs, result):
    return None, int(np.asarray(result).size)


def _trials(args, kwargs, result):
    return None, max(0, result.trials)


def _mc_family(args, kwargs, result):
    region = args[1].name
    family = ("bloch" if region.startswith("bloch")
              else "simplex" if region.startswith("simplex") else "plane")
    return family, result.samples


def _permutation_tuples(args, kwargs, result):
    tuples = math.prod(math.factorial(d) for d in args[0].dims)
    return ("planted" if result is not None else "obstructed"), tuples


def _grid_points(args, kwargs, result):
    return None, result.grid_points


#: (module, attribute, info).  A dotted attribute is a method, wrapped on
#: its class.  ``info(args, kwargs, result)`` gives (bucket, work).
TARGETS = (
    (states, "PureState.__init__", None),
    (states, "bloch_from_density", None),
    (states, "product_term_count", None),
    (channels, "random_channel", None),
    (channels, "validate_class", None),
    (channels, "apply_to_density", None),
    (channels, "apply_to_pure", None),
    (monotones, "qubit_sio_Ca", None),
    (monotones, "qubit_sio_Cs", None),
    (monotones, "qubit_pio_Ca", None),
    (monotones, "qubit_pio_Cs", None),
    (monotones, "permutation_sum", _spectrum_length),
    (monotones, "source_coherence_closed", None),
    (monotones, "region_geometry", None),
    (monotones, "planar_example_volumes", None),
    (feasibility, "sio_feasible_mask", _points),
    (feasibility, "pio_feasible_mask", _points),
    (feasibility, "sio_qubit_feasible", None),
    (feasibility, "pio_qubit_feasible", None),
    (oracle, "monotonicity_suite", _trials),
    (oracle, "lemma1_suite", _trials),
    (oracle, "mc_volume", _mc_family),
    (oracle, "SampleRegion.sample", None),
    (oracle, "exact_polytope_volume", _length),
    (oracle, "formula_identity_check", None),
    (oracle, "b3_b4_counterexamples", _grid_points),
    (classify, "liu_equivalent", _permutation_tuples),
    (classify, "slicc_class_2qubit", None),
    (classify, "canonical_form_r4", None),
    (serialize, "subject_from_dict", None),
    (serialize, "dumps", None),
    (plotting, "svg_figure", None),
    (plotting, "boundary_csv", None),
    (cli, "main", None),
)

PREDICATE = "oracle.mc_volume.predicate"

#: Bucket of a call that raised; layer metrics leave such calls out.
RAISED = "raised"


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while installed; inert (``predicate`` passes
    functions through) otherwise."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, None, 1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4], record[5] = RAISED, 0
                raise
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if info is not None:
                record[4], record[5] = info(args, kwargs, result)
            return result

        return traced

    def predicate(self, fn):
        """The Monte-Carlo predicate the benchmark passes in, wrapped."""
        return self.wrap(PREDICATE, fn) if self.active else fn

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cohertk" or name.startswith("cohertk.")]
        for module, attr, info in TARGETS:
            name = f"{_short(module)}.{attr}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self.wrap(name, original, info))
                self._undo.append((setattr, owner, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append(
                                    (dict.__setitem__, value, k, original))
        self.active = True

    def uninstall(self):
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()
        self.active = False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "bucket", "work"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children counted once)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0, start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class _Totals:
    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.work = 0


def totals(spans) -> dict:
    """Calls, inclusive and self nanoseconds and work, keyed by span name
    and by (span name, bucket).  Calls that raised are left out."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, bucket, work = span
        if bucket == RAISED:
            continue
        for key in (name, (name, bucket)):
            entry = table.setdefault(key, _Totals())
            entry.calls += 1
            entry.ns += end - start
            entry.self_ns += own
            entry.work += work
    return table


_QUBIT = tuple(f"monotones.qubit_{m}" for m in ("sio_Ca", "sio_Cs",
                                                 "pio_Ca", "pio_Cs"))

#: metric name -> (unit, span keys, statistic).  A key is a span name or
#: (span name, bucket); several keys are pooled.
LAYER_METRICS = {
    "states.PureState.us_per_call":
        ("us", ("states.PureState.__init__",), "per_call"),
    "states.bloch_from_density.us_per_call":
        ("us", ("states.bloch_from_density",), "per_call"),
    "states.product_term_count.us_per_call":
        ("us", ("states.product_term_count",), "per_call"),
    "channels.random_channel.us_per_call":
        ("us", ("channels.random_channel",), "per_call"),
    "channels.validate_class.us_per_call":
        ("us", ("channels.validate_class",), "per_call"),
    "channels.apply_to_density.us_per_call":
        ("us", ("channels.apply_to_density",), "per_call"),
    "channels.apply_to_pure.us_per_call":
        ("us", ("channels.apply_to_pure",), "per_call"),
    "monotones.qubit_closed.us_per_call":
        ("us", _QUBIT, "per_call"),
    "monotones.permutation_sum.d5.ms_per_call":
        ("ms", (("monotones.permutation_sum", "d5"),), "per_call"),
    "monotones.permutation_sum.d6.ms_per_call":
        ("ms", (("monotones.permutation_sum", "d6"),), "per_call"),
    "monotones.permutation_sum.d7.ms_per_call":
        ("ms", (("monotones.permutation_sum", "d7"),), "per_call"),
    "monotones.permutation_sum.d8.ms_per_call":
        ("ms", (("monotones.permutation_sum", "d8"),), "per_call"),
    "monotones.source_coherence_closed.us_per_call":
        ("us", ("monotones.source_coherence_closed",), "per_call"),
    "monotones.region_geometry.us_per_call":
        ("us", ("monotones.region_geometry",), "per_call"),
    "monotones.planar_example_volumes.us_per_call":
        ("us", ("monotones.planar_example_volumes",), "per_call"),
    "feasibility.sio_feasible_mask.points_per_s":
        ("points/s", ("feasibility.sio_feasible_mask",), "work_rate"),
    "feasibility.pio_feasible_mask.points_per_s":
        ("points/s", ("feasibility.pio_feasible_mask",), "work_rate"),
    "feasibility.qubit_feasible.us_per_call":
        ("us",
         ("feasibility.sio_qubit_feasible",
          "feasibility.pio_qubit_feasible"),
         "per_call"),
    "oracle.monotonicity_suite.trials_per_s":
        ("trials/s", ("oracle.monotonicity_suite",), "work_rate"),
    "oracle.monotonicity_suite.self_us_per_trial":
        ("us", ("oracle.monotonicity_suite",), "self_per_work"),
    "oracle.lemma1_suite.trials_per_s":
        ("trials/s", ("oracle.lemma1_suite",), "work_rate"),
    "oracle.lemma1_suite.self_us_per_trial":
        ("us", ("oracle.lemma1_suite",), "self_per_work"),
    "oracle.mc_volume.bloch.samples_per_s":
        ("samples/s", (("oracle.mc_volume", "bloch"),), "work_rate"),
    "oracle.mc_volume.simplex.samples_per_s":
        ("samples/s", (("oracle.mc_volume", "simplex"),), "work_rate"),
    "oracle.mc_volume.plane.samples_per_s":
        ("samples/s", (("oracle.mc_volume", "plane"),), "work_rate"),
    "oracle.mc_volume.sampling_s":
        ("s", ("oracle.SampleRegion.sample",), "per_round"),
    "oracle.mc_volume.predicate_s":
        ("s", (PREDICATE,), "per_round"),
    "oracle.exact_polytope_volume.d3.ms_per_call":
        ("ms", (("oracle.exact_polytope_volume", "d3"),), "per_call"),
    "oracle.exact_polytope_volume.d4.ms_per_call":
        ("ms", (("oracle.exact_polytope_volume", "d4"),), "per_call"),
    "oracle.formula_identity_check.s_per_call":
        ("s", ("oracle.formula_identity_check",), "per_call"),
    "oracle.b3_b4_counterexamples.grid_points_per_s":
        ("points/s", ("oracle.b3_b4_counterexamples",), "work_rate"),
    "classify.liu_equivalent.planted.ms_per_call":
        ("ms", (("classify.liu_equivalent", "planted"),), "per_call"),
    "classify.liu_equivalent.obstructed.ms_per_call":
        ("ms", (("classify.liu_equivalent", "obstructed"),), "per_call"),
    "classify.liu_equivalent.obstructed.us_per_tuple":
        ("us", (("classify.liu_equivalent", "obstructed"),), "per_work"),
    "classify.slicc_class_2qubit.us_per_call":
        ("us", ("classify.slicc_class_2qubit",), "per_call"),
    "classify.canonical_form_r4.us_per_call":
        ("us", ("classify.canonical_form_r4",), "per_call"),
    "serialize.subject_from_dict.us_per_call":
        ("us", ("serialize.subject_from_dict",), "per_call"),
    "serialize.dumps.us_per_call":
        ("us", ("serialize.dumps",), "per_call"),
    "plotting.svg_figure.ms_per_call":
        ("ms", ("plotting.svg_figure",), "per_call"),
    "plotting.boundary_csv.ms_per_call":
        ("ms", ("plotting.boundary_csv",), "per_call"),
    "cli.main.self_ms":
        ("ms", ("cli.main",), "self_per_call"),
}

_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}
_PER_WORK = ("per_work", "self_per_work", "work_rate")


def layer_metrics(spans, rounds: int) -> dict:
    """Every LAYER_METRICS entry from the spans of ``rounds`` traced
    rounds.  A layer the workload never calls reads 0."""
    table = totals(spans)
    out = {}
    for metric, (unit, keys, statistic) in LAYER_METRICS.items():
        calls = ns = self_ns = work = 0
        for key in keys:
            entry = table.get(key)
            if entry is not None:
                calls += entry.calls
                ns += entry.ns
                self_ns += entry.self_ns
                work += entry.work
        if calls == 0 or (work == 0 and statistic in _PER_WORK):
            value = 0.0
        elif statistic == "per_call":
            value = ns / calls * _SCALE[unit]
        elif statistic == "self_per_call":
            value = self_ns / calls * _SCALE[unit]
        elif statistic == "per_work":
            value = ns / work * _SCALE[unit]
        elif statistic == "self_per_work":
            value = self_ns / work * _SCALE[unit]
        elif statistic == "per_round":
            value = ns / rounds * _SCALE[unit]
        else:  # work_rate
            value = work / (ns * 1e-9)
        out[metric] = (value, unit)
    return out
