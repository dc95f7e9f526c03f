"""Command-line interface for the coherence toolkit.

Usage
-----
::

    cohertk classify --state psi.json
    cohertk equiv --first psi.json --second phi.json [--method liu|slicc]
    cohertk feasible --source a.json --target b.json --class SIO [--cut 1]
    cohertk monotone --kind source --class IC --state psi.json
    cohertk volume --method mc --kind accessible --class SIO \
            --state r.json --samples 1000000 [--seed N]
    cohertk check --suite monotonicity --monotone sio-Ca --class SIO \
            --trials 10000
    cohertk check --suite identity --dims 2,3,4  (lengths 1..8)
    cohertk plot --figure qutrit --state phi.json [--format svg|csv]
    cohertk counterexample [--step 0.05]

Input files are UTF-8 JSON: pure states ``{"dims": [...], "amps":
[[re, im], ...]}``, Bloch vectors ``{"bloch": [rx, ry, rz]}``, spectra
``{"spectrum": [...]}``, channels as documented in
:mod:`cohertk.serialize`.

Results go to the standard output stream (or ``--output``) as JSON,
CSV, or SVG with every float at 12 significant digits.  Runs are
reproducible: the random seed defaults to a fixed constant, overridden
by the ``COHERTK_SEED`` environment variable, overridden by ``--seed``.

Exit status
-----------
0   success
1   input error (bad flags, malformed files, unsupported combinations)
2   a closed-form criterion's precondition is unmet (the comparison is
    well-formed but this tool cannot decide it, as for ``--class LICC``
    on a state that is not bipartite or has a non-diagonal reduced state)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .classify import (_canonical_parameters, _rank4_invariant, _same_class,
                       liu_equivalent, slicc_class_2qubit)
from .feasibility import (_QUBIT_FAMILY, LemmaNotApplicableError, _as_bloch,
                          _select_spectrum, ic_pure_feasible,
                          licc_bipartite_feasible, locc_pure_feasible,
                          majorization_verdict, pio_qubit_feasible,
                          sio_qubit_feasible)
from .monotones import _closed_monotone
from .oracle import (DEFAULT_SEED, b3_b4_counterexamples, exact_polytope_volume,
                     coordinate_plane_predicate, formula_identity_check,
                     lemma1_suite, make_region, mc_volume, monotonicity_suite,
                     qubit_region_predicate, sorted_simplex_predicate)
from .plotting import (_FIGURE_CLASSES, _figure_subject, boundary_csv,
                       figure_regions, svg_figure)
from .serialize import dumps, load_json, subject_from_dict
from .states import PureState, QubitBloch


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit status 2 for usage errors; this tool
    reserves 2 for undecided criteria, so usage errors exit 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(explicit):
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("COHERTK_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"COHERTK_SEED must be an integer: {env!r}") \
                from exc
    return DEFAULT_SEED


def _load_subject(path):
    return subject_from_dict(load_json(path))


def _region_name(subject, region):
    """``--region`` checked against the subject, or the subject's default:
    ``bloch-disc`` for Bloch vectors, ``simplex-sorted`` for spectra."""
    if isinstance(subject, QubitBloch):
        if region not in (None, "bloch-disc", "bloch-half-disc"):
            raise ValueError("Bloch subjects sample bloch-disc regions")
        return region or "bloch-disc"
    if region not in (None, "simplex-sorted", "coordinate-plane"):
        raise ValueError(f"region {region!r} does not apply to spectra")
    return region or "simplex-sorted"


def _emit(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload, output):
    _emit(dumps(payload), output)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args):
    state = _load_subject(args.state)
    if not isinstance(state, PureState) or state.dims != (2, 2):
        raise ValueError("classify needs a two-qubit pure state")
    label = slicc_class_2qubit(state)
    payload = {
        "R": label.rank,
        "subclass": label.subclass,
        "support": list(label.support_pattern),
    }
    if label.rank == 4:
        payload["r"] = label.invariant_r
        invariant = _rank4_invariant(state.amps)
        alpha, beta = _canonical_parameters(invariant)
        payload["canonical"] = {"alpha": alpha, "beta": beta,
                                "invariant": invariant}
    _emit_json(payload, args.output)
    return 0


def _cmd_equiv(args):
    first = _load_subject(args.first)
    second = _load_subject(args.second)
    if not isinstance(first, PureState) or not isinstance(second, PureState):
        raise ValueError("equiv compares two pure states")
    if args.method == "slicc":
        labels = slicc_class_2qubit(first), slicc_class_2qubit(second)
        payload = {"method": "slicc", "equivalent": _same_class(*labels),
                   "first": labels[0], "second": labels[1]}
    else:
        witness = liu_equivalent(first, second)
        payload = {"method": "liu", "equivalent": witness is not None}
        if witness is not None:
            payload["witness"] = {
                "permutations": [list(p) for p in witness.permutations],
                "phases": [list(p) for p in witness.phases],
            }
    _emit_json(payload, args.output)
    return 0


def _cmd_feasible(args):
    source = _load_subject(args.source)
    target = _load_subject(args.target)
    cls = args.operation_class.upper()
    if cls != "LOCC" and cls not in _QUBIT_FAMILY:
        raise ValueError(f"unknown operation class {cls!r}")
    family = _QUBIT_FAMILY.get(cls)
    if family and (cls == "PIO" or isinstance(source, QubitBloch)
                   or isinstance(target, QubitBloch)):
        criterion = sio_qubit_feasible if family == "SIO" else pio_qubit_feasible
        verdict = criterion(_as_bloch(source), _as_bloch(target))
    elif family == "SIO" and not (isinstance(source, PureState)
                                  or isinstance(target, PureState)):
        spectra = [_select_spectrum(s, cls) for s in (target, source)]
        if spectra[0].size != spectra[1].size:  # as ic_pure_feasible
            raise ValueError("spectra live on different total dimensions")
        verdict = majorization_verdict(*spectra)
    elif not (isinstance(source, PureState) and isinstance(target, PureState)):
        raise ValueError(f"{cls} feasibility compares two pure states")
    elif cls == "LOCC":
        verdict = locc_pure_feasible(source, target, cut=args.cut)
    elif family == "SIO":
        verdict = ic_pure_feasible(source, target)
    else:
        verdict = licc_bipartite_feasible(source, target, cut=args.cut)
    payload = {"class": cls, "feasible": verdict.feasible,
               "binding": list(verdict.binding)}
    _emit_json(payload, args.output)
    return 0


def _cmd_monotone(args):
    value = _closed_monotone(_load_subject(args.state), args.kind,
                             args.operation_class, args.cut)
    _emit_json(value, args.output)
    return 0


def _mc_volume_payload(subject, region_name, args, seed):
    cls = args.operation_class.upper()
    if isinstance(subject, QubitBloch):
        region = make_region(region_name)
        predicate = qubit_region_predicate(subject, cls, args.kind)
    else:
        lam = _select_spectrum(subject, cls, args.cut)
        region = make_region(region_name, dim=len(lam))
        if region_name == "simplex-sorted":
            predicate = sorted_simplex_predicate(lam, args.kind)
        else:
            predicate = coordinate_plane_predicate(lam, args.kind)
    estimate = mc_volume(predicate, region, args.samples, seed)
    return {"method": "mc", "kind": args.kind, "class": cls,
            "region": region.name,
            "estimate": estimate}


def _cmd_volume(args):
    subject = _load_subject(args.state)
    region_name = _region_name(subject, args.region)
    if args.method == "closed":
        payload = _closed_monotone(subject, args.kind, args.operation_class,
                                   args.cut,
                                   planar=region_name == "coordinate-plane")
        if (args.region == "simplex-sorted"
                and payload.measure == "coordinate-plane"):
            raise ValueError("no closed accessible form in the sorted simplex "
                             "for length 3; use --region coordinate-plane or "
                             "--method mc")
    elif args.method == "exact":
        if args.kind != "source":
            raise ValueError("exact volumes cover only the source polytope; "
                             "use --method mc for --kind accessible")
        lam = _select_spectrum(subject, args.operation_class.upper(), args.cut)
        if region_name != "simplex-sorted":
            raise ValueError(f"region {region_name!r} has no exact volume")
        payload = {"method": "exact", "volume": exact_polytope_volume(lam)}
    else:
        payload = _mc_volume_payload(subject, region_name, args,
                                     _resolve_seed(args.seed))
    _emit_json(payload, args.output)
    return 0


def _cmd_check(args):
    seed = _resolve_seed(args.seed)
    if args.suite == "monotonicity":
        if not args.monotone:
            raise ValueError("--monotone is required for this suite")
        report = monotonicity_suite(args.monotone,
                                    args.operation_class.upper(),
                                    args.trials, seed)
    elif args.suite == "lemma1":
        report = lemma1_suite(args.trials, seed)
    else:
        try:
            dims = tuple(int(d) for d in args.dims.split(","))
        except ValueError:
            raise ValueError("--dims takes comma-separated integers, "
                             f"got {args.dims!r}") from None
        report = formula_identity_check(args.count, dims, seed)
    _emit_json(report, args.output)
    return 0


def _cmd_counterexample(args):
    _emit_json(b3_b4_counterexamples(step=args.step), args.output)
    return 0


def _cmd_plot(args):
    subject = _figure_subject(args.figure, _load_subject(args.state))
    regions = figure_regions(args.figure, subject)
    if args.format == "csv":
        _emit(boundary_csv(regions), args.output)
        return 0
    accessible, source = (
        _closed_monotone(subject, kind, _FIGURE_CLASSES[args.figure],
                         planar=True) for kind in ("accessible", "source"))
    metadata = {"accessible_volume": accessible.volume,
                "source_volume": source.volume,
                "accessible_value": accessible.value,
                "source_value": source.value}
    _emit(svg_figure(args.figure, regions, metadata), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser() -> _Parser:
    """The argument tree, built on first use and kept for the process;
    each parse starts from a fresh namespace, so no call sees another's
    arguments."""
    parser = _Parser(prog="cohertk",
                     description="coherence resource-theory toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_output(p):
        p.add_argument("--output", help="write to this file instead of the "
                                        "standard output stream")

    p = sub.add_parser("classify", help="two-qubit stochastic class")
    p.add_argument("--state", required=True)
    add_output(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("equiv", help="local-incoherent-unitary or "
                                     "stochastic equivalence")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--method", choices=("liu", "slicc"), default="liu")
    add_output(p)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("feasible", help="transformation feasibility")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--class", dest="operation_class", required=True,
                   help="IC | SIO | PIO | LICC | LSICC | LOCC")
    p.add_argument("--cut", type=int, default=None,
                   help="bipartition size for LOCC, LICC (first k parties)")
    add_output(p)
    p.set_defaults(fn=_cmd_feasible)

    p = sub.add_parser("monotone", help="closed-form coherence monotones")
    p.add_argument("--kind", choices=("accessible", "source"), required=True)
    p.add_argument("--class", dest="operation_class", default="IC")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", type=int, default=None)
    add_output(p)
    p.set_defaults(fn=_cmd_monotone)

    p = sub.add_parser("volume", help="accessible/source volumes")
    p.add_argument("--method", choices=("closed", "exact", "mc"),
                   default="closed")
    p.add_argument("--kind", choices=("accessible", "source"),
                   default="source")
    p.add_argument("--class", dest="operation_class", default="IC")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", type=int, default=None)
    p.add_argument("--region", default=None,
                   help="simplex-sorted | coordinate-plane | bloch-disc | "
                        "bloch-half-disc")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    add_output(p)
    p.set_defaults(fn=_cmd_volume)

    p = sub.add_parser("check", help="property suites and formula identity")
    p.add_argument("--suite", choices=("monotonicity", "lemma1", "identity"),
                   required=True)
    p.add_argument("--monotone", default=None,
                   help="sio-Ca | sio-Cs | pio-Ca | pio-Cs | source-closed")
    p.add_argument("--class", dest="operation_class", default="IC")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--count", type=int, default=100,
                   help="spectra per dimension (identity suite)")
    p.add_argument("--dims", default="2,3,4")
    p.add_argument("--seed", type=int, default=None)
    add_output(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("plot", help="region geometry as SVG or CSV")
    p.add_argument("--figure", required=True,
                   choices=("qubit-sio", "qubit-pio", "qutrit", "two-level"))
    p.add_argument("--state", required=True)
    p.add_argument("--format", choices=("svg", "csv"), default="svg")
    add_output(p)
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("counterexample",
                       help="averaging/convexity failure certificates")
    p.add_argument("--step", type=float, default=0.05)
    add_output(p)
    p.set_defaults(fn=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LemmaNotApplicableError as exc:
        _emit_json({"applicable": False, "reason": str(exc)}, None)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"cohertk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
