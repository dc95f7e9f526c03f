"""One benchmark process: import, warm up, then run a workload's rounds in
a single-threaded closed loop and check every output.

Started by ``run.py`` in a fresh interpreter, so that import time, warm-up
and memory belong to this process alone.  Prints one JSON object as its
last line of standard output.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A run measures at least this many rounds and operations (enough for a
#: 90th percentile with ten samples beyond it).
MIN_ROUNDS = 3
MIN_OPS = 100


def _now() -> float:
    """Monotonic clock shared with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_round(ops, latencies, problems):
    """Run every operation once, then check the outputs.  Returns
    (wall seconds, cpu seconds, failed operations)."""
    outputs = []
    cpu = time.process_time()
    start = time.perf_counter()
    for op in ops:
        begin = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # counted as a failed operation
            output, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - begin)
        outputs.append((output, error))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    failed = 0
    for op, (output, error) in zip(ops, outputs):
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:  # an output the check cannot read
                error = f"{op.label}: unreadable output: {type(exc).__name__}: {exc}"
            if error is not None and not op.malformed:
                problems["wrong"].append(error)
                continue
        if error is not None:
            failed += 1
            problems["failed"].add(error)
    return wall, cpu, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    begin = time.perf_counter()
    import numpy  # noqa: F401
    numpy_s = time.perf_counter() - begin
    import cohertk  # noqa: F401
    cohertk_s = time.perf_counter() - begin - numpy_s
    import_end = _now()

    import stats
    import tracing
    import workloads

    tracer = tracing.Tracer()
    workdir = pathlib.Path(args.workdir)
    work = workloads.build(args.workload, args.seed, workdir, tracer)

    begin = time.perf_counter()
    for op in work.warmup:
        op.run()
    setup = {"import_end": import_end,
             "warmup_s": time.perf_counter() - begin}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    latencies = []
    problems = {"wrong": [], "failed": set()}
    walls = {False: [], True: []}
    cpus = []
    attempted = failed = 0
    start = time.perf_counter()
    # with tracing, the first half of the run is untraced and the second
    # traced, so the difference of their round times is the overhead
    untraced_until = args.seconds / 2 if args.trace else args.seconds
    while True:
        elapsed = time.perf_counter() - start
        traced = tracer.active
        if args.trace and not traced and elapsed >= untraced_until \
                and len(walls[False]) >= MIN_ROUNDS:
            tracer.install()
            traced = True
        if elapsed >= args.seconds and len(walls[traced]) >= MIN_ROUNDS \
                and (args.trace or len(latencies) >= MIN_OPS):
            break
        ops = work.round(len(walls[False]) + len(walls[True]))
        wall, cpu, round_failed = _run_round(
            ops, latencies if not traced else [], problems)
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        attempted += len(ops)
        failed += round_failed
    tracer.uninstall()

    result = {"attempted": attempted, "failed": failed,
              "correct": not problems["wrong"],
              "problems": problems["wrong"][:5] + sorted(problems["failed"]),
              "setup": setup}
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, len(walls[True]))
        layers["import.numpy_s"] = (numpy_s, "s")
        layers["import.cohertk_s"] = (cohertk_s, "s")
        layers["process.cpu_s"] = (statistics.median(cpus), "s")
        layers["tracing.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]), "s")
        # only the mixed workload scans the counterexample grid
        layers["oracle.b3_b4_counterexamples.peak_traced_mb"] = (
            _traced_peak_mb() if args.workload == "mixed" else 0.0, "MB")
        result["metrics"] = layers
        tracer.dump(workdir.parent / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        result["metrics"] = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "p90_ms": (stats.percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    print(json.dumps(result))
    return 0


def _traced_peak_mb() -> float:
    """Peak traced allocation of one default counterexample scan, measured
    after the timed rounds so tracemalloc slows no timed call."""
    import tracemalloc

    from cohertk import oracle
    tracemalloc.start()
    try:
        oracle.b3_b4_counterexamples()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    sys.exit(main())
