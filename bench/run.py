"""Benchmark command for cohertk.

    python3 bench/run.py --workload suites|mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh worker
processes (``worker.py``), one at a time, each driving a single-threaded
closed loop.  With ``--trace 0`` the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics setup_s, wall_s, p50_ms, p90_ms and
peak_rss_mb; with ``--trace 1`` the metrics are the per-layer ones of a
traced worker.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("suites", "mixed")

#: Fresh interpreters whose set-up time is measured (the last one also
#: runs the timed loop); setup_s is their median.
SETUP_LAUNCHES = 5

#: Everything must end within this many seconds of the start.
DEADLINE_S = 170


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _launch(args, workdir, extra, deadline):
    """Start a worker, wait for it, and return (seconds from launch to the
    end of its set-up, its result object)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", str(workdir)]
    env = dict(os.environ)
    env.pop("COHERTK_SEED", None)
    # one thread: the closed loop is single-threaded by design
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    launched = _now()
    proc = subprocess.run(command + extra, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = result["setup"]
    return setup["import_end"] - launched + setup["warmup_s"], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cohertk" / "__init__.py").is_file():
        print(f"run.py: no cohertk sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = _now() + DEADLINE_S
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            _, result = _launch(args, workdir, ["--trace"], deadline)
        else:
            setups = [_launch(args, workdir, ["--setup-only"], deadline)[0]
                      for _ in range(SETUP_LAUNCHES - 1)]
            setup, result = _launch(args, workdir, [], deadline)
            setups.append(setup)
            result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"run.py: {args.workload}: {problem}", file=sys.stderr)
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result["metrics"].items())},
    }
    line = json.dumps(summary)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
