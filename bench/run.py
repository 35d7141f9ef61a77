"""rbsde benchmark: one workload per invocation, from the root of a checkout.

    python3 bench/run.py --workload deep_solve --seed 1 --seconds 30 --trace 0

Workloads (why each exists: bench/README.md and BENCHMARK.json):
  deep_solve      build, direct reflected solve and checker on near-cap trees
  cli_roundtrip   one ``python -m rbsde.cli`` process per op: solve with dump, verify
  ladder_iterate  penalty ladders, Picard and envelope iterations and probes

Runs the workload in a child process (bench/worker.py) with ``src`` on
PYTHONPATH and BLAS pinned to one thread, after two more children that
only set up, and reports the median of the three set-up times.  Prints
each metric by name and unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Exits non-zero without that line if the workload could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("deep_solve", "cli_roundtrip", "ladder_iterate")
SETUP_RUNS = 3
BLAS_THREADS = "1"
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
              ("nodes_per_s", "nodes/s"), ("peak_rss_mb", "MB"))
# Printed with the end-to-end metrics but not gated: both can be 0.
PRINTED_ONLY = (("out_mb", "MB"), ("ops_failed_frac", "ratio"))
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_worker(args, work: Path, setup_only: bool, timeout: float) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawn-wall", repr(time.time())]
    # Its own session, so that a timeout also stops the CLI or reference
    # process the worker may be waiting on.
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="rbsde benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rbsde").is_dir():
        print(f"no rbsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                left = DEADLINE_S - (time.monotonic() - started)
                setups.append(run_worker(args, work, True, left)["setup_s"])
        left = DEADLINE_S - (time.monotonic() - started)
        result = run_worker(args, work, False, left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])

    values = dict(result["metrics"], setup_s=statistics.median(setups))
    ops = result["attempted"]
    print(f"rbsde benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} blas_threads={BLAS_THREADS} "
          f"nproc={os.cpu_count()} closed loop, 1 client")
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "op_s.p50": f"{ops} ops in {result['loop_s']:.1f} s, warm-up excluded",
             "op_s.p90": f"{ops} ops, {result['beyond_p90']} beyond",
             "nodes_per_s": f"{ops} ops",
             "out_mb": "median bytes written per op",
             "ops_failed_frac": f"{result['failed']} of {ops} failed"}
    for name, unit in END_TO_END + PRINTED_ONLY:
        print(f"  {name:<16} {values[name]:<14.6g} {unit:<8} {notes.get(name, '')}")
    if result["failed"]:
        reasons = ", ".join(f"{k} x{v}" for k, v in sorted(result["failure_reasons"].items()))
        print(f"  failed ops: {reasons}; {result['known_failures']} of them fail in a known "
              f"way (bench/README.md, known findings)")
    for reason in result["unexpected"]:
        print(f"  UNEXPECTED failure: {reason}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
        print("  per-layer run totals over the traced ops:")
        for name, (value, unit) in result["layers"].items():
            print(f"    {name:<30} {value:<14.6g} {unit}")
        if result["clauses_failed"]:
            print(f"    clauses failed by name: {result['clauses_failed']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not result["unexpected"], "attempted": ops,
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
