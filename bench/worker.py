"""Run one benchmark workload in this process and print its figures as JSON.

Started by bench/run.py, once per set-up measurement; see bench/README.md.
The last line of standard output is a JSON object.  With ``--setup-only``
the process stops after set-up (import, input generation, config
validation and warm-up ops) and reports only when that ended.

Ops form a closed loop: one op at a time, each started after the last one
and its correctness gate finished.  Only the op itself is timed; input
preparation (generating and parsing the config, writing config files) and
the gate are not.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Ops run before timing starts; the first ops after a large fresh
# allocation run about twice as slow as the steady state.
WARMUP_OPS = {"deep_solve": 3, "cli_roundtrip": 2, "ladder_iterate": 3}
REFERENCE_TOL = 1e-10      # Y against an independent route
Y0_TOL = 1e-12             # CLI Y0 against the in-process solve
MONOTONE_TOL = 1e-12       # penalty ladders rise towards the reflected Y
UNIQUENESS_TOL = 1e-10     # worst Y gap between the uniqueness routes
CHILD_TIMEOUT_S = 60.0
# Wall time of one schedule cycle (ops plus their gates) on a 2-core host
# with Python 3.11 and numpy 2.4; a run of --seconds S holds S / CYCLE_S
# cycles, rounded half up.  Only a host CAP_FACTOR times slower cuts a run short.
CYCLE_S = {"deep_solve": 9.2, "cli_roundtrip": 10.0, "ladder_iterate": 5.75}
CAP_FACTOR = 2.5


@dataclass
class Outcome:
    reasons: list = field(default_factory=list)   # empty when the op passed
    known: bool = False                            # failure is the a != 0 defect
    bytes_out: int = 0
    bytes_in: int = 0


def known_defect(report, driver) -> bool:
    """Known finding 1 (ROADMAP item 1): a direct reflected solve with a != 0.

    The solvers book the compensator before the implicit a*y term, so
    exactly the dynamics clause misses.
    """
    failing = {name for name, c in report.clauses.items() if not c.passed}
    return failing == {"dynamics"} and driver.a != 0.0


# Known finding 2: picard_solve stops when the alpha-weighted L2 move is
# below 1e-12, which does not bound the sup-norm error.  Its Y can then
# sit 1e-10 to 1e-9 off the fixed point, so the dynamics clause, the
# agreement across alphas or the uniqueness gap can miss 1e-10.
PICARD_PRECISION = {"clause:dynamics", "reference:alpha", "reference:uniqueness"}


def clause_reasons(report) -> list:
    return [f"clause:{name}" for name, c in report.clauses.items() if not c.passed]


class Workload:
    """Op source for one workload: prepare an input, run it, gate its output."""

    def start(self) -> None:
        """Start helper processes the gate needs, after set-up."""

    def close(self) -> None:
        """Stop what ``start`` started."""


class DeepSolve(Workload):
    """build_tree, a direct reflected solve and the checker on near-cap trees."""

    def __init__(self, seed: int, work: Path) -> None:
        from rbsde import config, reflected, twobarrier, verify
        self.config, self.reflected, self.twobarrier, self.verify = (
            config, reflected, twobarrier, verify)
        self.seed, self.work = seed, work
        self.helper = None

    def prepare(self, index: int, stream: str = "ops"):
        problem = inputs.deep_problem(self.seed, stream, index)
        spec, _ = self.config.parse_config(problem.config)
        return problem, spec

    def run(self, item, traced: bool = False):
        problem, spec = item
        tree = spec.build_tree()
        if problem.kind == "one_barrier":
            sol = self.reflected.solve_reflected_one(tree, spec.driver, spec.terminal,
                                                     spec.barrier)
            report = self.verify.check_solution_one(tree, sol, spec.driver, spec.terminal,
                                                    spec.barrier)
        else:
            sol = self.twobarrier.solve_double_obstacle(tree, spec.driver, spec.terminal,
                                                        spec.lower, spec.upper)
            report = self.verify.check_solution_two(tree, sol, spec.driver, spec.terminal,
                                                    spec.lower, spec.upper)
        return sol.y, report

    def start(self) -> None:
        self.helper = subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py")], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def close(self) -> None:
        if self.helper is not None:
            self.helper.stdin.close()
            try:
                self.helper.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.helper.kill()
                self.helper.wait()
            self.helper = None

    def _reference(self, problem, y) -> dict:
        import numpy as np
        path = self.work / "y.npy"
        np.save(path, np.concatenate(y))
        check = "snell" if problem.kind == "one_barrier" else "envelope"
        self.helper.stdin.write(json.dumps({"config": problem.config, "y": str(path),
                                            "check": check}) + "\n")
        self.helper.stdin.flush()
        ready, _, _ = select.select([self.helper.stdout], [], [], CHILD_TIMEOUT_S)
        if not ready:
            raise RuntimeError("reference process did not answer")
        answer = json.loads(self.helper.stdout.readline())
        answer["check"] = check
        return answer

    def gate(self, item, out) -> Outcome:
        problem, spec = item
        y, report = out
        outcome = Outcome(reasons=clause_reasons(report),
                          known=known_defect(report, spec.driver))
        if not problem.coefficients:
            answer = self._reference(problem, y)
            if "error" in answer or answer["residual"] > REFERENCE_TOL:
                outcome.reasons.append(f"reference:{answer['check']}")
                outcome.known = False
        return outcome

    def nodes(self, item) -> int:
        return item[0].nodes


class CliRoundtrip(Workload):
    """One ``python -m rbsde.cli`` process per op: solve with a dump, then verify it."""

    def __init__(self, seed: int, work: Path) -> None:
        from rbsde import config, reflected, twobarrier
        self.config, self.reflected, self.twobarrier = config, reflected, twobarrier
        self.seed, self.work = seed, work
        self.spans: list = []   # summaries written by traced CLI processes
        self.reference_y0: dict = {}

    def prepare(self, index: int, stream: str = "ops"):
        """Even ops solve problem index // 2, odd ops verify what it wrote."""
        number = index // 2
        folder = self.work / f"{stream}-{number}"
        if index % 2 == 0:
            problem = inputs.cli_problem(self.seed, stream, number)
            shutil.rmtree(folder, ignore_errors=True)
            folder.mkdir(parents=True)
            (folder / "config.json").write_text(json.dumps(problem.config), encoding="utf-8")
            return "solve", problem, folder
        return "verify", inputs.cli_problem(self.seed, stream, number), folder

    def _argv(self, item) -> list:
        command, problem, folder = item
        if command == "solve":
            name = "solve-one" if problem.kind == "one_barrier" else "solve-two"
            return [name, "--config", str(folder / "config.json"), "--out", str(folder / "solve")]
        return ["verify", "--config", str(folder / "config.json"),
                "--out", str(folder / "verify"),
                "--solution", str(folder / "solve" / "solution.json")]

    def run(self, item, traced: bool = False):
        command, _, folder = item
        out = folder / command
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            spans = folder / "spans.json"
            argv = [sys.executable, str(BENCH / "launcher.py"), str(spans)] + self._argv(item)
        else:
            argv = [sys.executable, "-m", "rbsde.cli"] + self._argv(item)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode

    def _y0(self, problem) -> float:
        spec, _ = self.config.parse_config(problem.config)
        tree = spec.build_tree()
        if problem.kind == "one_barrier":
            sol = self.reflected.solve_reflected_one(tree, spec.driver, spec.terminal,
                                                     spec.barrier)
        else:
            sol = self.twobarrier.solve_double_obstacle(tree, spec.driver, spec.terminal,
                                                        spec.lower, spec.upper)
        return float(sol.y[0][0])

    def gate(self, item, code) -> Outcome:
        command, problem, folder = item
        out = folder / command
        outcome = Outcome()
        written = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
        outcome.bytes_out = sum(p.stat().st_size for p in written)
        outcome.bytes_in = (folder / "config.json").stat().st_size
        if command == "verify":
            outcome.bytes_in += sum(p.stat().st_size
                                    for p in (folder / "solve").glob("solution*"))
        if code != 0:
            outcome.reasons.append(f"exit:{code}")
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if not report["passed"]:
                outcome.reasons += [f"clause:{name}" for name, c in report["clauses"].items()
                                    if not c["passed"]]
            payload = json.loads((folder / "solve" / "solution.json").read_text(
                encoding="utf-8"))
            if folder not in self.reference_y0:
                self.reference_y0[folder] = self._y0(problem)
            expected = self.reference_y0[folder]
            for y0 in (payload["summary"]["y0"], payload["nodes"]["y"][0][0]):
                if abs(y0 - expected) > Y0_TOL:
                    outcome.reasons.append("reference:y0")
                    break
        except (OSError, KeyError, IndexError, ValueError) as exc:
            outcome.reasons.append(f"output:{type(exc).__name__}")
        if command == "verify":
            self.reference_y0.pop(folder, None)
        spans = folder / "spans.json"
        if spans.exists():
            self.spans.append(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        return outcome

    def nodes(self, item) -> int:
        return item[1].nodes


class LadderIterate(Workload):
    """Studies that repeat backward sweeps on one mid-size tree."""

    def __init__(self, seed: int, work: Path) -> None:
        from rbsde import config, fixpoint, penalty, tree, twobarrier, verify
        self.config, self.fixpoint, self.penalty = config, fixpoint, penalty
        self.tree, self.twobarrier, self.verify = tree, twobarrier, verify
        self.seed = seed

    def prepare(self, index: int, stream: str = "ops"):
        problem = inputs.ladder_problem(self.seed, stream, index)
        spec, _ = self.config.parse_config(problem.config)
        return problem, spec

    def run(self, item, traced: bool = False):
        problem, spec = item
        if problem.study == "uniqueness":
            return self.verify.uniqueness_probe(spec)
        if problem.study == "regularity":
            return self.verify.regularity_probe(spec)
        tree = spec.build_tree()
        if problem.study == "sweep":
            return tree, self.penalty.sweep(tree, spec.driver, spec.barrier, spec.terminal,
                                            self.verify.DEFAULT_LADDER)
        if problem.study == "envelope":
            return tree, self.twobarrier.picard_snell_solve(tree, spec.driver, spec.terminal,
                                                            spec.lower, spec.upper)
        rule = self.fixpoint.alpha_rule(spec.driver.lipschitz_constant)
        return tree, [self.fixpoint.picard_solve(
            tree, spec.driver, spec.terminal, solver_kind=problem.kind,
            barrier=spec.barrier, lower=spec.lower, upper=spec.upper, alpha=alpha)
            for alpha in (rule, 2.0 * rule)]

    def gate(self, item, out) -> Outcome:
        problem, spec = item
        outcome = Outcome()
        reasons = outcome.reasons
        sup_diff = self.tree.sup_diff
        if problem.study == "uniqueness":
            if out > UNIQUENESS_TOL:
                reasons.append("reference:uniqueness")
                # only problems with a, b, c != 0 take Picard routes
                outcome.known = problem.coefficients
            return outcome
        if problem.study == "regularity":
            gaps = out.y_gaps
            if any(b > a + MONOTONE_TOL for a, b in zip(gaps, gaps[1:])):
                reasons.append("reference:ladder_gaps")
            return outcome
        tree, result = out
        if problem.study == "sweep":
            gaps = result.sup_gaps
            if any(b > a + MONOTONE_TOL for a, b in zip(gaps, gaps[1:])):
                reasons.append("reference:ladder_gaps")
            below = max(float((s.solution.y[k] - result.reflected.y[k]).max())
                        for s in result.solutions for k in range(tree.num_steps + 1))
            if below > MONOTONE_TOL:
                reasons.append("reference:penalised_above_reflected")
            return outcome
        # picard_snell_solve and picard_solve raise when they do not converge
        if problem.study == "envelope":
            sol, trace = result
            self.twobarrier.monotone_iterate_check(tree, trace)
            direct = self.twobarrier.solve_double_obstacle(tree, spec.driver, spec.terminal,
                                                           spec.lower, spec.upper)
            if sup_diff(sol.y, direct.y) > REFERENCE_TOL:
                reasons.append("reference:direct")
            return outcome
        (first, _), (second, _) = result
        if sup_diff(first.y, second.y) > REFERENCE_TOL:
            reasons.append("reference:alpha")
        if problem.kind == "one_barrier":
            reasons += clause_reasons(self.verify.check_solution_one(
                tree, first, spec.driver, spec.terminal, spec.barrier))
        elif problem.kind == "two_barrier":
            reasons += clause_reasons(self.verify.check_solution_two(
                tree, first, spec.driver, spec.terminal, spec.lower, spec.upper))
        outcome.known = set(reasons) <= PICARD_PRECISION
        return outcome

    def nodes(self, item) -> int:
        return item[0].nodes


WORKLOADS = {"deep_solve": DeepSolve, "cli_roundtrip": CliRoundtrip,
             "ladder_iterate": LadderIterate}


@dataclass
class Record:
    seconds: float
    nodes: int
    outcome: Outcome
    traced: bool = False


def execute(workload, item, tracer, traced: bool) -> Record:
    """Time one op, then gate its output with the tracer off."""
    tracer.active = traced
    start = time.perf_counter()
    try:
        out = workload.run(item, traced)
    except Exception as exc:  # a failed op is counted, never dropped
        out, error = None, f"exception:{type(exc).__name__}: {exc}"
    else:
        error = None
    elapsed = time.perf_counter() - start
    tracer.active = False
    if error is not None:
        outcome = Outcome(reasons=[error])
    else:
        try:
            outcome = workload.gate(item, out)
        except Exception as exc:  # the gate itself rejected the output
            outcome = Outcome(reasons=[f"gate:{type(exc).__name__}: {exc}"])
    return Record(elapsed, workload.nodes(item), outcome, traced)


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_roundtrip" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def summarise(records: list, workload_name: str) -> dict:
    times = [r.seconds for r in records]
    failed = [r for r in records if r.outcome.reasons]
    reasons = Counter(reason for r in failed for reason in r.outcome.reasons)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]   # linear interpolation
    return {
        "attempted": len(records),
        "failed": len(failed),
        "known_failures": sum(1 for r in failed if r.outcome.known),
        "unexpected": sorted({x for r in failed if not r.outcome.known
                              for x in r.outcome.reasons}),
        "failure_reasons": dict(reasons),
        "beyond_p90": sum(1 for t in times if t > p90),
        "metrics": {
            "op_s.p50": statistics.median(times),
            "op_s.p90": p90,
            "nodes_per_s": sum(r.nodes for r in records) / sum(times),
            "peak_rss_mb": peak_rss_mb(workload_name),
            "out_mb": statistics.median(r.outcome.bytes_out for r in records) / 1e6,
            "ops_failed_frac": len(failed) / len(records),
        },
    }


def cycles_for(workload_name: str, seconds: float) -> int:
    """Schedule cycles in a run of ``seconds``: a fixed count, not a clock reading.

    The count depends only on the workload and ``seconds``, so two runs
    with the same seed attempt the same ops and fail the same ones.
    """
    return max(1, int(seconds / CYCLE_S[workload_name] + 0.5))


def measure(workload, tracer, cycles: int, cycle: int, cap_s: float) -> list:
    """``cycles`` whole schedule cycles, one op at a time.

    Each cycle holds every op class in its fixed share, so runs of any
    length measure the same mix.  The loop stops early, at a cycle
    boundary, only once it has run ``cap_s`` seconds.
    """
    records = []
    start = time.perf_counter()
    index = 0
    for _ in range(cycles):
        if time.perf_counter() - start >= cap_s:
            break
        for _ in range(cycle):
            records.append(execute(workload, workload.prepare(index), tracer, False))
            index += 1
    return records


def measure_traced(workload, tracer, ops: int, cap_s: float) -> list:
    """One schedule cycle, each op run untraced and traced, alternating which goes first.

    The traced ops are the same fixed prefix of the op stream on every
    commit, so the per-layer totals compare across commits.  The loop
    stops early only once it has run ``cap_s`` seconds.
    """
    records = []
    deadline = time.perf_counter() + cap_s
    for index in range(ops):
        if time.perf_counter() >= deadline:
            break
        tracer.op = index
        tracer.active = True
        item = workload.prepare(index)
        tracer.active = False
        launched = getattr(workload, "spans", [])
        before = len(launched)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            records.append(execute(workload, item, tracer, traced))
        for part in launched[before:]:
            part["op"] = index
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--spawn-wall", type=float, required=True,
                        help="time.time() at which the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if args.trace else (lambda: None)
    for index in range(WARMUP_OPS[args.workload]):
        workload.run(workload.prepare(index, stream="warmup"))
    setup_end = time.time()
    result = {"setup_s": setup_end - args.spawn_wall}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    workload.start()
    try:
        cycle = inputs.CYCLE[args.workload]
        cap_s = CAP_FACTOR * args.seconds
        loop_start = time.perf_counter()
        if args.trace:
            records = measure_traced(workload, tracer, cycle, cap_s)
        else:
            records = measure(workload, tracer, cycles_for(args.workload, args.seconds),
                              cycle, cap_s)
        result["loop_s"] = time.perf_counter() - loop_start
    finally:
        workload.close()
        restore()
    result.update(summarise(records, args.workload))
    if args.trace:
        untraced = [r.seconds for r in records if not r.traced]
        traced = [r.seconds for r in records if r.traced]
        parts = [tracer.summary()] + getattr(workload, "spans", [])
        startup = sum(p.get("startup_s", 0.0) for p in parts)
        layers, clauses = tracing.layer_metrics(
            parts, startup,
            sum(r.outcome.bytes_out for r in records if r.traced),
            sum(r.outcome.bytes_in for r in records if r.traced),
            len(traced), statistics.median(traced) - statistics.median(untraced))
        result["layers"] = layers
        result["clauses_failed"] = clauses
        tracer.dump(work.parent / f"spans-{args.workload}.json", {"launchers": parts[1:]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
