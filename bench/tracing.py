"""Spans around calls into rbsde, recorded from outside the program.

``install`` replaces public names with timing wrappers in the modules
that call them, and the function it returns puts the originals back.
Spans live in memory as ``[name, start, end, parent, op]`` lists; a
layer's self time is a span's duration minus the durations of its
direct children (calls are strictly nested on one thread, so children
never overlap).  Counters that only a call's arguments or result can
give (nodes built, envelope rounds, failing clauses) are taken by small
observer functions at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# Layer metrics that are sums of self time over span names.
SELF_TIME_METRICS = {
    "tree.build_s": ("tree.build",),
    "processes.eval_s": ("processes.eval",),
    "config.load_s": ("config.load",),
    "bsde.project_s": ("bsde.project",),
    "bsde.solve_s": ("bsde.solve",),
    "reflected.solve_s": ("reflected.solve",),
    "twobarrier.solve_s": ("twobarrier.solve",),
    "twobarrier.envelope_s": ("twobarrier.envelope",),
    "snell.envelope_s": ("snell.envelope",),
    "penalty.sweep_s": ("penalty.sweep", "penalty.solve"),
    "fixpoint.picard_s": ("fixpoint.picard",),
    "verify.check_s": ("verify.check",),
    "verify.probe_s": ("verify.probe",),
    "cli.self_s": ("cli.main",),
}
# Layer metrics that count calls of one span name.
CALL_COUNT_METRICS = {
    "processes.eval_calls": "processes.eval",
    "bsde.project_calls": "bsde.project",
    "bsde.sweeps": "bsde.solve",
    "snell.calls": "snell.envelope",
    "penalty.levels": "penalty.solve",
}


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.counters: Counter = Counter()
        self.clauses_failed: Counter = Counter()
        self.eval_pairs: set = set()

    def call(self, name, fn, observe, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if observe is not None:
            observe(self, args, result)
        return result

    def self_times(self) -> tuple[dict, Counter]:
        """Self time and call count per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            calls[name] += 1
        return dict(totals), calls

    def summary(self) -> dict:
        """JSON-ready aggregate, the form launcher processes hand back."""
        totals, calls = self.self_times()
        return {"self_s": totals, "calls": dict(calls), "counters": dict(self.counters),
                "clauses_failed": dict(self.clauses_failed),
                "eval_pairs": len(self.eval_pairs)}

    def dump(self, path, extra: dict) -> None:
        payload = dict(self.summary(), spans=self.spans, **extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _tree_built(tracer, args, tree) -> None:
    tracer.counters["tree.nodes"] += tree.node_count
    arrays = [tree.branch_prob, tree.branch_db, tree.branch_jump, tree.branch_comp,
              *tree.w, *tree.counts, *tree.atom_prob]
    tracer.counters["tree.array_bytes"] += sum(a.nbytes for a in arrays)


def _evaluated(tracer, args, result) -> None:
    # eval_barrier(spec, tree) and TerminalSpec.evaluate(self, tree)
    tracer.eval_pairs.add((tracer.op, id(args[0]), id(args[1])))


def _envelope_rounds(tracer, args, result) -> None:
    tracer.counters["twobarrier.envelope_rounds"] += result[1].iterations


def _picard_iterations(tracer, args, result) -> None:
    tracer.counters["fixpoint.iterations"] += result[1].iterations


def _checked(tracer, args, report) -> None:
    for clause, check in report.clauses.items():
        if not check.passed:
            tracer.clauses_failed[clause] += 1


# (module, attribute, span name, observer).  Each name is wrapped where it
# is looked up: the defining module for calls the benchmark makes, and
# every module that imported it for calls made inside the library.
TARGETS = (
    ("rbsde.processes", "build_tree", "tree.build", _tree_built),
    ("rbsde.bsde", "eval_barrier", "processes.eval", _evaluated),
    ("rbsde.processes", "TerminalSpec.evaluate", "processes.eval", _evaluated),
    ("rbsde.config", "parse_config", "config.load", None),
    ("rbsde.cli", "load_config", "config.load", None),
    ("rbsde.bsde", "project_level", "bsde.project", None),
    ("rbsde.reflected", "project_level", "bsde.project", None),
    ("rbsde.twobarrier", "project_level", "bsde.project", None),
    ("rbsde.penalty", "solve_bsde", "bsde.solve", None),
    ("rbsde.fixpoint", "solve_bsde", "bsde.solve", None),
    ("rbsde.verify", "solve_bsde", "bsde.solve", None),
    ("rbsde.reflected", "snell", "snell.envelope", None),
    ("rbsde.twobarrier", "snell", "snell.envelope", None),
    ("rbsde.verify", "snell", "snell.envelope", None),
    ("rbsde.cli", "snell", "snell.envelope", None),
    ("rbsde.reflected", "solve_reflected_one", "reflected.solve", None),
    ("rbsde.cli", "solve_reflected_one", "reflected.solve", None),
    ("rbsde.penalty", "solve_reflected_one", "reflected.solve", None),
    ("rbsde.fixpoint", "solve_reflected_one", "reflected.solve", None),
    ("rbsde.verify", "solve_reflected_one", "reflected.solve", None),
    ("rbsde.twobarrier", "solve_double_obstacle", "twobarrier.solve", None),
    ("rbsde.cli", "solve_double_obstacle", "twobarrier.solve", None),
    ("rbsde.fixpoint", "solve_double_obstacle", "twobarrier.solve", None),
    ("rbsde.verify", "solve_double_obstacle", "twobarrier.solve", None),
    ("rbsde.twobarrier", "picard_snell_solve", "twobarrier.envelope", _envelope_rounds),
    ("rbsde.verify", "picard_snell_solve", "twobarrier.envelope", _envelope_rounds),
    ("rbsde.penalty", "sweep", "penalty.sweep", None),
    ("rbsde.cli", "sweep", "penalty.sweep", None),
    ("rbsde.verify", "sweep", "penalty.sweep", None),
    ("rbsde.penalty", "solve_penalized", "penalty.solve", None),
    ("rbsde.verify", "solve_penalized", "penalty.solve", None),
    ("rbsde.fixpoint", "picard_solve", "fixpoint.picard", _picard_iterations),
    ("rbsde.cli", "picard_solve", "fixpoint.picard", _picard_iterations),
    ("rbsde.verify", "picard_solve", "fixpoint.picard", _picard_iterations),
    ("rbsde.verify", "check_solution_one", "verify.check", _checked),
    ("rbsde.verify", "check_solution_two", "verify.check", _checked),
    ("rbsde.cli", "check_solution_one", "verify.check", _checked),
    ("rbsde.cli", "check_solution_two", "verify.check", _checked),
    ("rbsde.verify", "uniqueness_probe", "verify.probe", None),
    ("rbsde.verify", "regularity_probe", "verify.probe", None),
    ("rbsde.cli", "main", "cli.main", None),
)


def _wrap(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, observe, args, kwargs)
    return traced


def install(tracer: Tracer, cli: bool = False):
    """Wrap every target (the rbsde.cli ones only with ``cli``); return the undo."""
    saved = []
    for module_name, attr, span_name, observe in TARGETS:
        if module_name == "rbsde.cli" and not cli:
            continue
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        saved.append((owner, leaf, original))
        setattr(owner, leaf, _wrap(tracer, span_name, original, observe))

    def restore() -> None:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
    return restore


def layer_metrics(parts: list[dict], startup_s: float, bytes_out: int,
                  bytes_in: int, ops: int, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer run totals from ``Tracer.summary`` results, and failed clauses by name.

    Each metric maps to ``(value, unit)``.
    """
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    counters: Counter = Counter()
    clauses: Counter = Counter()
    pairs = 0
    for part in parts:
        for name, value in part["self_s"].items():
            self_s[name] += value
        calls.update(part["calls"])
        counters.update(part["counters"])
        clauses.update(part["clauses_failed"])
        pairs += part["eval_pairs"]

    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = (sum(self_s[n] for n in names), "s")
    for metric, name in CALL_COUNT_METRICS.items():
        out[metric] = (calls[name], "count")
    eval_calls = calls["processes.eval"]
    out["processes.eval_useful_ratio"] = (pairs / eval_calls if eval_calls else 0.0, "ratio")
    out["tree.nodes"] = (counters["tree.nodes"], "count")
    out["tree.array_mb"] = (counters["tree.array_bytes"] / 1e6, "MB")
    out["twobarrier.envelope_rounds"] = (counters["twobarrier.envelope_rounds"], "count")
    out["fixpoint.iterations"] = (counters["fixpoint.iterations"], "count")
    out["verify.clauses_failed"] = (sum(clauses.values()), "count")
    out["cli.startup_s"] = (startup_s, "s")
    out["cli.bytes_out"] = (bytes_out, "bytes")
    out["cli.bytes_in"] = (bytes_in, "bytes")
    out["trace.ops"] = (ops, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out, dict(clauses)
