"""Command-line front end: solve, sweep, study and verify problems.

Every command reads a JSON configuration, writes machine-readable JSON
plus plot-ready CSV tables into the output directory, and exits with
0 on success, 2 on configuration errors (a flag the command does not
take included), 3 on solver errors and 4 when a produced (or supplied)
solution fails the condition checks.  Each command takes ``--config``
and ``--out`` plus only the flags it reads.  The backend is exact, so
identical configurations give byte-identical output.  ``solve-one``
and ``solve-two`` are one command on one solver and checker; only the
names under which the compensators are written depend on the solution
kind (``_KIND_NAMES``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bsde import Compensator, Projection, Solution
from .config import load_config
from .errors import ConfigError, RbsdeError
from .fixpoint import alpha_rule, picard_solve
from .penalty import sweep
from .processes import ProblemSpec, lipschitz_constant
from .reflected import obstacle_payoff, regularity_check, solve_reflected_one
from .snell import optimal_stopping_time, snell
from .tree import ScenarioTree, expand, terminal_mean
from .twobarrier import solve_double_obstacle
from .verify import check_solution_one, check_solution_two

AUTO_FULL_NODES = 200_000


class _Names(NamedTuple):
    """Output names of one solution kind.

    ``sides`` names each side's K, K_c and K_d in solution.json, lower
    side first; ``columns`` are the compensator columns of summary.csv;
    ``increments`` pairs each jump-increment column with the K_d it
    differences, and ``means`` each terminal mean of the solution summary
    with the process it averages.
    """

    sides: tuple
    columns: tuple
    increments: tuple
    means: tuple


_KIND_NAMES = {
    "one_barrier": _Names(
        sides=(("k", "k_c", "k_d"),),
        columns=("k", "k_c", "k_d"),
        increments=(("kd_increment", "k_d"),),
        means=(("expected_terminal_k", "k"), ("expected_terminal_kd", "k_d"))),
    "two_barrier": _Names(
        sides=(("k_plus", "k_plus_c", "k_plus_d"), ("k_minus", "k_minus_c", "k_minus_d")),
        columns=("k_plus", "k_minus"),
        increments=(("k_plus_d_increment", "k_plus_d"),
                    ("k_minus_d_increment", "k_minus_d")),
        means=(("expected_terminal_k_plus", "k_plus"),
               ("expected_terminal_k_minus", "k_minus"))),
}
_SOLVE_KINDS = {"solve-one": "one_barrier", "solve-two": "two_barrier"}


def _fmt(x) -> str:
    return repr(float(x))


def _stats(tree: ScenarioTree, level: int, values: np.ndarray) -> dict:
    """Mean, standard deviation, minimum and maximum of one level, stored by the level rule.

    The moments are taken of the values divided by the power of two at or
    just below their largest magnitude, which is exact, so the squares
    neither overflow nor underflow; the results are scaled back.
    """
    values = np.asarray(values, dtype=float)
    low, high = float(np.min(values)), float(np.max(values))
    scale = math.ldexp(1.0, math.frexp(max(-low, high))[1] - 1)
    values = values / scale
    mean = tree.expectation(level, values)
    var = max(tree.expectation(level, values ** 2) - mean ** 2, 0.0)
    return {"mean": mean * scale, "std": float(np.sqrt(var)) * scale,
            "min": low, "max": high}


def _write_text(path: Path, text: str) -> None:
    """Write one output file; a path that cannot be written is a ConfigError (exit 2)."""
    try:
        # the first file written makes the output directory: a command that fails first leaves none
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, _dumps(payload) + "\n")


def _dumps(value, depth: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=1)``, byte for byte, for string keys.

    ``indent`` sends the stdlib through its pure-Python encoder.  Here a
    list of numbers, booleans and nulls (a level of a per-node dump), or a
    list of nonempty such lists (a whole process, or a level of ``v``), is
    encoded by the C encoder in one call and its indentation spliced in:
    without strings, the text holds ", " and brackets only between items.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    pad = "\n" + " " * (depth + 1)
    end = "\n" + " " * depth
    if isinstance(value, dict):
        items = (json.dumps(key) + ": " + _dumps(value[key], depth + 1) for key in sorted(value))
        return "{" + pad + ("," + pad).join(items) + end + "}"
    text = json.dumps(value)
    if not any(mark in text for mark in ('"', "{", "[]")):
        inner = text[1:-1]
        if "[" not in inner:
            return "[" + pad + inner.replace(", ", "," + pad) + end + "]"
        rows = inner[1:-1].split("], [")
        # every bracket of the text opens, separates or closes the rows
        if inner[0] + inner[-1] == "[]" and inner.count("[") == inner.count("]") == len(rows):
            deeper = pad + " "
            body = (pad + "]," + pad + "[" + deeper).join(
                row.replace(", ", "," + deeper) for row in rows)
            return "[" + pad + "[" + deeper + body + pad + "]" + end + "]"
    return "[" + pad + ("," + pad).join(_dumps(item, depth + 1) for item in value) + end + "]"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _nodes_payload(tree, processes: dict) -> dict:
    return {name: [expand(tree, np.asarray(level, dtype=float), k).tolist()
                   for k, level in enumerate(process)]
            for name, process in processes.items()}


_STATS = ("mean", "std", "min", "max")


def _summary_columns(tree, named_processes, extra_columns) -> tuple[list[str], list[list[str]]]:
    """Header and rows: per time, each process's statistics (blank past its last level), extras."""
    header = ["time"]
    for name, _ in named_processes:
        header += [f"{name}_{s}" for s in _STATS]
    header += [name for name, _ in extra_columns]
    rows = []
    for k in range(tree.num_steps + 1):
        row = [_fmt(tree.time(k))]
        for _, process in named_processes:
            if k < len(process):
                st = _stats(tree, k, process[k])
                row += [_fmt(st[s]) for s in _STATS]
            else:
                row += [""] * len(_STATS)
        for _, values in extra_columns:
            row.append(_fmt(values[k]) if values[k] is not None else "")
        rows.append(row)
    return header, rows


def _jump_increment_means(tree, k_d) -> list:
    out = [0.0]
    for k in range(tree.num_steps):
        out.append(tree.expectation(k + 1, expand(tree, k_d[k + 1], k + 1)
                                    - expand(tree, k_d[k], k + 1)))
    return out


def _compensators(sol: Solution, kind: str) -> dict:
    """Every compensator process of a solution, under its output name."""
    out = {}
    for names, side in zip(_KIND_NAMES[kind].sides, (sol.lower, sol.upper)):
        out.update(zip(names, (side.k, side.k_c, side.k_d)))
    return out


def _solution_payload(tree, sol: Solution, kind: str, full: bool) -> dict:
    processes = _compensators(sol, kind)
    summary = {"y0": float(sol.y[0][0])}
    summary.update((key, terminal_mean(tree, processes[name]))
                   for key, name in _KIND_NAMES[kind].means)
    payload = {
        "kind": kind,
        "num_steps": tree.num_steps,
        "version": __version__,
        "full": full,
        "summary": summary,
    }
    if full:
        payload["nodes"] = _nodes_payload(tree, {"y": sol.y, "z": sol.z, "v": sol.v,
                                                 **processes})
    return payload


def _solution_from_payload(payload: dict, tree: ScenarioTree):
    """Per-node solution from a ``--full`` dump, shape-checked against the tree."""
    n, m = tree.num_steps, tree.marks.count

    def levels(name, marked=False):
        raw = payload["nodes"][name]
        count = n if name in ("z", "v") else n + 1
        if len(raw) != count:
            raise ConfigError(f"solution field {name!r} has {len(raw)} levels, "
                              f"expected {count}")
        out = []
        for k, level in enumerate(raw):
            # json gives int or float for a number; bool, str and None are no numbers
            if not set(map(type, itertools.chain.from_iterable(level) if marked
                           else level)) <= {int, float}:
                raise TypeError(f"solution field {name!r} level {k} holds an entry "
                                "that is not a number")
            values = np.asarray(level, dtype=float)
            shape = (tree.level_size(k), m) if marked else (tree.level_size(k),)
            if values.shape != shape:
                raise ConfigError(f"solution field {name!r} level {k} has shape "
                                  f"{values.shape}, expected {shape}")
            out.append(values)
        return out

    if "nodes" not in payload:
        raise ConfigError("solution file lacks per-node data; rerun with --full")
    parts = ("k", "k_c", "k_d")
    sides = [Compensator(**{part: levels(name) for part, name in zip(parts, names)})
             for names in _KIND_NAMES[payload["kind"]].sides]
    return Solution(levels("y"), levels("z"), levels("v", True), *sides)


def _prepare(args, kind: str | None = None, overrides: dict | None = None) -> tuple:
    """(problem, options, tree, out) of the args; a problem not of ``kind`` is a ConfigError."""
    problem, options = load_config(args.config, overrides)
    if kind is not None and problem.kind != kind:
        raise ConfigError(f"{args.command} needs a {kind} configuration")
    return problem, options, problem.build_tree(), Path(args.out)


def _number_list(flag: str, text: str, least: int, ascending: bool = False) -> list:
    """The finite, nonnegative entries of a comma-separated flag, or ConfigError."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(x) and x >= 0.0 for x in values):
        raise ConfigError(f"{flag} entries must be finite and nonnegative, got {text!r}")
    if len(values) < least:
        raise ConfigError(f"{flag} has {len(values)} entries, needs at least {least}")
    if ascending and any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{flag} entries must be strictly ascending, got {text!r}")
    return values


def _entry_points(problem: ProblemSpec):
    """Obstacles of a one- or two-obstacle problem, lower first, with its solve and check.

    Each kind's solve and check names are bound to one function
    (``solve_reflected``, ``check_solution``); calling the name of the
    problem's kind keeps the kinds apart for wrappers installed on this
    module, such as the benchmark's tracer.
    """
    if problem.upper is None:
        return problem.obstacles, solve_reflected_one, check_solution_one
    return problem.obstacles, solve_double_obstacle, check_solution_two


def cmd_solve(args) -> int:
    kind = _SOLVE_KINDS[args.command]
    problem, _, tree, out = _prepare(args, kind)
    obstacles, solve, check = _entry_points(problem)
    sol = solve(tree, problem.driver, problem.terminal, *obstacles)
    report = check(tree, sol, problem.driver, problem.terminal, *obstacles)
    # the solve forms each level of Y, of K and K_d, and of its Z and V (the
    # projections of Y) on read: form each once for both files
    y = list(sol.y)
    sol = Solution(y, *(list(Projection(tree, y, p.kernel)) for p in (sol.z, sol.v)),
                   *(None if side is None else Compensator(k=list(side.k), k_d=list(side.k_d))
                     for side in (sol.lower, sol.upper)))
    full = args.full or tree.node_count <= AUTO_FULL_NODES
    _write_json(out / "solution.json", _solution_payload(tree, sol, kind, full))
    _write_json(out / "report.json", report.to_dict())
    names, processes = _KIND_NAMES[kind], _compensators(sol, kind)
    named = [("y", sol.y), ("z", sol.z)]
    named += [(f"v{i + 1}", [level[:, i] for level in sol.v]) for i in range(tree.marks.count)]
    named += [(name, processes[name]) for name in names.columns]
    extra = [(column, _jump_increment_means(tree, processes[name]))
             for column, name in names.increments]
    header, rows = _summary_columns(tree, named, extra)
    _write_csv(out / "summary.csv", header, rows)
    if not report.passed:
        print("condition checks failed; see report.json", file=sys.stderr)
        return 4
    print(f"{args.command} ok: Y0 = {float(sol.y[0][0])!r}")
    return 0


def cmd_penalize_sweep(args) -> int:
    n_list = _number_list("--n-list", args.n_list, 2, ascending=True)
    problem, _, tree, out = _prepare(args, "one_barrier")
    report = sweep(tree, problem.driver, problem.barrier, problem.terminal, n_list)
    header = ["n", "y0", "sup_gap", "z_gap", "v_gap", "k_gap"]
    rows = []
    for i, n in enumerate(report.levels):
        rows.append([_fmt(n), _fmt(report.solutions[i].solution.y[0][0]),
                     _fmt(report.sup_gaps[i]), _fmt(report.z_gaps[i]),
                     _fmt(report.v_gaps[i]), _fmt(report.k_gaps[i])])
    _write_csv(out / "sweep.csv", header, rows)
    _write_json(out / "sweep.json", {
        "levels": list(report.levels),
        "sup_gaps": list(report.sup_gaps),
        "z_gaps": list(report.z_gaps),
        "v_gaps": list(report.v_gaps),
        "k_gaps": list(report.k_gaps),
        "reflected_y0": float(report.reflected.y[0][0]),
        "monotone_violation": report.monotone_violation,
    })
    print(f"penalize-sweep ok: {len(report.levels)} levels, "
          f"final sup gap {float(report.sup_gaps[-1])!r}")
    return 0


def cmd_snell(args) -> int:
    problem, _, tree, out = _prepare(args, "one_barrier")
    payoff, cum = obstacle_payoff(tree, problem.driver, problem.terminal, problem.barrier)
    result = snell(tree, payoff)
    stop = optimal_stopping_time(tree, result, payoff)
    regularity = regularity_check(tree, result, cum, problem.barrier)
    named = [("envelope", result.envelope), ("compensator", result.compensator)]
    stop_fraction = [tree.expectation(k, result.stop[k]) for k in range(tree.num_steps + 1)]
    extra = [("stop_fraction", stop_fraction)]
    header, rows = _summary_columns(tree, named, extra)
    _write_csv(out / "snell.csv", header, rows)
    _write_json(out / "snell.json", {
        "value": float(result.envelope[0][0]),
        "optimal_stop_value": float(stop.value[0]),
        "expected_terminal_compensator": regularity.total_mass,
        "kd_mass": regularity.kd_mass,
        "regular": regularity.regular,
    })
    print(f"snell ok: value = {float(result.envelope[0][0])!r}")
    return 0


def cmd_verify(args) -> int:
    problem, _, tree, out = _prepare(args)
    try:
        payload = json.loads(Path(args.solution).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read solution: {exc}") from exc
    try:
        if payload["kind"] != problem.kind:
            raise ConfigError("solution kind does not match the configuration")
        sol = _solution_from_payload(payload, tree)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed solution file: {type(exc).__name__}: {exc}") from exc
    obstacles, _, check = _entry_points(problem)
    report = check(tree, sol, problem.driver, problem.terminal, *obstacles)
    _write_json(out / "report.json", report.to_dict())
    if not report.passed:
        print("verification failed; see report.json", file=sys.stderr)
        return 4
    print("verify ok")
    return 0


def cmd_contraction_study(args) -> int:
    alphas = _number_list("--alpha-list", args.alpha_list, 1) if args.alpha_list else None
    overrides = {key: value for key, value in (("tol", args.tol),
                                               ("max_iter", args.max_iter))
                 if value is not None}
    problem, options, tree, out = _prepare(args, overrides=overrides)
    if alphas is None:
        alphas = [alpha_rule(lipschitz_constant(problem.driver, tree.marks))]
    header = ["alpha", "iterations", "converged", "max_ratio", "final_distance",
              "ratios"]
    rows = []
    for alpha in alphas:
        sol, trace = picard_solve(
            tree, problem.driver, problem.terminal, solver_kind=problem.kind,
            barrier=problem.barrier, lower=problem.lower, upper=problem.upper,
            alpha=alpha, tol=options.tol, max_iter=options.max_iter)
        # inf/inf moves give NaN ratios; the largest is taken over the others
        ratios = [r for r in trace.ratios if not math.isnan(r)]
        max_ratio = max(ratios) if ratios else math.nan if trace.ratios else 0.0
        rows.append([_fmt(alpha), str(trace.iterations), str(trace.converged).lower(),
                     _fmt(max_ratio), _fmt(trace.distances[-1]),
                     "|".join(_fmt(r) for r in trace.ratios)])
    _write_csv(out / "contraction.csv", header, rows)
    print(f"contraction-study ok: {len(alphas)} alphas")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbsde",
        description="Reflected backward SDE solvers on exact scenario trees")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="problem configuration JSON")
        p.add_argument("--out", default=".", help="output directory")
        return p

    for name, count in (("solve-one", "one"), ("solve-two", "two")):
        command(name, f"solve a {count}-obstacle problem").add_argument(
            "--full", action="store_true",
            help="force per-node dumps (files grow exponentially)")
    command("penalize-sweep", "run the penalty ladder").add_argument(
        "--n-list", default="1,2,4,8,16,32,64,128,256,512,1024", dest="n_list",
        help="comma-separated penalty levels")
    command("snell", "envelope of the obstacle payoff")
    command("verify", "re-check a stored solution").add_argument(
        "--solution", required=True, help="solution.json to verify")
    study = command("contraction-study", "measure fixed-point ratios")
    study.add_argument("--alpha-list", default="", dest="alpha_list",
                       help="comma-separated weight exponents")
    study.add_argument("--tol", type=float, default=None, help="replaces solver.tol")
    study.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                       help="replaces solver.max_iter")
    return parser


_COMMANDS = {
    "solve-one": cmd_solve,
    "solve-two": cmd_solve,
    "penalize-sweep": cmd_penalize_sweep,
    "snell": cmd_snell,
    "verify": cmd_verify,
    "contraction-study": cmd_contraction_study,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RbsdeError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
