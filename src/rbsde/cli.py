"""Command-line front end: solve, sweep, study and verify problems.

Every command reads a JSON configuration, writes machine-readable JSON
plus plot-ready CSV tables into the output directory, and exits with
0 on success, 2 on configuration errors, 3 on solver errors and 4 when
a produced (or supplied) solution fails the condition checks.  The
backend is exact, so identical configurations give byte-identical
output; --seed is accepted for interface stability but unused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import SolutionQuadruple
from .config import SolverOptions, load_config
from .errors import ConfigError, RbsdeError
from .fixpoint import alpha_rule, picard_solve
from .penalty import sweep
from .processes import ProblemSpec
from .reflected import obstacle_payoff, solve_reflected_one
from .snell import optimal_stopping_time, regularity_check, snell
from .tree import ScenarioTree, expand
from .twobarrier import SolutionQuintuple, solve_double_obstacle
from .verify import check_solution_one, check_solution_two

AUTO_FULL_NODES = 200_000


def _fmt(x) -> str:
    return repr(float(x))


def _stats(tree: ScenarioTree, level: int, values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=float)
    mean = tree.expectation(level, values)
    var = max(tree.expectation(level, values ** 2) - mean ** 2, 0.0)
    return {"mean": mean, "std": float(np.sqrt(var)),
            "min": float(np.min(values)), "max": float(np.max(values))}


def _process_summary(tree, process, levels) -> dict:
    out = {"mean": [], "std": [], "min": [], "max": []}
    for k in range(levels):
        st = _stats(tree, k, expand(tree, process[k], k))
        for key in out:
            out[key].append(st[key])
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _nodes_payload(tree, sol, names) -> dict:
    payload = {}
    for name in names:
        process = getattr(sol, name)
        payload[name] = [expand(tree, np.asarray(level, dtype=float), k).tolist()
                         for k, level in enumerate(process)]
    return payload


def _summary_columns(tree, named_processes, extra_columns) -> tuple[list[str], list[list[str]]]:
    n = tree.num_steps
    header = ["time"]
    stats = {}
    for name, process, levels in named_processes:
        stats[name] = (_process_summary(tree, process, levels), levels)
        header += [f"{name}_{s}" for s in ("mean", "std", "min", "max")]
    header += [name for name, _ in extra_columns]
    rows = []
    for k in range(n + 1):
        row = [_fmt(tree.time(k))]
        for name, process, levels in named_processes:
            summary, nlev = stats[name]
            if k < nlev:
                row += [_fmt(summary[s][k]) for s in ("mean", "std", "min", "max")]
            else:
                row += ["", "", "", ""]
        for _, values in extra_columns:
            row.append(_fmt(values[k]) if values[k] is not None else "")
        rows.append(row)
    return header, rows


def _mark_columns(tree, v):
    cols = []
    for i in range(tree.marks.count):
        cols.append((f"v{i + 1}", [level[:, i] for level in v], tree.num_steps))
    return cols


def _jump_increment_means(tree, k_d) -> list:
    out = [0.0]
    for k in range(tree.num_steps):
        out.append(tree.expectation(k + 1, expand(tree, k_d[k + 1], k + 1)
                                    - expand(tree, k_d[k], k + 1)))
    return out


def _terminal_mean(tree, process) -> float:
    return tree.expectation(tree.num_steps, expand(tree, process[-1], tree.num_steps))


def _solution_payload_one(tree, sol, full: bool) -> dict:
    payload = {
        "kind": "one_barrier",
        "num_steps": tree.num_steps,
        "version": __version__,
        "full": full,
        "summary": {
            "y0": float(sol.y[0][0]),
            "expected_terminal_k": _terminal_mean(tree, sol.k),
            "expected_terminal_kd": _terminal_mean(tree, sol.k_d),
        },
    }
    if full:
        payload["nodes"] = _nodes_payload(tree, sol, ("y", "z", "v", "k", "k_c", "k_d"))
    return payload


def _solution_payload_two(tree, sol, full: bool) -> dict:
    payload = {
        "kind": "two_barrier",
        "num_steps": tree.num_steps,
        "version": __version__,
        "full": full,
        "summary": {
            "y0": float(sol.y[0][0]),
            "expected_terminal_k_plus": _terminal_mean(tree, sol.k_plus),
            "expected_terminal_k_minus": _terminal_mean(tree, sol.k_minus),
        },
    }
    if full:
        payload["nodes"] = _nodes_payload(
            tree, sol, ("y", "z", "v", "k_plus", "k_minus", "k_plus_c", "k_plus_d",
                        "k_minus_c", "k_minus_d"))
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
            values = np.asarray(level, dtype=float)
            shape = (tree.level_size(k), m) if marked else (tree.level_size(k),)
            if values.shape != shape:
                raise ConfigError(f"solution field {name!r} level {k} has shape "
                                  f"{values.shape}, expected {shape}")
            out.append(values)
        return out

    if "nodes" not in payload:
        raise ConfigError("solution file lacks per-node data; rerun with --full")
    if payload["kind"] == "one_barrier":
        return SolutionQuadruple(y=levels("y"), z=levels("z"), v=levels("v", True),
                                 k=levels("k"), k_c=levels("k_c"), k_d=levels("k_d"),
                                 projection_residual=None)
    return SolutionQuintuple(y=levels("y"), z=levels("z"), v=levels("v", True),
                             k_plus=levels("k_plus"), k_minus=levels("k_minus"),
                             k_plus_c=levels("k_plus_c"), k_plus_d=levels("k_plus_d"),
                             k_minus_c=levels("k_minus_c"), k_minus_d=levels("k_minus_d"),
                             projection_residual=None)


def _prepare(args) -> tuple[ProblemSpec, SolverOptions, Path]:
    overrides = {key: value for key, value in (("tol", args.tol),
                                               ("max_iter", args.max_iter))
                 if value is not None}
    problem, options = load_config(args.config, overrides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return problem, options, out


def _build(problem: ProblemSpec, options: SolverOptions) -> ScenarioTree:
    return problem.build_tree(node_cap=options.node_cap)


def cmd_solve_one(args) -> int:
    problem, options, out = _prepare(args)
    if problem.kind != "one_barrier":
        raise ConfigError("solve-one needs a one_barrier configuration")
    tree = _build(problem, options)
    sol = solve_reflected_one(tree, problem.driver, problem.terminal, problem.barrier)
    report = check_solution_one(tree, sol, problem.driver, problem.terminal,
                                problem.barrier)
    full = args.full or tree.node_count <= AUTO_FULL_NODES
    _write_json(out / "solution.json", _solution_payload_one(tree, sol, full))
    _write_json(out / "report.json", report.to_dict())
    named = [("y", sol.y, tree.num_steps + 1), ("z", sol.z, tree.num_steps)]
    named += _mark_columns(tree, sol.v)
    named += [("k", sol.k, tree.num_steps + 1), ("k_c", sol.k_c, tree.num_steps + 1),
              ("k_d", sol.k_d, tree.num_steps + 1)]
    extra = [("kd_increment", _jump_increment_means(tree, sol.k_d))]
    header, rows = _summary_columns(tree, named, extra)
    _write_csv(out / "summary.csv", header, rows)
    if not report.passed:
        print("condition checks failed; see report.json", file=sys.stderr)
        return 4
    print(f"solve-one ok: Y0 = {float(sol.y[0][0])!r}")
    return 0


def cmd_solve_two(args) -> int:
    problem, options, out = _prepare(args)
    if problem.kind != "two_barrier":
        raise ConfigError("solve-two needs a two_barrier configuration")
    tree = _build(problem, options)
    sol = solve_double_obstacle(tree, problem.driver, problem.terminal,
                                problem.lower, problem.upper)
    report = check_solution_two(tree, sol, problem.driver, problem.terminal,
                                problem.lower, problem.upper)
    full = args.full or tree.node_count <= AUTO_FULL_NODES
    _write_json(out / "solution.json", _solution_payload_two(tree, sol, full))
    _write_json(out / "report.json", report.to_dict())
    named = [("y", sol.y, tree.num_steps + 1), ("z", sol.z, tree.num_steps)]
    named += _mark_columns(tree, sol.v)
    named += [("k_plus", sol.k_plus, tree.num_steps + 1),
              ("k_minus", sol.k_minus, tree.num_steps + 1)]
    extra = [("k_plus_d_increment", _jump_increment_means(tree, sol.k_plus_d)),
             ("k_minus_d_increment", _jump_increment_means(tree, sol.k_minus_d))]
    header, rows = _summary_columns(tree, named, extra)
    _write_csv(out / "summary.csv", header, rows)
    if not report.passed:
        print("condition checks failed; see report.json", file=sys.stderr)
        return 4
    print(f"solve-two ok: Y0 = {float(sol.y[0][0])!r}")
    return 0


def cmd_penalize_sweep(args) -> int:
    problem, options, out = _prepare(args)
    if problem.kind != "one_barrier":
        raise ConfigError("penalize-sweep needs a one_barrier configuration")
    n_list = [float(x) for x in args.n_list.split(",") if x.strip()]
    tree = _build(problem, options)
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
    problem, options, out = _prepare(args)
    if problem.kind != "one_barrier":
        raise ConfigError("snell needs a one_barrier configuration")
    tree = _build(problem, options)
    payoff, left, _ = obstacle_payoff(tree, problem.driver, problem.terminal,
                                      problem.barrier)
    result = snell(tree, payoff)
    stop = optimal_stopping_time(tree, result, payoff)
    regularity = regularity_check(tree, result, left)
    named = [("envelope", result.envelope, tree.num_steps + 1),
             ("compensator", result.compensator, tree.num_steps + 1)]
    stop_fraction = [tree.expectation(k, result.stop[k]) for k in range(tree.num_steps + 1)]
    extra = [("stop_fraction", stop_fraction)]
    header, rows = _summary_columns(tree, named, extra)
    _write_csv(out / "snell.csv", header, rows)
    _write_json(out / "snell.json", {
        "value": float(result.envelope[0][0]),
        "optimal_stop_value": float(stop.value[0]),
        "expected_terminal_compensator": tree.expectation(
            tree.num_steps, result.compensator[-1]),
        "kd_mass": regularity.kd_mass,
        "regular": regularity.regular,
    })
    print(f"snell ok: value = {float(result.envelope[0][0])!r}")
    return 0


def cmd_verify(args) -> int:
    problem, options, out = _prepare(args)
    try:
        payload = json.loads(Path(args.solution).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read solution: {exc}") from exc
    tree = _build(problem, options)
    try:
        sol = _solution_from_payload(payload, tree)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed solution file: {type(exc).__name__}: {exc}") from exc
    if payload["kind"] == "one_barrier":
        if problem.kind != "one_barrier":
            raise ConfigError("solution kind does not match the configuration")
        report = check_solution_one(tree, sol, problem.driver, problem.terminal,
                                    problem.barrier)
    else:
        if problem.kind != "two_barrier":
            raise ConfigError("solution kind does not match the configuration")
        report = check_solution_two(tree, sol, problem.driver, problem.terminal,
                                    problem.lower, problem.upper)
    _write_json(out / "report.json", report.to_dict())
    if not report.passed:
        print("verification failed; see report.json", file=sys.stderr)
        return 4
    print("verify ok")
    return 0


def cmd_contraction_study(args) -> int:
    problem, options, out = _prepare(args)
    tree = _build(problem, options)
    if args.alpha_list:
        alphas = [float(x) for x in args.alpha_list.split(",") if x.strip()]
    else:
        alphas = [alpha_rule(problem.driver.lipschitz_constant)]
    header = ["alpha", "iterations", "converged", "max_ratio", "final_distance",
              "ratios"]
    rows = []
    for alpha in alphas:
        sol, trace = picard_solve(
            tree, problem.driver, problem.terminal, solver_kind=problem.kind,
            barrier=problem.barrier, lower=problem.lower, upper=problem.upper,
            alpha=alpha, tol=options.tol, max_iter=options.max_iter)
        max_ratio = max(trace.ratios) if trace.ratios else 0.0
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

    def common(p, solution=False, n_list=False, alpha_list=False):
        p.add_argument("--config", required=True, help="problem configuration JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--full", action="store_true",
                       help="force per-node dumps (files grow exponentially)")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        p.add_argument("--seed", type=int, default=None,
                       help="reserved; the exact backend uses no randomness")
        if solution:
            p.add_argument("--solution", required=True, help="solution.json to verify")
        if n_list:
            p.add_argument("--n-list", default="1,2,4,8,16,32,64,128,256,512,1024",
                           dest="n_list", help="comma-separated penalty levels")
        if alpha_list:
            p.add_argument("--alpha-list", default="", dest="alpha_list",
                           help="comma-separated weight exponents")

    common(sub.add_parser("solve-one", help="solve a one-obstacle problem"))
    common(sub.add_parser("solve-two", help="solve a two-obstacle problem"))
    common(sub.add_parser("penalize-sweep", help="run the penalty ladder"),
           n_list=True)
    common(sub.add_parser("snell", help="envelope of the obstacle payoff"))
    common(sub.add_parser("verify", help="re-check a stored solution"),
           solution=True)
    common(sub.add_parser("contraction-study", help="measure fixed-point ratios"),
           alpha_list=True)
    return parser


_COMMANDS = {
    "solve-one": cmd_solve_one,
    "solve-two": cmd_solve_two,
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
