"""Condition checker, fault injection, uniqueness and regularity probes."""

import math
import tracemalloc

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, MarkSet, ProblemSpec, TerminalSpec,
                   build_tree, check_solution, expand, regularity_check, regularity_probe,
                   snell, solve_reflected, uniqueness_probe, verify)
from rbsde.bsde import ContinuousPart
from rbsde.config import parse_config
from rbsde.errors import TreeTooLarge
from rbsde.processes import eval_barrier, evaluate, put_payoff
from rbsde.reflected import obstacle_payoff
from rbsde.snell import REGULAR_TOL
from rbsde.tree import _BLOCK_NODES
from conftest import (clone_solution, counterexample_pieces, node_levels, one_barrier_mutants, process_of,
                      random_one_barrier, random_two_barrier, two_barrier_mutants)
from oracles import whole_obstacle


def test_checker_passes_solver_outputs():
    rng = np.random.default_rng(202)
    for _ in range(5):
        problem = random_one_barrier(rng, max_steps=5, max_marks=1)
        tree = problem.build_tree()
        sol = solve_reflected(tree, problem.driver, problem.terminal,
                              problem.barrier)
        report = check_solution(tree, sol, problem.driver, problem.terminal,
                                problem.barrier)
        assert report.passed, report.to_dict()
    for _ in range(5):
        problem = random_two_barrier(rng)
        tree = problem.build_tree()
        sol = solve_reflected(tree, problem.driver, problem.terminal,
                              problem.lower, problem.upper)
        report = check_solution(tree, sol, problem.driver, problem.terminal,
                                problem.lower, problem.upper)
        assert report.passed, report.to_dict()


def test_counterexample_report_is_clean():
    tree, driver, terminal, barrier = counterexample_pieces()
    sol = solve_reflected(tree, driver, terminal, barrier)
    report = check_solution(tree, sol, driver, terminal, barrier)
    assert report.passed
    assert all(c.residual <= 1e-13 for c in report.clauses.values())


# NaN at one node must fail the clauses that read it, not drop out of a maximum
@pytest.mark.parametrize("poison,failing", [
    ((("k", 3, 1),), {"dynamics", "compensator_monotone"}),
    ((("z", 2, 0),), {"dynamics"}),
    ((("k", 3, 1), ("z", 2, 0)), {"dynamics", "compensator_monotone"}),
    ((("k_d", 4, 3),), {"jump_formula_d", "compensator_monotone"}),
])
def test_nan_in_one_barrier_solution_fails_its_clauses(poison, failing):
    tree, driver, terminal, barrier = counterexample_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    for field, level, node in poison:
        process_of(sol, field)[level][node] = np.nan
    report = check_solution(tree, sol, driver, terminal, barrier)
    assert {name for name, c in report.clauses.items() if not c.passed} == failing
    assert all(np.isnan(report.clauses[name].residual) for name in failing)


@pytest.mark.parametrize("field", ["k_minus", "k_plus_d", "y"])
def test_nan_in_two_barrier_solution_fails(field):
    problem = random_two_barrier(np.random.default_rng(31))
    tree = problem.build_tree()
    sol = clone_solution(tree, solve_reflected(tree, problem.driver, problem.terminal,
                                               problem.lower, problem.upper))
    process_of(sol, field)[tree.num_steps][-1] = np.nan
    report = check_solution(tree, sol, problem.driver, problem.terminal,
                            problem.lower, problem.upper)
    assert not report.passed
    assert any(np.isnan(c.residual) for c in report.clauses.values())


# ---------------------------------------------------------------------------
# leaf clauses, taken in the parent blocks of the last level, and the
# checker's own memory

DEEP_N = 18   # with no marks, level DEEP_N - 1 spans four parent blocks


def _deep_problem(steps):
    tree = build_tree(steps)
    driver = DriverSpec(base=0.1, a=0.2, b=0.1)
    terminal = TerminalSpec(payoff=lambda w, counts: np.abs(w))
    lower = BarrierSpec(pieces=((0.0, 0.3), (0.5, 0.0)), stochastic=lambda t, w, c: 0.5 * w)
    upper = BarrierSpec(pieces=((0.0, 2.0), (0.5, 1.5)),
                        stochastic=lambda t, w, c: 1.0 + np.abs(w))
    return tree, driver, terminal, (lower, upper)


def _failing(report):
    return {name for name, c in report.clauses.items() if not c.passed}


@pytest.mark.parametrize("sides,contain", [(1, "barrier_dominance"), (2, "containment")])
def test_nan_leaf_in_the_last_block_fails_dynamics(sides, contain):
    tree, driver, terminal, obstacles = _deep_problem(DEEP_N)
    obstacles = obstacles[:sides]
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, *obstacles))
    sol.y[DEEP_N][-1] = np.nan
    report = check_solution(tree, sol, driver, terminal, *obstacles)
    assert _failing(report) == {"dynamics", contain}
    assert all(np.isnan(report.clauses[name].residual) for name in _failing(report))


@pytest.mark.parametrize("sides,broken,contain", [
    (1, 0, "barrier_dominance"), (2, 0, "containment"), (2, 1, "containment")])
def test_leaf_outside_an_obstacle_in_the_last_block_fails_containment(sides, broken,
                                                                      contain):
    tree, driver, terminal, obstacles = _deep_problem(DEEP_N)
    sol = solve_reflected(tree, driver, terminal, *obstacles[:sides])
    values = [eval_barrier(spec, tree) for spec in obstacles[:sides]]
    bad = values[broken]
    leaf = bad.levels[DEEP_N].whole()
    # 1e-3 above Y for the lower obstacle, 1e-3 below it for the upper one
    leaf[-1] = sol.y[DEEP_N][-1] + (1e-3 if broken == 0 else -1e-3)
    values[broken] = whole_obstacle([level.whole() for level in bad.levels[:DEEP_N]] + [leaf],
                                    {k: left.whole() for k, left in bad.left_levels.items()})
    report = check_solution(tree, sol, driver, terminal, *values)
    assert _failing(report) == {contain}
    assert report.clauses[contain].residual == pytest.approx(1e-3, rel=1e-9)


def test_solve_and_check_leave_the_leaf_atom_probabilities_unbuilt():
    tree, driver, terminal, obstacles = _deep_problem(DEEP_N)
    for sides in (1, 2):
        sol = solve_reflected(tree, driver, terminal, *obstacles[:sides])
        for checked in (sol, node_levels(tree, sol)):   # per state, and on the nodes
            assert check_solution(tree, checked, driver, terminal, *obstacles[:sides]).passed
    # the checker walks its own node probabilities, or sums the lattice's state
    # masses: no level past the root is built
    assert tree.level_size(DEEP_N - 1) > _BLOCK_NODES
    assert [len(level) for level in tree.atom_prob._levels] == [1]


def test_checker_transient_stays_below_one_leaf_level():
    steps = 20   # 2**20 leaves, 8 MB a level: more than a parent block's working set
    tree, driver, terminal, obstacles = _deep_problem(steps)
    leaf_bytes = tree.level_size(steps) * 8
    for sides in (1, 2):
        # the node checker, on the solve's levels read once
        sol = node_levels(tree, solve_reflected(tree, driver, terminal, *obstacles[:sides]))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            report = check_solution(tree, sol, driver, terminal, *obstacles[:sides])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed, report.to_dict()
        assert peak - entry < leaf_bytes, (sides, peak - entry)
        del sol


@pytest.mark.parametrize("sides,blocks", [(1, 5.75), (2, 7.75)])
def test_checker_block_transient_at_a_declared_leaf_level(sides, blocks):
    # A jump at the horizon makes K_d a whole leaf level and K_c one too,
    # the largest blocks the checker reads.  One side of a block holds its
    # K_c and K_d increment tables and one work block for the left-limit
    # formula; its K increments, the left limit and the gap to it are
    # per-parent vectors (a quarter block each with one mark), and the other
    # side keeps only its K increments and K_d table.  The node
    # probabilities of level 8 come a parent slice (a quarter block) at a
    # time, next to the whole level 7 (a quarter block): about 4.3 and 5.5
    # blocks.  K increments and left-limit gaps held as tables took 5.6 and
    # 7.6, level 8 held whole 6.1 and 8.1, and the whole-block left-limit
    # formulas 6.9 and 8.9.
    steps = 9   # one mark: level 8 spans four parent blocks
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(steps, marks)
    driver = DriverSpec(base=0.1, a=0.2, b=0.1)
    terminal = TerminalSpec(payoff=lambda w, counts: np.abs(w))
    obstacles = (BarrierSpec(pieces=((0.0, 0.3), (1.0, 0.0)),
                             stochastic=lambda t, w, c: 0.5 * w),
                 BarrierSpec(pieces=((0.0, 2.0), (1.0, 1.5)),
                             stochastic=lambda t, w, c: 1.0 + np.abs(w)))[:sides]
    # the node checker, on the solve's levels read once
    sol = node_levels(tree, solve_reflected(tree, driver, terminal, *obstacles))
    assert all(eval_barrier(spec, tree).jump_levels == (steps,) for spec in obstacles)
    block_bytes = 8 * _BLOCK_NODES   # one block's children
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        report = check_solution(tree, sol, driver, terminal, *obstacles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, report.to_dict()
    assert peak - entry < blocks * block_bytes, (peak - entry) / block_bytes


def _array_bytes(*processes):
    """Bytes of the distinct arrays that some levels of these processes own or view."""
    bases = {}
    for process in processes:
        for level in process:
            base = level if level.base is None else level.base
            bases[id(base)] = base.nbytes
    return sum(bases.values())


def test_a_solve_keeps_no_k_c_level_and_the_check_builds_none(monkeypatch):
    steps, marks = 8, MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(steps, marks)
    driver, terminal = DriverSpec(base=-0.1), TerminalSpec(constant=0.5)
    # Y sits on the obstacle at every node: K moves on every level, and at the
    # drop at t = 1/2 K_d books the gap
    barrier = BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.5)))
    evaluate(tree, terminal, barrier)   # memoised on the tree, so its levels are kept apart
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sol = solve_reflected(tree, driver, terminal, barrier)
        held = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    # the node levels a solve on the nodes stores: Z and V are projections of
    # Y, formed on each read
    nodes = node_levels(tree, sol)
    comp = nodes.lower
    kept = _array_bytes(nodes.y, comp.k, comp.k_d)
    # the K_c levels that are not K's own array, as a stored split kept them
    fresh = [level for level, total in zip(comp.k_c, comp.k) if level is not total]
    k_c_bytes = sum(level.nbytes for level in fresh)
    assert len(fresh) == steps // 2 + 1 and k_c_bytes > 100_000
    # the direct solve keeps its levels per state: objects and a few hundred rows
    assert held < k_c_bytes / 4 < kept, (held, k_c_bytes, kept)

    reads = []
    get = ContinuousPart.__getitem__
    monkeypatch.setattr(ContinuousPart, "__getitem__",
                        lambda self, level: reads.append(level) or get(self, level))
    for checked in (sol, nodes):   # per state, and on the nodes
        assert check_solution(tree, checked, driver, terminal, barrier).passed
    assert reads == []
    # a whole-level read still gives the levels of K - K_d
    assert np.array_equal(expand(tree, comp.k_c[steps], steps),
                          expand(tree, comp.k[steps], steps)
                          - expand(tree, comp.k_d[steps], steps))
    assert reads == [steps]


@pytest.mark.parametrize("case", one_barrier_mutants(),
                         ids=[entry[0] for entry in one_barrier_mutants()])
def test_one_barrier_mutants_flip_exactly_their_clause(case):
    clause, tree, driver, terminal, barrier, mutant = case
    report = check_solution(tree, mutant, driver, terminal, barrier)
    assert not report.clauses[clause].passed, report.to_dict()
    for name, result in report.clauses.items():
        if name != clause:
            assert result.passed, (clause, name, report.to_dict())


@pytest.mark.parametrize("case", two_barrier_mutants(),
                         ids=[entry[0] for entry in two_barrier_mutants()])
def test_two_barrier_mutants_flip_exactly_their_clause(case):
    clause, tree, driver, terminal, lower, upper, mutant = case
    report = check_solution(tree, mutant, driver, terminal, lower, upper)
    assert not report.clauses[clause].passed, report.to_dict()
    for name, result in report.clauses.items():
        if name != clause:
            assert result.passed, (clause, name, report.to_dict())


def _continuous_band(steps):
    """Obstacles with no declared jump that Y meets: the lower one early, the upper one late."""
    tree = build_tree(steps)
    driver = DriverSpec(base=lambda t: -4.0 if t < 0.5 else 0.5)
    terminal = TerminalSpec(payoff=lambda w, counts: np.abs(w) + 0.3)
    lower = BarrierSpec(pieces=((0.0, 0.2),), stochastic=lambda t, w, c: 0.5 * w)
    upper = BarrierSpec(pieces=((0.0, 0.35),), stochastic=lambda t, w, c: np.abs(w))
    return tree, driver, terminal, (lower, upper)


@pytest.mark.parametrize("sides", [1, 2])
def test_a_correct_solve_weighs_no_continuous_mass(monkeypatch, sides):
    # On a correct solve K_c moves only where the slack is +0.0, so every
    # continuous-type mass is ±0.0 and its left-limit term is +0.0 without a
    # branch_prob product; with no declared jump no other term is weighed.
    tree, driver, terminal, obstacles = _continuous_band(12)
    obstacles = obstacles[:sides]
    sol = solve_reflected(tree, driver, terminal, *obstacles)
    assert all(eval_barrier(spec, tree).jump_levels == () for spec in obstacles)
    assert all(np.any(side.k[-1]) for side in (sol.lower, sol.upper)[:sides])
    weighed = []
    term = verify._integral_term
    monkeypatch.setattr(verify, "_integral_term",
                        lambda *args: weighed.append(args) or term(*args))
    # the node checker's shortcut, on the solve's levels read once; the
    # per-state check takes every formula in full
    report = check_solution(tree, node_levels(tree, sol), driver, terminal, *obstacles)
    assert report.passed, report.to_dict()
    assert weighed == []
    # continuous mass off the obstacle is weighed, and the integral reads
    # it; it is K_c's mass, also where K does not move
    skorokhod = "skorokhod_c" if sides == 1 else "skorokhod_lower_c"
    level = tree.num_steps - 1
    node = int(np.argmax(sol.y[level] - eval_barrier(obstacles[0], tree).levels[level].whole()))
    children = slice(node * tree.branching, (node + 1) * tree.branching)
    for other, shift in (("k", 1e-3), ("k_d", -1e-3)):
        mutant = clone_solution(tree, sol)
        for part, delta in (("k_c", 1e-3), (other, shift)):
            getattr(mutant.lower, part)[level + 1][children] += delta
        report = check_solution(tree, mutant, driver, terminal, *obstacles)
        assert not report.clauses[skorokhod].passed, other
        assert not report.clauses["left_limit_skorokhod"].passed, other
    assert weighed


def test_a_missing_compensator_is_named():
    tree, driver, terminal, (lower, upper) = _continuous_band(4)
    one = solve_reflected(tree, driver, terminal, lower)
    with pytest.raises(ValueError, match="no upper compensator"):
        check_solution(tree, one, driver, terminal, lower, upper)
    free = solve_reflected(tree, driver, terminal)
    with pytest.raises(ValueError, match="no lower compensator"):
        check_solution(tree, free, driver, terminal, lower)


def test_simultaneous_jump_clause_fires_with_its_entailed_formula():
    # positive jump-type mass on both sides at once cannot respect the
    # left-limit formulas when the obstacles are separated, so this clause
    # is entailed: the mutant flips it together with one jump formula.
    tree = build_tree(4)
    lower = BarrierSpec(pieces=((0.0, 1.0), (0.5, -10.0)))
    upper = BarrierSpec(pieces=((0.0, 10.0),))
    sol = solve_reflected(tree, DriverSpec(), TerminalSpec(constant=0.5),
                          lower, upper)
    mutant = clone_solution(tree, sol)
    for lvl in range(2, 5):
        mutant.upper.k_d[lvl] += 1e-6
        mutant.upper.k_c[lvl] -= 1e-6
    report = check_solution(tree, mutant, DriverSpec(), TerminalSpec(constant=0.5),
                            lower, upper)
    assert not report.clauses["no_simultaneous_jumps"].passed
    assert not report.clauses["jump_formula_upper"].passed
    for name in ("dynamics", "containment", "jump_formula_lower",
                 "compensator_monotone"):
        assert report.clauses[name].passed


def test_report_serialisation_round_trip():
    tree, driver, terminal, barrier = counterexample_pieces()
    sol = solve_reflected(tree, driver, terminal, barrier)
    payload = check_solution(tree, sol, driver, terminal, barrier).to_dict()
    assert payload["passed"] is True
    assert set(payload["clauses"]) == {
        "dynamics", "barrier_dominance", "skorokhod_c", "jump_formula_d",
        "compensator_monotone", "left_limit_skorokhod"}


def counterexample_problem():
    return ProblemSpec(num_steps=4, terminal=TerminalSpec(constant=0.5),
                       driver=DriverSpec(),
                       barrier=BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0))))


def test_uniqueness_probe_counterexample():
    assert uniqueness_probe(counterexample_problem()) <= 1e-10


def test_probes_build_the_tree_under_the_configured_node_cap():
    config = {"grid": {"steps": 8, "node_cap": 1000},
              "marks": [{"size": 1.0, "intensity": 0.5}],
              "terminal": {"kind": "constant", "value": 0.5}, "driver": {"g": 0.0},
              "barrier": {"pieces": [[0.0, 1.0], [0.5, 0.0]]},
              "solver": {"kind": "one_barrier"}}
    problem, _ = parse_config(config)
    assert problem.node_cap == 1000
    with pytest.raises(TreeTooLarge, match="1000 nodes"):
        uniqueness_probe(problem)
    with pytest.raises(TreeTooLarge, match="1000 nodes"):
        regularity_probe(problem)


def test_uniqueness_probe_random_problems():
    rng = np.random.default_rng(303)
    one = random_one_barrier(rng, max_steps=4, max_marks=1)
    assert uniqueness_probe(one) <= 1e-10
    two = random_two_barrier(rng, max_steps=4, max_marks=1)
    assert uniqueness_probe(two) <= 1e-10


def test_uniqueness_probe_with_coefficients():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    problem = ProblemSpec(
        num_steps=5, marks=marks,
        terminal=TerminalSpec(payoff=lambda w, c: np.maximum(w, 0.0)),
        driver=DriverSpec(base=0.1, a=0.3, b=0.3, c=0.2, marks=marks),
        barrier=BarrierSpec(pieces=((0.0, -0.2),)))
    assert uniqueness_probe(problem, n_restarts=3) <= 1e-10


def test_regularity_probe_counterexample_dichotomy():
    report = regularity_probe(counterexample_problem())
    assert report.kd_mass == pytest.approx(0.5, abs=1e-12)
    assert report.verdict == "irregular"
    # the (z, v) gaps vanish even though the jump mass does not
    assert all(g <= 1e-12 for g in report.z_gaps)
    assert all(g <= 1e-12 for g in report.v_gaps)
    assert report.z_gaps[-1] <= REGULAR_TOL and report.v_gaps[-1] <= REGULAR_TOL
    # the jump time keeps a positive uniform gap at every finite level
    assert all(g > 0.0 for g in report.gaps_at_jumps)
    assert all(b < a for a, b in zip(report.y_gaps, report.y_gaps[1:]))


def test_regularity_verdicts_share_one_threshold():
    """A jump-type mass of 1e-10 gets one verdict from the probe and the envelope route."""
    problem = ProblemSpec(num_steps=4, terminal=TerminalSpec(constant=0.0),
                          barrier=BarrierSpec(pieces=((0.0, 1e-10), (0.5, 0.0))))
    probe = regularity_probe(problem)
    tree = problem.build_tree()
    payoff, cum = obstacle_payoff(tree, problem.driver, problem.terminal, problem.barrier)
    check = regularity_check(tree, snell(tree, payoff), cum, problem.barrier)
    assert probe.kd_mass == pytest.approx(1e-10, rel=1e-6)
    assert check.kd_mass == pytest.approx(1e-10, rel=1e-6)
    assert probe.verdict == "regular"
    assert check.regular


def test_regularity_probe_continuous_obstacle():
    problem = ProblemSpec(
        num_steps=6,
        terminal=TerminalSpec(payoff=put_payoff(1.8)),
        driver=DriverSpec(base=-0.3),
        barrier=BarrierSpec(stochastic=lambda t, w, c: np.maximum(1.8 - w, 0.0)))
    report = regularity_probe(problem)
    assert report.kd_mass <= 1e-12
    assert report.verdict == "regular"
    assert report.y_gaps[0] > 0.0
    assert all(b <= a + 1e-15 for a, b in zip(report.y_gaps, report.y_gaps[1:]))
    assert report.y_gaps[-1] < report.y_gaps[0] / 10


def test_regularity_probe_slack_obstacle_trivial():
    problem = ProblemSpec(num_steps=4, terminal=TerminalSpec(constant=0.5),
                          driver=DriverSpec(),
                          barrier=BarrierSpec(pieces=((0.0, -10.0),)))
    report = regularity_probe(problem)
    assert report.kd_mass == 0.0
    assert all(g == 0.0 for g in report.y_gaps)
    assert report.verdict == "regular"


def test_uniqueness_probe_keeps_a_nan_route(monkeypatch):
    # the penalised route is the second of three: its gaps must not drop out
    solve = verify.solve_penalized

    def poisoned(*args, **kwargs):
        out = solve(*args, **kwargs)
        out.solution.y[1] = np.full_like(out.solution.y[1], np.nan)
        return out

    monkeypatch.setattr(verify, "solve_penalized", poisoned)
    assert math.isnan(uniqueness_probe(counterexample_problem()))


def test_regularity_probe_keeps_nan_gaps_at_jumps(monkeypatch):
    ladder = verify.sweep

    def poisoned(*args, **kwargs):
        report = ladder(*args, **kwargs)
        y = report.solutions[0].solution.y
        y[:] = [np.full_like(level, np.nan) for level in y]
        return report

    monkeypatch.setattr(verify, "sweep", poisoned)
    report = regularity_probe(counterexample_problem())
    assert math.isnan(report.gaps_at_jumps[0])
    assert not any(math.isnan(g) for g in report.gaps_at_jumps[1:])
