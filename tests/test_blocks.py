"""Block-wise level kernels: results do not depend on the blocking.

The deepest level of the trees below spans several parent blocks.  Each
solver, compensator split and checker runs once with the default block
size and once with every level as a single block.
"""

import numpy as np
import pytest

import rbsde.tree
from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree,
                   check_solution, picard_solve, solve_bsde, solve_penalized,
                   solve_reflected)
from rbsde.bsde import project_level
from rbsde.processes import eval_barrier
from conftest import clone_solution, process_of

N = 9
SINGLE_BLOCK = 1 << 60
PLAIN_FIELDS = ("y", "z", "v")
ONE_FIELDS = PLAIN_FIELDS + ("k", "k_c", "k_d")
TWO_FIELDS = ("y", "z", "v", "k_plus", "k_minus", "k_plus_c", "k_plus_d",
              "k_minus_c", "k_minus_d")


def _state(t, w, counts):
    return 0.5 * w + 0.3 * counts[:, 0]


def _one_problem():
    """Coefficients, one mark, and jump-type mass on the multi-block leaf level.

    The obstacle's last breakpoint is at the horizon, and its left limit
    there equals the obstacle one step earlier, so the binding event and
    the jump formula are exercised on every block of the leaves.
    """
    tree = build_tree(N, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    driver = DriverSpec(base=-0.5, a=0.3, b=-0.2, c=0.25, marks=tree.marks)
    terminal = TerminalSpec(payoff=lambda w, counts: 0.1 + _state(0.0, w, counts))
    barrier = BarrierSpec(pieces=((0.0, 0.2), (5 / N, 0.0), (1.0, -0.1)), stochastic=_state)
    return tree, driver, terminal, barrier


def _two_problem():
    tree, _, terminal, lower = _one_problem()
    driver = DriverSpec(base=lambda t: 3.0 if t < 0.5 else -3.0, a=0.3, b=-0.2, c=0.25,
                        marks=tree.marks)
    upper = BarrierSpec(pieces=((0.0, 0.5), (7 / N, 0.3)), stochastic=_state)
    return tree, driver, terminal, lower, upper


def _whole_levels(monkeypatch):
    monkeypatch.setattr(rbsde.tree, "_BLOCK_NODES", SINGLE_BLOCK)


def _assert_identical(tree, a, b, fields):
    for name in fields:
        for level_a, level_b in zip(process_of(a, name), process_of(b, name)):
            assert np.array_equal(level_a, level_b), name
    for level_a, level_b in zip(a.y[1:], b.y[1:]):
        resid_a, resid_b = project_level(tree, level_a)[2], project_level(tree, level_b)[2]
        assert np.max(np.abs(resid_a - resid_b)) <= 1e-15


def _assert_same_report(a, b):
    assert a.clauses.keys() == b.clauses.keys()
    for name in a.clauses:
        assert a.clauses[name].passed == b.clauses[name].passed, name
        assert abs(a.clauses[name].residual - b.clauses[name].residual) <= 1e-15, name


def test_one_obstacle_solve_and_check_match_single_block(monkeypatch):
    tree, driver, terminal, barrier = _one_problem()
    blocked = solve_reflected(tree, driver, terminal, barrier)
    report = check_solution(tree, blocked, driver, terminal, barrier)
    assert report.passed, report.to_dict()
    assert float(np.max(blocked.lower.k_d[N])) > 0.0

    # the node checker's slices, on a copy of the solution's node levels
    nodes = clone_solution(tree, blocked)
    node_report = check_solution(tree, nodes, driver, terminal, barrier)

    _whole_levels(monkeypatch)
    whole = solve_reflected(tree, driver, terminal, barrier)
    _assert_identical(tree, blocked, whole, ONE_FIELDS)
    _assert_same_report(report, check_solution(tree, blocked, driver, terminal, barrier))
    _assert_same_report(node_report, check_solution(tree, nodes, driver, terminal, barrier))


def test_two_obstacle_solve_and_check_match_single_block(monkeypatch):
    tree, driver, terminal, lower, upper = _two_problem()
    blocked = solve_reflected(tree, driver, terminal, lower, upper)
    report = check_solution(tree, blocked, driver, terminal, lower, upper)
    assert report.passed, report.to_dict()
    assert float(np.max(blocked.upper.k[N])) > 0.0

    # the node checker's slices, on a copy of the solution's node levels
    nodes = clone_solution(tree, blocked)
    node_report = check_solution(tree, nodes, driver, terminal, lower, upper)

    _whole_levels(monkeypatch)
    whole = solve_reflected(tree, driver, terminal, lower, upper)
    _assert_identical(tree, blocked, whole, TWO_FIELDS)
    _assert_same_report(report, check_solution(tree, blocked, driver, terminal,
                                               lower, upper))
    _assert_same_report(node_report, check_solution(tree, nodes, driver, terminal,
                                                    lower, upper))


def test_penalised_and_plain_solves_match_single_block(monkeypatch):
    tree = build_tree(18)
    terminal = TerminalSpec(payoff=lambda w, counts: np.abs(w))
    barrier = BarrierSpec(pieces=((0.0, 0.3),), stochastic=lambda t, w, c: 0.5 * w)
    plain_driver = DriverSpec(base=0.2, a=0.4, b=0.3)
    pen_driver = DriverSpec(base=-0.2, a=0.1)
    plain = solve_bsde(tree, plain_driver, terminal)
    penalised = solve_penalized(tree, pen_driver, barrier, terminal, 50.0)
    _whole_levels(monkeypatch)
    _assert_identical(tree, plain, solve_bsde(tree, plain_driver, terminal), PLAIN_FIELDS)
    whole = solve_penalized(tree, pen_driver, barrier, terminal, 50.0)
    _assert_identical(tree, penalised.solution, whole.solution, PLAIN_FIELDS)
    for level_a, level_b in zip(penalised.kn, whole.kn, strict=True):
        assert np.array_equal(level_a, level_b), "kn"


@pytest.mark.parametrize("kind", ["standard", "one_barrier", "two_barrier"])
def test_picard_rounds_match_single_block(monkeypatch, kind):
    # each round freezes the driver (a, b, c != 0) block by block
    tree, driver, terminal, lower, upper = _two_problem()
    obstacles = {"standard": {}, "one_barrier": {"barrier": lower},
                 "two_barrier": {"lower": lower, "upper": upper}}[kind]
    fields = {"standard": PLAIN_FIELDS, "one_barrier": ONE_FIELDS,
              "two_barrier": TWO_FIELDS}[kind]
    blocked, trace = picard_solve(tree, driver, terminal, solver_kind=kind,
                                  **obstacles)
    assert trace.iterations > 2
    _whole_levels(monkeypatch)
    whole, _ = picard_solve(tree, driver, terminal, solver_kind=kind,
                            **obstacles)
    _assert_identical(tree, blocked, whole, fields)


def _last_parents(tree):
    """Parent indices of the last block above the leaves."""
    rows = rbsde.tree._parent_blocks(tree, N - 1)[-1]
    assert rows.start > 0
    return np.arange(rows.start, rows.stop)


def _children(tree, parent):
    return slice(parent * tree.branching, (parent + 1) * tree.branching)


def _one_barrier_defects():
    tree, driver, terminal, barrier = _one_problem()
    sol = solve_reflected(tree, driver, terminal, barrier)
    obstacle = eval_barrier(barrier, tree)
    parents = _last_parents(tree)
    slack = sol.y[N - 1][parents] - obstacle.levels[N - 1].whole()[parents]
    slack_parent = int(parents[np.argmax(slack)])
    gap = np.abs(sol.y[N - 1][parents] - obstacle.left_levels[N].whole()[parents])
    loose_parent = int(parents[np.argmax(gap * tree.atom_prob[N - 1][parents])])
    last = int(parents[-1])
    defects = []

    mutant = clone_solution(tree, sol)
    mutant.y[N - 1][last] += 1e-6
    defects.append(("dynamics", mutant))

    mutant = clone_solution(tree, sol)
    mutant.lower.k[N][_children(tree, slack_parent)] += 1e-3
    mutant.lower.k_c[N][_children(tree, slack_parent)] += 1e-3
    defects.append(("skorokhod_c", mutant))

    mutant = clone_solution(tree, sol)
    mutant.lower.k_d[N][-1] += 1e-6
    mutant.lower.k_c[N][-1] -= 1e-6
    defects.append(("jump_formula_d", mutant))

    mutant = clone_solution(tree, sol)
    mutant.lower.k[N][-1] -= 1.0
    mutant.lower.k_c[N][-1] -= 1.0
    defects.append(("compensator_monotone", mutant))

    mutant = clone_solution(tree, sol)
    mutant.lower.k_d[N][_children(tree, loose_parent)] += 1.0
    defects.append(("left_limit_skorokhod", mutant))
    return tree, driver, terminal, barrier, defects


def _two_barrier_defects():
    tree, driver, terminal, lower, upper = _two_problem()
    sol = solve_reflected(tree, driver, terminal, lower, upper)
    last = int(_last_parents(tree)[-1])
    defects = []

    mutant = clone_solution(tree, sol)
    mutant.y[N][-1] += 1.0
    defects.append(("containment", mutant))

    mutant = clone_solution(tree, sol)
    mutant.upper.k_d[N][_children(tree, last)] += 1e-6
    mutant.upper.k_c[N][_children(tree, last)] -= 1e-6
    defects.append(("jump_formula_upper", mutant))

    mutant = clone_solution(tree, sol)
    mutant.lower.k_d[N][-1] += 1e-6
    mutant.upper.k_d[N][-1] += 1e-6
    defects.append(("no_simultaneous_jumps", mutant))
    return tree, driver, terminal, lower, upper, defects


def test_last_block_defects_fail_their_clause(monkeypatch):
    tree, driver, terminal, barrier, defects = _one_barrier_defects()
    reports = [check_solution(tree, mutant, driver, terminal, barrier)
               for _, mutant in defects]
    tree2, driver2, terminal2, lower, upper, defects2 = _two_barrier_defects()
    reports2 = [check_solution(tree2, mutant, driver2, terminal2, lower, upper)
                for _, mutant in defects2]
    for (clause, _), report in zip(defects + defects2, reports + reports2):
        assert not report.clauses[clause].passed, (clause, report.to_dict())

    _whole_levels(monkeypatch)
    for (_, mutant), report in zip(defects, reports):
        _assert_same_report(report, check_solution(tree, mutant, driver, terminal,
                                                   barrier))
    for (_, mutant), report in zip(defects2, reports2):
        _assert_same_report(report, check_solution(tree2, mutant, driver2, terminal2,
                                                   lower, upper))


@pytest.mark.parametrize("marks,steps", [(0, 18), (1, N), (2, 7)])
def test_blocks_tile_the_deepest_level(marks, steps):
    tree = build_tree(steps, MarkSet(sizes=tuple(range(1, marks + 1)),
                                     intensities=(0.3,) * marks))
    rows = rbsde.tree._parent_blocks(tree, steps - 1)
    assert len(rows) > 1
    assert rows[0].start == 0 and rows[-1].stop == tree.level_size(steps - 1)
    assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
    for block in rows[:-1]:
        parents = block.stop - block.start
        assert parents % rbsde.tree._BLOCK_ALIGN == 0
        assert parents * tree.branching <= rbsde.tree._BLOCK_NODES
