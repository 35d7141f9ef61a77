"""The check of a direct solve runs on the tree's lattice of states, one row per state.

A direct solve of data with states keeps Y, each side's K increments per
parent state and its K_d masses per parent state and branch, and the
checker reads them there.  An oracle (``oracles.per_state_check``) takes
every clause on whole node levels from the same booked increments,
gathered to the nodes by each node's state: each pointwise residual of
the per-state report must be the oracle's, bit for bit, the left-limit
integral must be within 8 ulp of the sum of its terms' sizes, and each
clause must pass or fail as the node checker has it on a whole-level copy
(``clone_solution``), at every drawn scale.  Mutants that edit the per-state values must fail exactly
their clause on either route, and the per-state check must build no node
level.  Derandomised, so the suite is deterministic.
"""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import rbsde.verify
from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree, check_solution,
                   solve_reflected)
from rbsde.errors import RbsdeError
from rbsde.tree import _node_blocks
from rbsde.verify import _NodeReads
from conftest import _transplant_pieces, clone_solution, counterexample_pieces, state_problems
from oracles import per_state_check

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)
ULP = 2.0 ** -52


def _passed(report) -> dict:
    return {name: clause.passed for name, clause in report.clauses.items()}


@SETTINGS
@given(state_problems())
def test_the_per_state_check_is_the_oracles(problem):
    tree, driver, terminal, obstacles = problem
    if not obstacles:
        return   # the checker takes one or two obstacles
    try:
        sol = solve_reflected(tree, driver, terminal, *obstacles)
    except RbsdeError:
        return   # refused data: a crossed side, or a solve past the float range
    with np.errstate(all="ignore"):
        report = check_solution(tree, sol, driver, terminal, *obstacles)
        oracle = per_state_check(tree, sol, driver, terminal, *obstacles)
        nodes = check_solution(tree, clone_solution(tree, sol), driver, terminal, *obstacles)
    residuals = {name: clause.residual for name, clause in report.clauses.items()}
    left = residuals.pop("left_limit_skorokhod")
    # repr keeps every bit of a float, NaN and -0.0 included
    assert json.dumps(residuals) == json.dumps(oracle.residuals)
    if math.isfinite(oracle.left_size):
        assert abs(left - oracle.left_integral) <= 8 * ULP * oracle.left_size, (
            left, oracle.left_integral, oracle.left_size)
    else:
        assert not math.isfinite(left) or not math.isfinite(oracle.left_integral)
    assert _passed(report) == _passed(nodes)


# ---------------------------------------------------------------------------
# mutants of per-state values: Y of one state, one K increment, K_d mass
# moved into K_c, or the solution at one left-limit state.  On a tree
# without marks, row 0 of every level is the all-up state, reached by one
# path alone, whose branch probability is 1/2.


def _cascade(sol, level: int, delta: float) -> None:
    """Add ``delta`` to Y of row 0 of ``level``, and to its ancestors' Y the share that keeps
    each step's dynamics."""
    for k in range(level, -1, -1):
        sol.y.values[k][0] += delta
        delta *= 0.5


def _booked(comp, level: int, size: int) -> np.ndarray:
    """K's increments per state at ``level``, an array of +0.0 where none was kept."""
    if comp.k.values[level + 1] is None:
        comp.k.values[level + 1] = np.zeros(size)
    return comp.k.values[level + 1]


def _constant_pieces(sides: int):
    """Y = 0.5 everywhere, 0.5 above a lower obstacle at 0 (below an upper one at 10)."""
    tree, driver = build_tree(4), DriverSpec()
    obstacles = (BarrierSpec(pieces=((0.0, 0.0),)), BarrierSpec(pieces=((0.0, 10.0),)))
    return tree, driver, TerminalSpec(constant=0.5), obstacles[:sides]


def _far_pieces(sides: int):
    """Y = w on a six-step tree, far inside obstacles at -10 (and 10)."""
    tree, driver = build_tree(6), DriverSpec()
    obstacles = (BarrierSpec(pieces=((0.0, -10.0),)), BarrierSpec(pieces=((0.0, 10.0),)))
    return tree, driver, TerminalSpec(payoff=lambda w, counts: w), obstacles[:sides]


def _jump_pieces(sides: int, mirrored: bool = False):
    """The closed-form problem: Y = 1 on the lower obstacle until it drops at t = 1/2.

    K books 0.5 at level 1, all of it jump-type mass at level 2.  With two
    sides the upper one is far; ``mirrored`` puts the active side above.
    """
    if sides == 1:
        tree, driver, terminal, barrier = counterexample_pieces()
        return tree, driver, terminal, (barrier,)
    tree, driver, terminal, lower, upper = _transplant_pieces(mirrored=mirrored)
    return tree, driver, terminal, (lower, upper)


def _state_mutants(sides: int) -> list:
    """``(clause, tree, driver, terminal, obstacles, mutant)``: each fails exactly its clause."""
    names = {1: ("barrier_dominance", "skorokhod_c", None, "jump_formula_d"),
             2: ("containment", "skorokhod_lower_c", "skorokhod_upper_c", "jump_formula_lower")}
    contain, lower_c, upper_c, lower_d = names[sides]
    entries = []

    def solved(problem):
        tree, driver, terminal, obstacles = problem
        return problem, solve_reflected(tree, driver, terminal, *obstacles)

    # dynamics: Y of one state with slack and no compensator nearby
    problem, sol = solved(_jump_pieces(sides))
    sol.y.values[3][0] += 1e-6
    entries.append(("dynamics", *problem, sol))

    # containment: Y of one state on the obstacle dips a whisker below it;
    # its K increment and the root's keep the dynamics, and the dip is
    # inside the binding tolerance of the jump that follows
    problem, sol = solved(_jump_pieces(sides))
    dip = 1.5e-10
    sol.y.values[1][0] -= dip
    _booked(sol.lower, 1, 2)[0] -= dip
    _booked(sol.lower, 0, 1)[0] += 0.5 * dip
    entries.append((contain, *problem, sol))

    # continuous-type mass off the obstacle: one K increment deep in the
    # tree, Y repaired along its path; the weighted integral stays small
    for index, name in enumerate((lower_c, upper_c)[:sides]):
        problem, sol = solved(_far_pieces(sides))
        side = (sol.lower, sol.upper)[index]
        gap = abs(float(sol.y.values[5][0]) - (-10.0, 10.0)[index])
        delta = 1e-9 / gap
        _booked(side, 5, len(sol.y.values[5]))[0] += delta
        _cascade(sol, 5, delta if index == 0 else -delta)
        entries.append((name, *problem, sol))

    # jump formula: K_d mass moved into K_c at the declared level
    for mirrored, name in ((False, lower_d), (True, "jump_formula_upper"))[:sides]:
        problem, sol = solved(_jump_pieces(sides, mirrored))
        side = sol.upper if mirrored else sol.lower
        side.k_d.values[2] -= 0.2
        entries.append((name, *problem, sol))

    # monotonicity: one K increment below zero where the slack is small,
    # Y repaired along its path
    problem, sol = solved(_constant_pieces(sides))
    drop = 1.5e-10
    _booked(sol.lower, 3, len(sol.y.values[3]))[0] -= drop
    _cascade(sol, 3, -drop)
    entries.append(("compensator_monotone", *problem, sol))

    # left-limit integral: the solution at the left-limit states sits a
    # whisker above the left limit, inside the binding tolerance; the
    # root's Y and the level's K increments keep the dynamics
    problem, sol = solved(_jump_pieces(sides))
    eps = 5e-10
    sol.y.values[1] += eps
    sol.y.values[0] += eps
    sol.lower.k.values[2] += eps
    entries.append(("left_limit_skorokhod", *problem, sol))
    return entries


MUTANTS = _state_mutants(1) + _state_mutants(2)


@pytest.mark.parametrize("case", MUTANTS,
                         ids=[f"{len(entry[4])}-{entry[0]}" for entry in MUTANTS])
def test_a_per_state_mutant_fails_exactly_its_clause_on_either_route(case):
    clause, tree, driver, terminal, obstacles, mutant = case
    for sol in (mutant, clone_solution(tree, mutant)):
        report = check_solution(tree, sol, driver, terminal, *obstacles)
        failing = {name for name, c in report.clauses.items() if not c.passed}
        assert failing == {clause}, (sol is mutant, report.to_dict())


def test_the_mutants_are_checked_per_state(monkeypatch):
    walks = []
    monkeypatch.setattr(rbsde.verify, "_NodeReads",
                        lambda *args: walks.append(args) or _NodeReads(*args))
    for clause, tree, driver, terminal, obstacles, mutant in MUTANTS:
        check_solution(tree, mutant, driver, terminal, *obstacles)
    assert walks == []


def test_a_per_state_check_builds_no_node_level(monkeypatch):
    """m = 1, N = 8: the check of a direct solve reads no node level.

    It builds no ``atom_prob`` level, walks no node probabilities, and its
    traced peak stays below one node level N - 1.
    """
    steps, marks = 8, MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(steps, marks)
    driver = DriverSpec(base=0.1, a=0.2, b=-0.3, c=0.25, marks=marks)
    terminal = TerminalSpec(payoff=lambda w, c: np.abs(w) + 0.3 * c[:, 0])
    # a drop at t = 1/2, a declared jump whose integral weighs probabilities
    lower = BarrierSpec(pieces=((0.0, 1.2), (0.5, -0.2)), stochastic=lambda t, w, c: 0.25 * w)
    sol = solve_reflected(tree, driver, terminal, lower)
    assert any(mass is not None for mass in sol.lower.k_d.values)
    walks = []
    monkeypatch.setattr(rbsde.verify, "_node_blocks",
                        lambda *args: walks.append(args) or _node_blocks(*args))
    gc.collect()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        report = check_solution(tree, sol, driver, terminal, lower)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert report.passed, report.to_dict()
    assert walks == [] and len(tree.atom_prob._levels) == 1
    assert peak < tree.level_size(steps - 1) * 8, peak
