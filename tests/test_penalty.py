"""Penalty ladder: monotonicity, domination, flux identity, convergence."""

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, TerminalSpec, build_tree,
                   solve_bsde, solve_penalized, sup_diff, sweep)
from conftest import random_one_barrier
from oracles import brute_force_values

COUNTEREXAMPLE = dict(driver=DriverSpec(), terminal=TerminalSpec(constant=0.5),
                      barrier=BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0))))


def test_zero_weight_is_plain_solve():
    tree = build_tree(4)
    pen = solve_penalized(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
                          COUNTEREXAMPLE["terminal"], 0.0)
    plain = solve_bsde(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["terminal"])
    assert sup_diff(pen.solution.y, plain.y) == 0.0
    assert all(np.all(level == 0.0) for level in pen.kn)


def test_inactive_barrier_keeps_plain_solution():
    tree = build_tree(4)
    low = BarrierSpec(pieces=((0.0, -10.0),))
    pen = solve_penalized(tree, DriverSpec(), low, TerminalSpec(constant=0.5), 512.0)
    plain = solve_bsde(tree, DriverSpec(), TerminalSpec(constant=0.5))
    assert sup_diff(pen.solution.y, plain.y) <= 1e-14
    assert all(np.all(level == 0.0) for level in pen.kn)


def test_counterexample_ladder():
    tree = build_tree(4)
    report = sweep(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
                   COUNTEREXAMPLE["terminal"], [1, 2, 4, 8, 16, 32])
    assert report.monotone_violation <= 1e-12
    # gaps close strictly and the root value climbs toward the reflected one
    assert all(b < a for a, b in zip(report.sup_gaps, report.sup_gaps[1:]))
    # gap at the terminal probe time is an order below the sup gap already
    assert report.k_gaps[-1] < 0.05
    assert report.sup_gaps[-1] < 0.06
    roots = [float(s.solution.y[0][0]) for s in report.solutions]
    assert all(b > a for a, b in zip(roots, roots[1:]))
    assert roots[-1] < 1.0
    big = solve_penalized(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
                          COUNTEREXAMPLE["terminal"], 2.0 ** 20)
    assert float(big.solution.y[0][0]) == pytest.approx(1.0, abs=1e-4)


def test_penalty_flux_identity():
    rng = np.random.default_rng(17)
    problem = random_one_barrier(rng, max_steps=5, max_marks=1)
    tree = problem.build_tree()
    n = 7.0
    pen = solve_penalized(tree, problem.driver, problem.barrier, problem.terminal, n)
    from rbsde import eval_barrier
    obstacle = eval_barrier(problem.barrier, tree)
    for k in range(tree.num_steps):
        lhs = pen.solution.y[k] - tree.cond_exp(pen.solution.y[k + 1]) \
            - problem.driver.base_at(tree.time(k)) * tree.dt
        rhs = n * tree.dt * np.maximum(obstacle.levels[k].whole() - pen.solution.y[k], 0.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_domination_by_reflected_solution():
    rng = np.random.default_rng(29)
    for _ in range(5):
        problem = random_one_barrier(rng, max_steps=5, max_marks=1)
        tree = problem.build_tree()
        report = sweep(tree, problem.driver, problem.barrier, problem.terminal,
                       [1, 4, 16, 64, 256, 1024])
        for pen in report.solutions:
            for yk, yr in zip(pen.solution.y, report.reflected.y):
                assert np.max(yk - yr) <= 1e-12
        assert report.sup_gaps[-1] <= report.sup_gaps[0] + 1e-15
        assert report.k_gaps[-1] <= report.k_gaps[0] + 1e-15


def test_stopping_identity_of_penalized_solutions():
    # the penalised solution is the envelope of its own truncated payoff
    tree = build_tree(4)
    for n in (2.0, 16.0):
        pen = solve_penalized(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
                              COUNTEREXAMPLE["terminal"], n)
        from rbsde import eval_barrier
        obstacle = eval_barrier(COUNTEREXAMPLE["barrier"], tree)
        payoff = [np.minimum(obstacle.levels[k].whole(), pen.solution.y[k])
                  for k in range(tree.num_steps)]
        payoff.append(pen.solution.y[tree.num_steps])
        oracle = brute_force_values(tree, payoff)
        assert sup_diff(oracle, pen.solution.y) <= 1e-12


def test_sweep_input_validation():
    tree = build_tree(3)
    with pytest.raises(ValueError):
        sweep(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
              COUNTEREXAMPLE["terminal"], [8, 4])
    with pytest.raises(ValueError):
        sweep(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
              COUNTEREXAMPLE["terminal"], [8])


def test_kn_converges_to_reflected_compensator():
    tree = build_tree(4)
    report = sweep(tree, COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
                   COUNTEREXAMPLE["terminal"], [2 ** j for j in range(11)])
    assert all(b <= a + 1e-12 for a, b in zip(report.k_gaps, report.k_gaps[1:]))
    assert report.k_gaps[-1] < 1e-3


def test_sweep_monotonicity_catches_a_nan(monkeypatch):
    import rbsde.penalty
    from rbsde import MonotonicityViolation
    solve = rbsde.penalty.solve_penalized

    def poisoned(tree, driver, barrier, terminal, n):
        out = solve(tree, driver, barrier, terminal, n)
        if n == 4.0:
            out.solution.y.values[2][1] = np.nan   # the rung's Y per state
        return out

    monkeypatch.setattr(rbsde.penalty, "solve_penalized", poisoned)
    with pytest.raises(MonotonicityViolation):
        sweep(build_tree(4), COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
              COUNTEREXAMPLE["terminal"], [1, 2, 4, 8])


@pytest.mark.parametrize("n", [float("nan"), float("inf"), -1.0])
def test_solve_penalized_rejects_a_weight_that_is_not_finite_and_nonnegative(monkeypatch, n):
    import rbsde.penalty

    def no_sweep(*args):
        raise AssertionError("the weight is checked before any sweep")

    monkeypatch.setattr(rbsde.penalty, "_backward_sweep", no_sweep)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_penalized(build_tree(3), COUNTEREXAMPLE["driver"], COUNTEREXAMPLE["barrier"],
                        COUNTEREXAMPLE["terminal"], n)
