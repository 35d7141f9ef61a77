"""One-obstacle reflected solver against the closed-form and oracle routes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rbsde import (BarrierSpec, DriverNotCoefficientFree, DriverSpec, MarkSet,
                   TerminalBelowBarrier, TerminalSpec, build_tree, expand,
                   regularity_check, snell, snell_representation_check, solve_reflected,
                   sup_diff)
from rbsde.processes import evaluate, linear_obstacle
from rbsde.reflected import obstacle_payoff
from rbsde.snell import BIND_TOL
from rbsde.tree import terminal_mean
from conftest import random_one_barrier
from oracles import brute_force_values


def counterexample(num_steps=4, marks=None):
    tree = build_tree(num_steps, marks)
    driver = DriverSpec(marks=marks or MarkSet())
    terminal = TerminalSpec(constant=0.5)
    barrier = BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0)))
    return tree, driver, terminal, barrier


@pytest.mark.parametrize("num_steps,marks", [
    (4, None),
    (8, MarkSet(sizes=(1.0,), intensities=(0.5,))),
    (6, MarkSet(sizes=(1.0, -1.0), intensities=(0.4, 0.3))),
])
def test_counterexample_closed_form(num_steps, marks):
    tree, driver, terminal, barrier = counterexample(num_steps, marks)
    sol = solve_reflected(tree, driver, terminal, barrier)
    half = num_steps // 2
    for k in range(num_steps + 1):
        expected = 1.0 if k < half else 0.5
        assert np.max(np.abs(sol.y[k] - expected)) <= 1e-12
        expected_k = 0.0 if k < half else 0.5
        assert np.max(np.abs(sol.lower.k[k] - expected_k)) <= 1e-12
        assert np.max(np.abs(sol.lower.k_d[k] - expected_k)) <= 1e-12
        assert np.max(np.abs(sol.lower.k_c[k])) <= 1e-12
    for k in range(num_steps):
        assert np.max(np.abs(sol.z[k])) <= 1e-12
        if tree.marks.count:
            assert np.max(np.abs(sol.v[k])) <= 1e-12


def test_slack_barrier_never_binds():
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    sol = solve_reflected(tree, DriverSpec(), TerminalSpec(constant=1.25),
                          BarrierSpec(pieces=((0.0, -10.0),)))
    for k in range(5):
        assert np.all(np.abs(sol.y[k] - 1.25) <= 1e-14)
        assert np.all(sol.lower.k[k] == 0.0)


def test_terminal_below_barrier_rejected():
    tree = build_tree(4)
    with pytest.raises(TerminalBelowBarrier):
        solve_reflected(tree, DriverSpec(), TerminalSpec(constant=-0.5),
                        BarrierSpec(pieces=((0.0, 0.0),)))


def test_snell_representation_requires_plain_driver():
    tree, _, terminal, barrier = counterexample()
    sol = solve_reflected(tree, DriverSpec(), terminal, barrier)
    with pytest.raises(DriverNotCoefficientFree):
        snell_representation_check(tree, sol, DriverSpec(a=0.5), terminal, barrier)


def test_counterexample_snell_representation():
    tree, driver, terminal, barrier = counterexample()
    sol = solve_reflected(tree, driver, terminal, barrier)
    assert snell_representation_check(tree, sol, driver, terminal, barrier) <= 1e-12


def test_snell_representation_keeps_nan():
    tree, driver, terminal, barrier = counterexample()
    sol = solve_reflected(tree, driver, terminal, barrier)
    sol.y[2] = np.full_like(sol.y[2], np.nan)
    assert np.isnan(snell_representation_check(tree, sol, driver, terminal, barrier))


def test_martingale_obstacle_keeps_compensator_empty():
    tree = build_tree(4, MarkSet(sizes=(2.0,), intensities=(0.5,)))
    xi = TerminalSpec(payoff=lambda w, c: np.maximum(w, 0.0) + 0.2 * c[:, 0])
    values = xi.evaluate(tree)
    closure = [None] * 5
    closure[4] = values
    for k in range(3, -1, -1):
        closure[k] = tree.cond_exp(closure[k + 1])

    def obstacle(t, w, counts):
        level = round(t * tree.num_steps)
        return closure[level] - 0.1

    barrier = BarrierSpec(stochastic=obstacle)
    sol = solve_reflected(tree, DriverSpec(), xi, barrier)
    assert all(np.all(level == 0.0) for level in sol.lower.k)
    assert snell_representation_check(tree, sol, DriverSpec(), xi, barrier) <= 1e-12


def test_value_matches_stopping_oracle():
    rng = np.random.default_rng(71)
    for _ in range(10):
        problem = random_one_barrier(rng, max_steps=5, max_marks=1)
        tree = problem.build_tree()
        sol = solve_reflected(tree, problem.driver, problem.terminal,
                              problem.barrier)
        dev = snell_representation_check(tree, sol, problem.driver, problem.terminal,
                                         problem.barrier)
        assert dev <= 1e-12
        payoff, cum = obstacle_payoff(tree, problem.driver, problem.terminal,
                                      problem.barrier)
        oracle = brute_force_values(tree, payoff)
        for k in range(tree.num_steps + 1):
            assert np.max(np.abs(sol.y[k] + cum[k] - oracle[k])) <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_envelope_route_splits_k_as_the_solver_does(seed):
    """The envelope's jump-type mass is the solver's, with a source g != 0."""
    problem = random_one_barrier(np.random.default_rng(seed), max_steps=5, max_marks=1)
    tree = problem.build_tree()
    payoff, cum = obstacle_payoff(tree, problem.driver, problem.terminal, problem.barrier)
    assume(np.any(cum != 0.0))
    report = regularity_check(tree, snell(tree, payoff), cum, problem.barrier)
    sol = solve_reflected(tree, problem.driver, problem.terminal, problem.barrier)
    assert report.kd_mass == pytest.approx(terminal_mean(tree, sol.lower.k_d), abs=1e-12)
    assert report.total_mass == pytest.approx(terminal_mean(tree, sol.lower.k), abs=1e-12)


def test_comparison_in_the_obstacle():
    rng = np.random.default_rng(55)
    for _ in range(5):
        problem = random_one_barrier(rng, max_steps=5, max_marks=1)
        tree = problem.build_tree()
        lower = problem.barrier
        shift = float(rng.uniform(0.05, 0.5))
        higher = BarrierSpec(pieces=tuple((t, v + shift) for t, v in lower.pieces),
                             stochastic=lower.stochastic)
        xi = TerminalSpec(payoff=lambda w, c, s=shift: problem.terminal.payoff(w, c) + s)
        low_sol = solve_reflected(tree, problem.driver, problem.terminal, lower)
        high_sol = solve_reflected(tree, problem.driver, xi, higher)
        for a, b in zip(low_sol.y, high_sol.y):
            assert np.min(b - a) >= -1e-12


def test_dynamics_and_skorokhod_invariants():
    rng = np.random.default_rng(61)
    problem = random_one_barrier(rng, max_steps=6, max_marks=1)
    tree = problem.build_tree()
    sol = solve_reflected(tree, problem.driver, problem.terminal, problem.barrier)
    from rbsde import eval_barrier
    obstacle = eval_barrier(problem.barrier, tree)
    total = 0.0
    k_all = [expand(tree, level, j) for j, level in enumerate(sol.lower.k)]
    k_c = [expand(tree, level, j) for j, level in enumerate(sol.lower.k_c)]
    for k in range(tree.num_steps):
        inc = tree.cond_exp(k_all[k + 1]) - k_all[k]
        rhs = tree.cond_exp(sol.y[k + 1]) \
            + problem.driver.base_at(tree.time(k)) * tree.dt + inc
        assert np.max(np.abs(sol.y[k] - rhs)) <= 1e-12
        slack = sol.y[k] - obstacle.levels[k].whole()
        inc_c = k_c[k + 1] - expand(tree, k_c[k], k + 1)
        total += float(tree.atom_prob[k + 1] @ (expand(tree, slack, k + 1) * inc_c))
        assert np.max(np.abs(expand(tree, slack, k + 1) * inc_c)) <= 1e-12
    assert abs(total) <= 1e-12


def test_reflection_with_y_coefficient_agrees_with_penalised_limit():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(5, marks)
    driver = DriverSpec(base=0.2, a=0.4, marks=marks)
    barrier = BarrierSpec(pieces=((0.0, 0.6), (0.6, -0.4)),
                          stochastic=linear_obstacle(0.0, 0.25))
    xi = TerminalSpec(payoff=lambda w, c: 0.25 * w + 0.6)
    direct = solve_reflected(tree, driver, xi, barrier)
    from rbsde import solve_penalized
    pen = solve_penalized(tree, driver, barrier, xi, 1e13)
    assert sup_diff(direct.y, pen.solution.y) <= 1e-10


def _whole_jump_part(tree, sol, obstacle):
    """K_d of a one-obstacle solution by the left-limit formula on whole levels."""
    whole = [np.zeros(1)]
    for k in range(1, tree.num_steps + 1):
        left = obstacle.left_levels.get(k)
        mass = 0.0
        if left is not None:
            binding = expand(tree, np.abs(sol.y[k - 1] - left.whole()) <= BIND_TOL, k)
            gap = np.maximum(expand(tree, left.whole(), k) - sol.y[k], 0.0)
            mass = np.where(binding, gap, 0.0)
        whole.append(expand(tree, whole[-1], k) + mass)
    return whole


def test_a_declared_level_without_jump_mass_shares_the_level_before():
    # Y sits above the obstacle when it rises at t = 1/4 (no jump-type mass
    # there) and on it when it drops at t = 1/2 (mass)
    n = 8
    tree = build_tree(n, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    driver, terminal = DriverSpec(base=0.1), TerminalSpec(constant=0.5)
    barrier = BarrierSpec(pieces=((0.0, 0.0), (0.25, 1.0), (0.5, 0.0)),
                          stochastic=lambda t, w, c: 0.05 * w)
    sol = solve_reflected(tree, driver, terminal, barrier)
    _, obstacle = evaluate(tree, None, barrier)
    assert obstacle.jump_levels == (2, 4)
    k_d = sol.lower.k_d
    assert k_d[2] is k_d[1] is k_d[0] and not k_d[0].any()
    assert k_d[4] is not k_d[3] and len(k_d[4]) == tree.level_size(4) and k_d[4].any()
    assert all(k_d[k] is k_d[4] for k in range(5, n + 1))
    whole = _whole_jump_part(tree, sol, obstacle)
    for k in range(n + 1):
        assert expand(tree, k_d[k], k).tobytes() == whole[k].tobytes(), k
    assert (np.float64(terminal_mean(tree, k_d)).tobytes()
            == np.float64(tree.expectation(n, whole[n])).tobytes())


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_a_level_whose_first_blocks_add_no_jump_mass_keeps_their_values(side):
    # the obstacle binds only at w <= -7/3 before its drop at the horizon:
    # nodes that only a first move down reaches, in the last two of the
    # four parent blocks of level 8 (side 1), or the first two with w -> -w
    n = 9
    tree = build_tree(n, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    driver, terminal = DriverSpec(base=0.1), TerminalSpec(constant=0.5)
    barrier = BarrierSpec(pieces=((0.0, 0.3), (1.0, -20.0)),
                          stochastic=lambda t, w, c: 10.0 * np.maximum(-side * w - 2.2, 0.0))
    sol = solve_reflected(tree, driver, terminal, barrier)
    _, obstacle = evaluate(tree, None, barrier)
    k_d = sol.lower.k_d[n]
    half = tree.level_size(n) // 2
    assert len(k_d) == tree.level_size(n)
    assert (not k_d[:half].any() and k_d[half:].any()) == (side > 0)
    assert (k_d[:half].any() and not k_d[half:].any()) == (side < 0)
    whole = _whole_jump_part(tree, sol, obstacle)
    assert k_d.tobytes() == whole[n].tobytes()
