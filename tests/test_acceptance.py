"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, MarkSet, ProblemSpec, TerminalSpec,
                   alpha_rule, build_tree, check_solution, picard_solve, regularity_probe,
                   snell_representation_check, solve_bsde, solve_reflected, sup_diff,
                   sweep)
from rbsde.processes import linear_obstacle, put_payoff
from rbsde.reflected import obstacle_payoff
from rbsde.twobarrier import monotone_iterate_check, picard_snell_solve
from conftest import (one_barrier_mutants, random_one_barrier, random_two_barrier,
                      two_barrier_mutants)
from oracles import brute_force_values


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds


def one_barrier_corpus(count=200, seed=20260809):
    rng = np.random.default_rng(seed)
    return [random_one_barrier(rng) for _ in range(count)]


def test_criterion_1_counterexample_reproduction():
    with criterion("criterion 1: closed-form counter-example", 1.0):
        for num_steps, marks in ((8, MarkSet(sizes=(1.0,), intensities=(0.5,))),
                                 (4, MarkSet()),
                                 (6, MarkSet(sizes=(1.0, 2.0), intensities=(0.4, 0.2)))):
            tree = build_tree(num_steps, marks)
            sol = solve_reflected(
                tree, DriverSpec(marks=marks), TerminalSpec(constant=0.5),
                BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0))))
            half = num_steps // 2
            for k in range(num_steps + 1):
                y_expected = 1.0 if k < half else 0.5
                k_expected = 0.0 if k < half else 0.5
                assert np.max(np.abs(sol.y[k] - y_expected)) <= 1e-12
                assert np.max(np.abs(sol.lower.k[k] - k_expected)) <= 1e-12
                assert np.max(np.abs(sol.lower.k_d[k] - k_expected)) <= 1e-12
                assert np.max(np.abs(sol.lower.k_c[k])) <= 1e-12
            for k in range(num_steps):
                assert np.max(np.abs(sol.z[k])) <= 1e-12
                if marks.count:
                    assert np.max(np.abs(sol.v[k])) <= 1e-12


def test_criterion_2_snell_vs_brute_force():
    with criterion("criterion 2: envelope route and stopping oracle", 60.0):
        for problem in one_barrier_corpus():
            tree = problem.build_tree()
            sol = solve_reflected(tree, problem.driver, problem.terminal,
                                  problem.barrier)
            dev = snell_representation_check(tree, sol, problem.driver,
                                             problem.terminal, problem.barrier)
            assert dev <= 1e-12
            payoff, cum = obstacle_payoff(tree, problem.driver, problem.terminal,
                                          problem.barrier)
            oracle = brute_force_values(tree, payoff)
            for k in range(tree.num_steps + 1):
                assert np.max(np.abs(sol.y[k] + cum[k] - oracle[k])) <= 1e-12


def test_criterion_3_penalization_monotone_convergence():
    ladder = [2 ** j for j in range(11)]
    with criterion("criterion 3: penalty ladder convergence", 60.0):
        for problem in one_barrier_corpus():
            tree = problem.build_tree()
            report = sweep(tree, problem.driver, problem.barrier, problem.terminal,
                           ladder)
            assert report.monotone_violation <= 1e-12
            for pen in report.solutions:
                for yn, yr in zip(pen.solution.y, report.reflected.y):
                    assert np.max(yn - yr) <= 1e-12
            gap32, gap512, gap1024 = (report.sup_gaps[5], report.sup_gaps[9],
                                      report.sup_gaps[10])
            if gap32 > 1e-13:
                assert gap1024 < gap32
            else:
                assert gap1024 <= 1e-13
            # empirical one-over-n extrapolation from the previous rung
            assert gap1024 <= 10.0 * (gap512 / 2.0) + 1e-15
            assert all(b <= a + 1e-12 for a, b in
                       zip(report.k_gaps, report.k_gaps[1:]))
            assert report.k_gaps[-1] <= report.k_gaps[0] + 1e-12


def test_criterion_4_solution_condition_suite():
    with criterion("criterion 4: condition checks and fault injection", 60.0):
        rng = np.random.default_rng(404)
        for _ in range(20):
            problem = random_one_barrier(rng, max_steps=5)
            tree = problem.build_tree()
            sol = solve_reflected(tree, problem.driver, problem.terminal,
                                  problem.barrier)
            report = check_solution(tree, sol, problem.driver, problem.terminal,
                                    problem.barrier)
            assert report.passed, report.to_dict()
        for _ in range(10):
            problem = random_two_barrier(rng)
            tree = problem.build_tree()
            sol = solve_reflected(tree, problem.driver, problem.terminal,
                                  problem.lower, problem.upper)
            report = check_solution(tree, sol, problem.driver, problem.terminal,
                                    problem.lower, problem.upper)
            assert report.passed, report.to_dict()
        # a fixed-point output must pass the same clauses
        marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
        tree = build_tree(6, marks)
        driver = DriverSpec(base=0.1, a=0.2, b=0.2, c=0.1, marks=marks)
        barrier = BarrierSpec(pieces=((0.0, 0.1), (0.5, -0.6)),
                              stochastic=linear_obstacle(0.0, 0.2))
        xi = TerminalSpec(payoff=lambda w, c: np.maximum(0.2 * w, -0.6))
        sol, _ = picard_solve(tree, driver, xi, solver_kind="one_barrier",
                              barrier=barrier)
        assert check_solution(tree, sol, driver, xi, barrier).passed

        # fault injection: every mutant flips exactly its targeted clause
        for clause, tree, driver, terminal, barrier, mutant in one_barrier_mutants():
            report = check_solution(tree, mutant, driver, terminal, barrier)
            assert not report.clauses[clause].passed
            assert all(result.passed for name, result in report.clauses.items()
                       if name != clause), (clause, report.to_dict())
        for clause, tree, driver, terminal, lower, upper, mutant in two_barrier_mutants():
            report = check_solution(tree, mutant, driver, terminal, lower, upper)
            assert not report.clauses[clause].passed
            assert all(result.passed for name, result in report.clauses.items()
                       if name != clause), (clause, report.to_dict())


def test_criterion_5_two_barrier_cross_algorithm():
    with criterion("criterion 5: two-obstacle route agreement", 90.0):
        rng = np.random.default_rng(31415)
        for _ in range(100):
            problem = random_two_barrier(rng)
            tree = problem.build_tree()
            direct = solve_reflected(tree, problem.driver, problem.terminal,
                                     problem.lower, problem.upper)
            sol, trace = picard_snell_solve(tree, problem.driver, problem.terminal,
                                            problem.lower, problem.upper)
            assert sup_diff(direct.y, sol.y) <= 1e-10
            assert monotone_iterate_check(tree, trace).passed


def contraction_cases():
    sqrt_half = float(np.sqrt(0.5))
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    return [
        (0.25, 4, marks, DriverSpec(base=0.1, a=0.1, b=0.1, c=0.05 / sqrt_half,
                                    marks=marks)),
        (0.5, 6, marks, DriverSpec(base=-0.1, a=0.2, b=0.2, c=0.1 / sqrt_half,
                                   marks=marks)),
        (1.0, 10, MarkSet(), DriverSpec(base=0.1, a=0.5, b=0.5)),
    ]


def test_criterion_6_contraction_certification():
    with criterion("criterion 6: certified contraction", 30.0):
        for c_f, num_steps, marks, driver in contraction_cases():
            assert driver.lipschitz_constant == pytest.approx(c_f, abs=1e-12)
            assert driver.lipschitz_constant / num_steps <= 0.1 + 1e-12
            tree = build_tree(num_steps, marks)
            alpha = alpha_rule(c_f)
            xi = TerminalSpec(payoff=lambda w, c: np.maximum(0.25 * w, 0.0))

            direct = solve_bsde(tree, driver, xi)
            sol, trace = picard_solve(tree, driver, xi, alpha=alpha, tol=1e-12,
                                      max_iter=60)
            assert trace.converged and trace.iterations <= 60
            assert all(r < 1.0 for r in trace.ratios)
            assert sup_diff(direct.y, sol.y) <= 1e-10

            barrier = BarrierSpec(pieces=((0.0, 0.2), (0.5, -0.4)),
                                  stochastic=linear_obstacle(0.0, 0.25))
            xi_b = TerminalSpec(payoff=lambda w, c: -0.4 + 0.25 * w
                                + np.maximum(-0.25 * w, 0.0) + 0.1)
            direct_b = solve_reflected(tree, driver, xi_b, barrier)
            sol_b, trace_b = picard_solve(tree, driver, xi_b,
                                          solver_kind="one_barrier", barrier=barrier,
                                          alpha=alpha, tol=1e-12, max_iter=60)
            assert trace_b.converged and trace_b.iterations <= 60
            assert all(r < 1.0 for r in trace_b.ratios)
            assert sup_diff(direct_b.y, sol_b.y) <= 1e-10


def test_criterion_7_regularity_dichotomy():
    with criterion("criterion 7: regularity dichotomy", 20.0):
        counterexample = ProblemSpec(
            num_steps=4, terminal=TerminalSpec(constant=0.5), driver=DriverSpec(),
            barrier=BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0))))
        report = regularity_probe(counterexample)
        assert report.kd_mass == pytest.approx(0.5, abs=1e-12)
        assert report.verdict == "irregular"
        assert all(g <= 1e-12 for g in report.z_gaps)
        assert all(g <= 1e-12 for g in report.v_gaps)
        assert all(g > 0.0 for g in report.gaps_at_jumps)

        smooth = ProblemSpec(
            num_steps=6, terminal=TerminalSpec(payoff=put_payoff(1.8)),
            driver=DriverSpec(base=-0.3),
            barrier=BarrierSpec(stochastic=lambda t, w, c: np.maximum(1.8 - w, 0.0)))
        report = regularity_probe(smooth)
        assert report.kd_mass <= 1e-12
        assert report.verdict == "regular"
        assert report.y_gaps[0] > 0.0
        assert all(b <= a + 1e-15 for a, b in zip(report.y_gaps, report.y_gaps[1:]))
        assert report.y_gaps[-1] < report.y_gaps[0] / 10


def test_criterion_8_noise_model_sanity():
    with criterion("criterion 8: noise-model identities", 5.0):
        rng = np.random.default_rng(808)
        for _ in range(50):
            num_steps = int(rng.integers(1, 7))
            m = int(rng.integers(0, 4))
            if m:
                lam_cap = 0.85 * num_steps / m
                marks = MarkSet(
                    sizes=tuple(float(x) for x in np.arange(1.0, m + 1.0)),
                    intensities=tuple(float(x) for x in
                                      rng.uniform(0.05, min(0.9, lam_cap), m)))
            else:
                marks = MarkSet()
            tree = build_tree(num_steps, marks)
            assert abs(tree.branch_prob.sum() - 1.0) <= 1e-15
            assert abs(tree.branch_prob @ tree.branch_db) <= 1e-14
            assert abs(tree.branch_prob @ tree.branch_db ** 2 - tree.dt) <= 1e-14
            for i in range(m):
                assert abs(tree.branch_prob @ tree.branch_comp[:, i]) <= 1e-14
                assert abs(tree.branch_prob
                           @ (tree.branch_db * tree.branch_comp[:, i])) <= 1e-14
            # both noise sources are martingales under full backward summation
            w_vals = tree.w[-1].copy()
            # one column per mark: cond_exp takes one value per child
            count_vals = list((tree.counts[-1] - marks.intensity_array).T)
            for k in range(num_steps - 1, -1, -1):
                w_vals = tree.cond_exp(w_vals)
                count_vals = [tree.cond_exp(column) for column in count_vals]
                assert np.max(np.abs(w_vals - tree.w[k])) <= 1e-14
                drift = marks.intensity_array * tree.time(k)
                assert (not count_vals or np.max(np.abs(np.transpose(count_vals)
                                                        - (tree.counts[k] - drift))) <= 1e-14)
