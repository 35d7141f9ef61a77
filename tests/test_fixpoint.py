"""Weighted norm, weight-exponent rule and the frozen-input iteration."""

import tracemalloc

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, MarkSet, MaxIterExceeded, TerminalSpec,
                   alpha_rule, build_tree, expand, picard_solve, solve_bsde, solve_reflected,
                   sup_diff)
from rbsde.fixpoint import _sweep, random_triple, zero_triple
from rbsde.processes import eval_barrier, evaluate, linear_obstacle
from conftest import random_one_barrier, random_two_barrier
from oracles import alpha_norm


def test_alpha_rule_values():
    assert alpha_rule(0.0) == pytest.approx(2.0)
    assert alpha_rule(1.0) == pytest.approx(8.0)
    assert alpha_rule(0.5) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        alpha_rule(-1.0)


def test_alpha_norm_examples():
    tree = build_tree(4)
    assert alpha_norm(tree, zero_triple(tree), 3.0) == 0.0
    ones = ([np.ones(tree.level_size(k)) for k in range(5)],
            tree.zero_predictable(), tree.zero_marked())
    assert alpha_norm(tree, ones, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_alpha_norm_homogeneous():
    tree = build_tree(3, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    rng = np.random.default_rng(4)
    triple = random_triple(tree, rng)
    doubled = ([2 * x for x in triple[0]], [2 * x for x in triple[1]],
               [2 * x for x in triple[2]])
    assert alpha_norm(tree, doubled, 1.7) == pytest.approx(
        2 * alpha_norm(tree, triple, 1.7), rel=1e-12)


def test_coefficient_free_converges_in_one_round():
    tree = build_tree(4)
    sol, trace = picard_solve(tree, DriverSpec(base=0.3), TerminalSpec(constant=1.0))
    assert trace.iterations == 1
    assert trace.distances == [0.0]
    assert np.all(np.abs(sol.y[0] - 1.3) <= 1e-14)


def test_linear_driver_matches_direct_solve():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(8, marks)
    driver = DriverSpec(base=0.1, a=0.3, b=-0.4, c=0.25, marks=marks)
    xi = TerminalSpec(payoff=lambda w, c: np.sin(w) + 0.3 * c[:, 0])
    direct = solve_bsde(tree, driver, xi)
    sol, trace = picard_solve(tree, driver, xi)
    assert sup_diff(direct.y, sol.y) <= 1e-12
    assert all(r < 1.0 for r in trace.ratios)
    assert trace.distances[-1] < 1e-12


@pytest.mark.parametrize("kind", ["standard", "one_barrier", "two_barrier"])
def test_fixed_point_contracts_and_refits(kind):
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(8, marks)
    driver = DriverSpec(base=0.0, a=0.25, b=0.25, c=0.2, marks=marks)
    barrier = BarrierSpec(pieces=((0.0, 0.5), (0.5, -0.5)),
                          stochastic=linear_obstacle(0.0, 0.3))
    upper = BarrierSpec(pieces=((0.0, 0.9), (0.5, 0.25), (1.0, 5.0)),
                        stochastic=linear_obstacle(0.0, 0.3))
    xi = TerminalSpec(payoff=lambda w, c: np.maximum(0.3 * w, -0.5) + 0.2)
    obstacles = {"standard": {}, "one_barrier": {"barrier": barrier},
                 "two_barrier": {"lower": barrier, "upper": upper}}[kind]
    sol, trace = picard_solve(tree, driver, xi, solver_kind=kind, **obstacles)
    assert trace.converged
    assert all(r < 1.0 for r in trace.ratios)
    if kind == "two_barrier":
        assert float(np.max(sol.upper.k[-1])) > 0.0
    # the fixed point solves the reflected problem with its own frozen inputs
    low = None if kind == "standard" else eval_barrier(barrier, tree)
    up = eval_barrier(upper, tree) if kind == "two_barrier" else None
    refit_y, *_ = _sweep(tree, driver, (sol.y, sol.z, sol.v), evaluate(tree, xi)[0],
                         low, up)
    assert sup_diff(refit_y, sol.y) <= 1e-11


def test_initialisation_independence():
    marks = MarkSet(sizes=(1.0,), intensities=(0.4,))
    tree = build_tree(6, marks)
    driver = DriverSpec(base=0.2, a=-0.3, b=0.3, c=0.3, marks=marks)
    xi = TerminalSpec(payoff=lambda w, c: np.cos(w))
    tol = 1e-12
    from_zero, _ = picard_solve(tree, driver, xi, tol=tol)
    rng = np.random.default_rng(123)
    from_random, _ = picard_solve(tree, driver, xi, tol=tol,
                                  initial=random_triple(tree, rng, scale=3.0))
    assert sup_diff(from_zero.y, from_random.y) <= tol * 10


@pytest.mark.parametrize("nodes", [1, 2])
def test_rejects_a_start_off_the_tree(nodes):
    # one node per level fits level 0 only; two nodes fit no level
    tree = build_tree(3, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    start = ([np.zeros(nodes)] * 4, [np.zeros(nodes)] * 3, [np.zeros((nodes, 1))] * 3)
    with pytest.raises(ValueError, match=f"initial Y at level {2 - nodes} "):
        picard_solve(tree, DriverSpec(a=0.3), TerminalSpec(constant=1.0), initial=start)


def test_rejects_a_start_with_the_wrong_levels_or_marks():
    tree = build_tree(3, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    y, z, v = zero_triple(tree)
    with pytest.raises(ValueError, match="initial Z at level 2 has shape None"):
        picard_solve(tree, DriverSpec(a=0.3), TerminalSpec(constant=1.0),
                     initial=(y, z[:2], v))
    with pytest.raises(ValueError, match="initial V at level 0"):
        picard_solve(tree, DriverSpec(a=0.3), TerminalSpec(constant=1.0),
                     initial=(y, z, [level[:, 0] for level in v]))


def test_iteration_budget_enforced():
    tree = build_tree(6)
    driver = DriverSpec(a=0.9)
    with pytest.raises(MaxIterExceeded):
        picard_solve(tree, driver, TerminalSpec(constant=1.0), max_iter=2)


def test_rejects_missing_obstacles():
    tree = build_tree(4)
    with pytest.raises(ValueError):
        picard_solve(tree, DriverSpec(), TerminalSpec(constant=0.0),
                     solver_kind="one_barrier")
    with pytest.raises(ValueError):
        picard_solve(tree, DriverSpec(), TerminalSpec(constant=0.0),
                     solver_kind="two_barrier", lower=BarrierSpec())


@pytest.mark.parametrize("max_iter", [0, -1])
def test_rejects_empty_iteration_budget(max_iter):
    tree = build_tree(3)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(tree, DriverSpec(a=0.3), TerminalSpec(constant=1.0), max_iter=max_iter)


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_rejects_tolerance_that_cannot_stop(tol):
    tree = build_tree(3)
    with pytest.raises(ValueError, match="tol"):
        picard_solve(tree, DriverSpec(a=0.3), TerminalSpec(constant=1.0), tol=tol)


def test_memory_does_not_grow_with_rounds():
    # only the previous iterate is held, so a loose and a tight stop peak alike
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(8, marks)
    driver = DriverSpec(base=0.1, a=0.3, b=-0.4, c=0.25, marks=marks)
    xi = TerminalSpec(payoff=lambda w, c: np.sin(w) + 0.3 * c[:, 0])
    # the shared leaf evaluation, and the last step that every sweep of it on
    # the tree shares (Z_{N-1}, V_{N-1} and E[xi | F_{N-1}]), are made outside
    # the traced runs: two rounds make them all
    picard_solve(tree, driver, xi, tol=1e-3)
    peaks, rounds = [], []
    for tol in (1e-3, 1e-12):
        tracemalloc.start()
        try:
            _, trace = picard_solve(tree, driver, xi, tol=tol)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rounds.append(trace.iterations)
    assert rounds[1] >= rounds[0] + 5
    assert abs(peaks[1] - peaks[0]) <= 0.15 * peaks[0], peaks


def _bits(tree, process):
    return [expand(tree, np.asarray(level), k).tobytes() for k, level in enumerate(process)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["standard", "one_barrier", "two_barrier"])
def test_coefficient_free_matches_direct_solve_bit_for_bit(kind, seed):
    rng = np.random.default_rng(70 + seed)
    if kind == "two_barrier":
        problem = random_two_barrier(rng)
    else:
        problem = random_one_barrier(rng)
    tree = problem.build_tree()
    if kind == "standard":
        direct = solve_bsde(tree, problem.driver, problem.terminal)
    elif kind == "one_barrier":
        direct = solve_reflected(tree, problem.driver, problem.terminal, problem.barrier)
    else:
        direct = solve_reflected(tree, problem.driver, problem.terminal,
                                 problem.lower, problem.upper)
    sol, trace = picard_solve(tree, problem.driver, problem.terminal, solver_kind=kind,
                              barrier=problem.barrier, lower=problem.lower,
                              upper=problem.upper)
    assert trace.iterations == 1
    for name in ("y", "z", "v"):
        assert _bits(tree, getattr(sol, name)) == _bits(tree, getattr(direct, name)), name
    for side in ("lower", "upper"):
        mine, theirs = getattr(sol, side), getattr(direct, side)
        assert (mine is None) == (theirs is None), side
        if theirs is not None:
            for name in ("k", "k_c", "k_d"):
                assert _bits(tree, getattr(mine, name)) == \
                    _bits(tree, getattr(theirs, name)), (side, name)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
def test_rejects_a_weight_exponent_that_is_not_finite_and_nonnegative(monkeypatch, alpha):
    import rbsde.fixpoint

    def no_sweep(*args):
        raise AssertionError("alpha is checked before any sweep")

    monkeypatch.setattr(rbsde.fixpoint, "_sweep", no_sweep)
    with pytest.raises(ValueError, match="alpha"):
        picard_solve(build_tree(3), DriverSpec(a=0.3), TerminalSpec(constant=1.0),
                     alpha=alpha)
