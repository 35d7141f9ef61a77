"""Two-obstacle solvers: witness checking, both routes, iteration bounds."""

from dataclasses import replace

import numpy as np
import pytest

from rbsde import (BarriersTouch, BarrierSpec, DriverNotCoefficientFree, DriverSpec,
                   MarkSet, MokobodskiFailed, ProblemSpec, TerminalOutsideBarriers,
                   TerminalSpec, build_tree, check_mokobodski, check_solution,
                   expand, martingale_witness, monotone_iterate_check, picard_snell_solve,
                   solve_reflected, sup_diff)
from rbsde.errors import MonotonicityViolation
from conftest import random_one_barrier, random_two_barrier
from oracles import constant_witness

WIDE = BarrierSpec(pieces=((0.0, 10.0),))
LOW = BarrierSpec(pieces=((0.0, -10.0),))


def test_mokobodski_zero_witness_inside_band():
    tree = build_tree(3)
    witness = constant_witness(tree, 0.0, 0.0)
    check = check_mokobodski(tree, witness, BarrierSpec(pieces=((0.0, -1.0),)),
                             BarrierSpec(pieces=((0.0, 1.0),)))
    assert check.passed


def test_mokobodski_reports_band_violation():
    tree = build_tree(3)
    witness = constant_witness(tree, 0.0, 0.0)
    brownian = BarrierSpec(stochastic=lambda t, w, c: w)
    check = check_mokobodski(tree, witness, brownian, brownian)
    assert not check.passed
    assert check.max_band_violation > 0.0
    assert "band" in check.detail


def test_mokobodski_martingale_witness():
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    xi = TerminalSpec(payoff=lambda w, c: w - 0.5 * c[:, 0])
    witness = martingale_witness(tree, xi)
    lower = BarrierSpec(pieces=((0.0, -0.3),),
                        stochastic=lambda t, w, c: w - 0.5 * c[:, 0] + 0.25 * t)
    upper = BarrierSpec(pieces=((0.0, 0.3),),
                        stochastic=lambda t, w, c: w - 0.5 * c[:, 0] + 0.25 * t)
    check = check_mokobodski(tree, witness, lower, upper)
    assert check.passed


def test_wide_band_reduces_to_plain_solve():
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    sol = solve_reflected(tree, DriverSpec(), TerminalSpec(constant=1.0),
                          LOW, WIDE)
    for k in range(5):
        assert np.all(np.abs(sol.y[k] - 1.0) <= 1e-14)
        assert np.all(sol.lower.k[k] == 0.0)
        assert np.all(sol.upper.k[k] == 0.0)


def test_one_sided_band_matches_one_barrier_solver():
    rng = np.random.default_rng(13)
    problem = random_one_barrier(rng, max_steps=5, max_marks=1)
    tree = problem.build_tree()
    one = solve_reflected(tree, problem.driver, problem.terminal, problem.barrier)
    two = solve_reflected(tree, problem.driver, problem.terminal,
                          problem.barrier, WIDE)
    assert sup_diff(one.y, two.y) <= 1e-12
    assert sup_diff(one.lower.k, two.lower.k) <= 1e-12
    assert all(np.all(level == 0.0) for level in two.upper.k)


@pytest.mark.parametrize("a", [0.0, 0.35, -0.4])
def test_unbinding_upper_obstacle_leaves_the_one_obstacle_solve_bit_equal(a):
    # each side present is applied in turn, so an upper obstacle that never
    # binds changes no bit of Y, Z, V or K+ and books an all-zero K-
    never = BarrierSpec(pieces=((0.0, 1e6),))
    rng = np.random.default_rng(41)
    problems = [random_one_barrier(rng, max_steps=5, max_marks=2) for _ in range(8)]
    # Y ties a -0.0 obstacle with a +0.0 candidate: the sign of zero must agree too
    problems.append(ProblemSpec(num_steps=3, terminal=TerminalSpec(constant=0.0),
                                barrier=BarrierSpec(pieces=((0.0, -0.0),))))
    for problem in problems:
        tree = problem.build_tree()
        driver = replace(problem.driver, a=a)
        one = solve_reflected(tree, driver, problem.terminal, problem.barrier)
        two = solve_reflected(tree, driver, problem.terminal, problem.barrier, never)
        assert one.upper is None
        for name in ("y", "z", "v"):
            for level_one, level_two in zip(getattr(one, name), getattr(two, name)):
                assert level_one.tobytes() == level_two.tobytes(), name
        for part in ("k", "k_c", "k_d"):
            for k, (level_one, level_two) in enumerate(zip(getattr(one.lower, part),
                                                           getattr(two.lower, part))):
                assert (expand(tree, level_one, k).tobytes()
                        == expand(tree, level_two, k).tobytes()), part
        for part in ("k", "k_c", "k_d"):
            assert all(np.all(level == 0.0) for level in getattr(two.upper, part))
        assert check_solution(tree, one, driver, problem.terminal, problem.barrier).passed
        assert check_solution(tree, two, driver, problem.terminal, problem.barrier,
                              never).passed


def test_transplanted_counterexample():
    tree = build_tree(4)
    lower = BarrierSpec(pieces=((0.0, 1.0), (0.5, -10.0)))
    sol = solve_reflected(tree, DriverSpec(), TerminalSpec(constant=0.5),
                          lower, WIDE)
    for k in range(5):
        expected = 1.0 if k < 2 else 0.5
        assert np.max(np.abs(sol.y[k] - expected)) <= 1e-12
        expected_k = 0.0 if k < 2 else 0.5
        assert np.max(np.abs(sol.lower.k_d[k] - expected_k)) <= 1e-12
    assert all(np.all(level == 0.0) for level in sol.upper.k)
    picard, _ = picard_snell_solve(tree, DriverSpec(), TerminalSpec(constant=0.5),
                                   lower, WIDE, witness=constant_witness(tree, 1.0))
    assert sup_diff(picard.y, sol.y) <= 1e-10


def test_precondition_errors():
    tree = build_tree(4)
    with pytest.raises(TerminalOutsideBarriers):
        solve_reflected(tree, DriverSpec(), TerminalSpec(constant=20.0),
                        LOW, WIDE)
    touching = BarrierSpec(pieces=((0.0, 10.0),))
    with pytest.raises(BarriersTouch):
        solve_reflected(tree, DriverSpec(), TerminalSpec(constant=10.0),
                        touching, WIDE)
    with pytest.raises(DriverNotCoefficientFree):
        picard_snell_solve(tree, DriverSpec(a=0.5), TerminalSpec(constant=0.0),
                           LOW, WIDE)
    with pytest.raises(MokobodskiFailed):
        picard_snell_solve(tree, DriverSpec(), TerminalSpec(constant=0.0),
                           BarrierSpec(pieces=((0.0, 1.0), (0.5, -10.0))), WIDE,
                           witness=constant_witness(tree, 0.0))


def test_wide_band_fixed_point_is_trivial():
    tree = build_tree(3)
    sol, trace = picard_snell_solve(tree, DriverSpec(), TerminalSpec(constant=2.0),
                                    LOW, WIDE)
    assert trace.iterations == 1
    for level in sol.y:
        assert np.all(np.abs(level - 2.0) <= 1e-13)


def test_brownian_band_cross_algorithm_agreement():
    tree = build_tree(5)
    lower = BarrierSpec(pieces=((0.0, -1.0),), stochastic=lambda t, w, c: w)
    upper = BarrierSpec(pieces=((0.0, 1.0),), stochastic=lambda t, w, c: w)
    xi = TerminalSpec(payoff=lambda w, c: w)
    witness = martingale_witness(tree, xi)
    direct = solve_reflected(tree, DriverSpec(), xi, lower, upper)
    picard, trace = picard_snell_solve(tree, DriverSpec(), xi, lower, upper,
                                       witness=witness)
    assert sup_diff(direct.y, picard.y) <= 1e-10
    assert monotone_iterate_check(tree, trace).passed


@pytest.mark.parametrize("seed", range(6))
def test_random_band_agreement_and_monotone_iteration(seed):
    rng = np.random.default_rng(500 + seed)
    problem = random_two_barrier(rng)
    tree = problem.build_tree()
    direct = solve_reflected(tree, problem.driver, problem.terminal,
                             problem.lower, problem.upper)
    picard, trace = picard_snell_solve(tree, problem.driver, problem.terminal,
                                       problem.lower, problem.upper)
    assert sup_diff(direct.y, picard.y) <= 1e-10
    assert sup_diff(direct.z, picard.z) <= 1e-9
    assert sup_diff(direct.lower.k, picard.lower.k) <= 1e-9
    assert sup_diff(direct.upper.k, picard.upper.k) <= 1e-9
    assert monotone_iterate_check(tree, trace).passed
    # projecting the assembled solution directly matches the piecewise route
    from rbsde.bsde import project_level
    for k in range(tree.num_steps):
        z_direct, v_direct, _ = project_level(tree, picard.y[k + 1])
        assert np.max(np.abs(z_direct - picard.z[k])) <= 1e-11
        if tree.marks.count:
            assert np.max(np.abs(v_direct - picard.v[k])) <= 1e-11


@pytest.mark.parametrize("seed", range(6))
def test_the_envelope_route_shares_k_where_the_direct_solve_does(monkeypatch, seed):
    """K shares its level before it exactly where the direct solve's does, with every K bit.

    The bits are those of accumulating the converged round's whole
    increment levels, each K level a fresh array.
    """
    import rbsde.twobarrier
    from rbsde.tree import _accumulate
    rounds = []
    envelope = rbsde.twobarrier._envelope

    def recording(tree, payoff):
        env, inc = envelope(tree, payoff)
        rounds.append([level.copy() for level in inc])
        return env, inc

    monkeypatch.setattr(rbsde.twobarrier, "_envelope", recording)
    rng = np.random.default_rng(500 + seed)
    problem = random_two_barrier(rng)
    tree = problem.build_tree()
    obstacles = problem.lower, problem.upper
    direct = solve_reflected(tree, problem.driver, problem.terminal, *obstacles)
    picard, _ = picard_snell_solve(tree, problem.driver, problem.terminal, *obstacles)
    shared = 0
    for side, routed, whole in ((direct.lower, picard.lower, rounds[-2]),
                                (direct.upper, picard.upper, rounds[-1])):
        k_direct = list(side.k)   # one read of every level shares them as the nodes do
        same = [k_direct[k + 1] is k_direct[k] for k in range(tree.num_steps)]
        assert [routed.k[k + 1] is routed.k[k] for k in range(tree.num_steps)] == same
        shared += sum(same)
        for k, level in enumerate(_accumulate(whole)):
            assert np.array_equal(expand(tree, routed.k[k], k).view(np.int64),
                                  expand(tree, level, k).view(np.int64)), k
    assert shared


def test_step_complementarity_where_separated():
    rng = np.random.default_rng(88)
    for _ in range(4):
        problem = random_two_barrier(rng)
        tree = problem.build_tree()
        sol = solve_reflected(tree, problem.driver, problem.terminal,
                              problem.lower, problem.upper)
        for k in range(tree.num_steps):
            inc_p, inc_m = (expand(tree, side.k[k + 1], k + 1) - expand(tree, side.k[k], k + 1)
                            for side in (sol.lower, sol.upper))
            assert np.max(inc_p * inc_m) <= 1e-15


def test_monotone_iterate_check_rejects_doctored_trace():
    tree = build_tree(4)
    lower = BarrierSpec(pieces=((0.0, -1.0),), stochastic=lambda t, w, c: 0.2 * w)
    upper = BarrierSpec(pieces=((0.0, 1.0),), stochastic=lambda t, w, c: 0.2 * w)
    xi = TerminalSpec(payoff=lambda w, c: 0.2 * w)
    _, trace = picard_snell_solve(tree, DriverSpec(base=1.5), xi, lower, upper,
                                  witness=martingale_witness(tree, xi))
    trace.iterates[-1][0][0][0] -= 1.0
    with pytest.raises(MonotonicityViolation):
        monotone_iterate_check(tree, trace)


def test_monotone_iterate_check_catches_a_nan():
    tree = build_tree(4)
    lower = BarrierSpec(pieces=((0.0, -1.0),), stochastic=lambda t, w, c: 0.2 * w)
    upper = BarrierSpec(pieces=((0.0, 1.0),), stochastic=lambda t, w, c: 0.2 * w)
    xi = TerminalSpec(payoff=lambda w, c: 0.2 * w)
    _, trace = picard_snell_solve(tree, DriverSpec(base=1.5), xi, lower, upper,
                                  witness=martingale_witness(tree, xi))
    trace.iterates[1][1][2][3] = np.nan
    with pytest.raises(MonotonicityViolation):
        monotone_iterate_check(tree, trace)


@pytest.mark.parametrize("poison", ["constant", "one_node"])
def test_mokobodski_nan_witness_fails(poison):
    # a NaN never compares greater, so every maximum of the check keeps it
    tree = build_tree(3)
    if poison == "constant":
        witness = constant_witness(tree, np.nan)
    else:
        witness = constant_witness(tree, 1.0, 0.5)
        witness.h_prime[2][3] = np.nan
    check = check_mokobodski(tree, witness, LOW, WIDE)
    assert not check.passed
    assert "nan" in check.detail
    with pytest.raises(MokobodskiFailed, match="nan"):
        picard_snell_solve(tree, DriverSpec(), TerminalSpec(constant=0.5), LOW, WIDE,
                           witness=witness)
