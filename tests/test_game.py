"""The two-obstacle solution is the value of a Dynkin game, checked by its saddle point.

With a coefficient-free driver the maximiser stops on L, the minimiser
on U, and both collect the source on the way.  The first touches
sigma* (Y = L) and tau* (Y = U) form a saddle point: against either one
frozen, the other player's plain recursion (``oracles.saddle_replies``)
gives Y back at every node.  Derandomised, so the suite is deterministic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from rbsde import solve_reflected, sup_diff
from rbsde.processes import evaluate
from rbsde.reflected import _source_rates
from conftest import random_two_barrier
from oracles import saddle_replies

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
SADDLE_TOL = 1e-12


def _band(seed):
    problem = random_two_barrier(np.random.default_rng(seed), max_marks=2, both_sides=True)
    return problem, problem.build_tree()


def _saddle_gap(tree, problem, y) -> float:
    return max(sup_diff(reply, y)
               for reply in saddle_replies(tree, problem.driver, problem.terminal,
                                           *problem.obstacles, y))


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1))
def test_first_touches_of_both_obstacles_form_a_saddle_point(seed):
    problem, tree = _band(seed)
    sol = solve_reflected(tree, problem.driver, problem.terminal, *problem.obstacles)
    _, low, up = evaluate(tree, None, *problem.obstacles)
    before = range(tree.num_steps)
    assert any(np.any(sol.y[k] == low.values[k]) for k in before)
    assert any(np.any(sol.y[k] == up.values[k]) for k in before)
    assert _saddle_gap(tree, problem, sol.y) <= SADDLE_TOL


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1))
def test_a_solution_without_the_upper_clamp_at_one_level_fails_the_saddle_check(seed):
    problem, tree = _band(seed)
    n = tree.num_steps
    xi, low, up = evaluate(tree, problem.terminal, *problem.obstacles)
    rates = _source_rates(tree, problem.driver)

    def clamped(drop=None):
        """min(max(E[Y_{k+1}] + g_k dt, L_k), U_k), without the min at level ``drop``."""
        y = [None] * n + [xi]
        for k in range(n - 1, -1, -1):
            y[k] = np.maximum(tree.cond_exp(y[k + 1]) + rates[k] * tree.dt, low.values[k])
            if k != drop:
                y[k] = np.minimum(y[k], up.values[k])
        return y

    whole = clamped()
    assert _saddle_gap(tree, problem, whole) <= SADDLE_TOL
    mutants = {k: clamped(k) for k in range(n)}
    binding = [k for k, y in mutants.items() if sup_diff(y, whole) > 0.0]
    assert n - 1 in binding   # the source pushes Y above U at every node there
    for k in binding:
        assert _saddle_gap(tree, problem, mutants[k]) > SADDLE_TOL, k
