"""The direct solve and the checker form only what the step reads, bit for bit.

The checker projects every slice's z and v in full (``rbsde.verify._zv``),
and the direct solve every block, but its ``_implicit_y`` returns
``rhs`` itself where a = 0.  The oracle here puts the full formula back:
every step of the solve divides by 1 - a dt.  Each draw must give the
oracle's bits: Y, K and K_d of the direct solve, every residual of the
check (NaN included), or the same ``NonFiniteData``.
The data are scaled by 2^k up to near the largest float, so that some
solves leave the float range and some blocks fail the bound.
Derandomised, so the suite is deterministic.
"""

import json
import math
import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import rbsde.reflected
from rbsde import (BarrierSpec, DriverSpec, MarkSet, NonFiniteData, TerminalSpec, build_tree,
                   check_solution, solve_reflected)
from rbsde.bsde import Projection, Solution, _project_v, _project_z
from rbsde.processes import linear_obstacle, linear_payoff
from rbsde.tree import expand
from conftest import clone_solution, node_levels

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


def _full_implicit_y(rhs, a, dt):
    return rhs / (1.0 - a * dt)


@contextmanager
def _oracle():
    """The solver with every divide made."""
    with mock.patch.object(rbsde.reflected, "_implicit_y", _full_implicit_y):
        yield


def _signed(lo, hi):
    return st.builds(lambda x, s: x * s, st.floats(lo, hi), st.sampled_from((-1.0, 1.0)))


def _coefficient():
    return st.one_of(st.just(0.0), _signed(0.05, 0.3))


def _offsets(draw, steps: int):
    cuts = sorted({0.0} | {draw(st.integers(1, steps)) / steps
                           for _ in range(draw(st.integers(0, 2)))} - {1.0})
    return tuple((t, draw(st.floats(0.15, 0.45))) for t in cuts)


@st.composite
def _problems(draw):
    """(tree, driver, terminal, obstacles): a band around E[ξ | F], or its lower side alone."""
    steps = draw(st.sampled_from((3, 1, 2, 4, 5, 6)))
    m = draw(st.sampled_from((1, 0, 2)))
    marks = MarkSet(sizes=tuple(float(i + 1) for i in range(m)),
                    intensities=tuple(draw(st.floats(0.1, 0.45)) for _ in range(m)))
    # at 2^1023 the data are near the largest float, and sums of them leave it
    scale = 2.0 ** draw(st.integers(1021, 1023) if draw(st.booleans()) else st.integers(-4, 8))
    # |a| + |b| + |c| sqrt(sum lam) < 1 at dt = 1 keeps every grid solvable
    driver = DriverSpec(base=scale * draw(_signed(0.5, 1.9)), a=draw(_coefficient()),
                        b=draw(_coefficient()), c=draw(_coefficient()))
    alpha, beta = draw(_signed(0.2, 0.5)), draw(_signed(0.3, 0.6))
    gammas = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(m))
    shift = float(np.sum(np.asarray(gammas) * marks.intensity_array))
    terminal = TerminalSpec(payoff=linear_payoff(scale * (alpha - shift), scale * beta,
                                                 tuple(scale * g for g in gammas)))
    mean = linear_obstacle(scale * alpha, scale * beta, tuple(scale * g for g in gammas),
                           compensate=marks)
    lower = BarrierSpec(pieces=tuple((t, -scale * v) for t, v in _offsets(draw, steps)),
                        stochastic=mean)
    upper = BarrierSpec(pieces=tuple((t, scale * v) for t, v in _offsets(draw, steps)),
                        stochastic=mean)
    obstacles = (lower, upper)[:draw(st.integers(1, 2))]
    return build_tree(steps, marks), driver, terminal, obstacles


def _report(report) -> str:
    return json.dumps(report.to_dict())   # repr bits: -0.0, NaN and inf are kept


def _outcome(tree, driver, terminal, obstacles):
    """The bits of the direct solve and its check, or the error the solve raises."""
    try:
        sol = solve_reflected(tree, driver, terminal, *obstacles)
    except NonFiniteData as exc:
        return "raised", str(exc)
    # the node checker's shortcuts, on the solve's levels read once
    report = _report(check_solution(tree, node_levels(tree, sol), driver, terminal, *obstacles))
    levels = [sol.y]
    for side in (sol.lower, sol.upper):
        if side is not None:
            levels += [[expand(tree, np.asarray(x), k) for k, x in enumerate(p)]
                       for p in (side.k, side.k_d)]
    return [[np.asarray(x).tobytes() for x in process] for process in levels], report


@SETTINGS
@given(_problems())
def test_the_direct_solve_and_its_check_have_the_full_formulas_bits(problem):
    outcome = _outcome(*problem)
    with _oracle():
        assert _outcome(*problem) == outcome


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_problems(), st.data())
def test_a_planted_nan_or_infinity_keeps_its_residual_bits(problem, data):
    """A copy of Y with one NaN or infinity, its Z and V stored or projected from it."""
    tree, driver, terminal, obstacles = problem
    try:
        sol = solve_reflected(tree, driver, terminal, *obstacles)
    except NonFiniteData:
        return
    planted = clone_solution(tree, sol)
    level = data.draw(st.integers(0, tree.num_steps))
    value = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    planted.y[level][data.draw(st.integers(0, tree.level_size(level) - 1))] = value
    projected = Solution(y=planted.y, z=Projection(tree, planted.y, _project_z),
                         v=Projection(tree, planted.y, _project_v),
                         lower=planted.lower, upper=planted.upper)
    for copy in (planted, projected):
        with np.errstate(all="ignore"):
            report = _report(check_solution(tree, copy, driver, terminal, *obstacles))
            with _oracle():
                assert _report(check_solution(tree, copy, driver, terminal,
                                              *obstacles)) == report
        if math.isnan(value):
            assert math.isnan(json.loads(report)["clauses"]["dynamics"]["residual"])


def _scale(tree) -> float:
    return float(np.abs(tree.branch_prob * tree.branch_db).sum()) / tree.dt


# A computed z is at most the block's largest |Y| times sum_b |p_b dB_b| / dt
# times (1 + 2^-53)^(B + 3): below this bound it is finite.
_Z_BOUND = sys.float_info.max * (1.0 - 2.0 ** -30)


def test_a_solve_whose_y_reaches_the_bound_keeps_the_full_formulas_outcome():
    """Y_N = s w with max |Y_N| * sum |p dB| / dt at the bound where z stays finite.

    Just below the bound and just above it, with b = 0 or not, the solve
    and its check give the oracle's bits.  Past the bound, with a source near the
    largest float, Y_{N-1} leaves the float range.  Each outcome, the
    residuals or the ``NonFiniteData`` level, is the oracle's.
    """
    steps = 5
    tree = build_tree(steps)
    top = _Z_BOUND / (_scale(tree) * steps * math.sqrt(tree.dt))
    for factor, base, b in ((1 - 2.0 ** -20, 0.0, 0.0), (1 + 2.0 ** -20, 0.0, 0.0),
                            (1 + 2.0 ** -20, 0.0, 0.5), (2.2, 1.5e308, 0.0)):
        terminal = TerminalSpec(payoff=linear_payoff(0.0, top * factor))
        lower = BarrierSpec(stochastic=linear_obstacle(-1.0, top * factor))
        driver = DriverSpec(base=base, a=0.25, b=b)
        outcome = _outcome(tree, driver, terminal, (lower,))
        assert (outcome[0] == "raised") == (base != 0.0)
        if base:
            assert outcome[1].startswith(f"the solution Y is not finite at level {steps - 1};")
        with _oracle():
            assert _outcome(tree, driver, terminal, (lower,)) == outcome
