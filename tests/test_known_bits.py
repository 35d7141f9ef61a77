"""The direct solve and the checker form only what the step reads, bit for bit.

The checker takes a slice's z and v through ``rbsde.bsde._step_projections``,
which leaves out v where c = 0 and z where b = 0 and the block's bound
keeps z finite; the direct solve projects every block in full, but its
``_implicit_y`` returns ``rhs`` itself where a = 0.  The oracle here puts
the full formulas back: every slice of the check projects Z and V, and
every step of the solve divides by 1 - a dt.  Each draw must give the
oracle's bits: Y, K and K_d of the direct solve, every residual of the
check (NaN included), or the same ``NonFiniteData``.
The data are scaled by 2^k up to near the largest float, so that some
solves leave the float range and some blocks fail the bound.
Derandomised, so the suite is deterministic.
"""

import contextlib
import json
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import rbsde.bsde
import rbsde.reflected
import rbsde.verify
from rbsde import (BarrierSpec, DriverSpec, MarkSet, NonFiniteData, TerminalSpec, build_tree,
                   check_solution, solve_reflected)
from rbsde.bsde import _Z_LIMIT, Projection, Solution, _project_v, _project_z, _step_projections
from rbsde.processes import linear_obstacle, linear_payoff
from rbsde.tree import expand
from conftest import clone_solution, node_levels

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


def _full_projections(tree, driver):
    def zv(table):
        with np.errstate(over="ignore", invalid="ignore"):
            return _project_z(tree, table), _project_v(tree, table)
    return zv


def _full_implicit_y(rhs, a, dt):
    return rhs / (1.0 - a * dt)


@contextmanager
def _oracle():
    """The solver and the checker with every projection formed and every divide made."""
    with mock.patch.object(rbsde.verify, "_step_projections", _full_projections), \
            mock.patch.object(rbsde.reflected, "_implicit_y", _full_implicit_y):
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


def _outcome(tree, driver, terminal, obstacles, check=None):
    """The bits of the direct solve and its check, or the error the solve raises.

    ``check``, a context manager, if given, is entered around the check alone.
    """
    try:
        sol = solve_reflected(tree, driver, terminal, *obstacles)
    except NonFiniteData as exc:
        return "raised", str(exc)
    # the node checker's shortcuts, on the solve's levels read once
    with check if check is not None else contextlib.nullcontext():
        report = _report(check_solution(tree, node_levels(tree, sol), driver, terminal,
                                        *obstacles))
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


def test_a_block_at_the_bound_projects_z_and_one_below_it_does_not():
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.3,)))
    rule = _step_projections(tree, DriverSpec())
    top = _Z_LIMIT / _scale(tree)
    for y, known in ((top * (1 - 2.0 ** -20), True), (top * (1 + 2.0 ** -20), False),
                     (math.nan, False), (math.inf, False)):
        table = np.full((3, tree.branching), y)
        table[1] *= -1.0
        z, v = rule(table)
        assert v is None and (z is None) == known
        if known:
            with np.errstate(over="raise", invalid="raise"):
                assert np.all(np.isfinite(_project_z(tree, table)))
    # b != 0 projects every block, and c != 0 with marks every v
    z, v = _step_projections(tree, DriverSpec(b=0.1, c=0.1))(np.zeros((2, tree.branching)))
    assert z is not None and v is not None


def test_a_solve_whose_y_reaches_the_bound_keeps_the_full_formulas_outcome():
    """Y_N = s w with max |Y_N| * sum |p dB| / dt at the bound: the leaf slices project z.

    Just below the bound the check forms no z, and just above it each leaf
    slice projects z, with b = 0 or not.  Past the bound, with a source
    near the largest float, Y_{N-1} leaves the float range.  Each outcome, the
    residuals or the ``NonFiniteData`` level, is the oracle's.
    """
    steps = 5
    tree = build_tree(steps)
    top = _Z_LIMIT / (_scale(tree) * steps * math.sqrt(tree.dt))
    for factor, base, b, projected in ((1 - 2.0 ** -20, 0.0, 0.0, False),
                                       (1 + 2.0 ** -20, 0.0, 0.0, True),
                                       (1 + 2.0 ** -20, 0.0, 0.5, True),
                                       (2.2, 1.5e308, 0.0, True)):
        terminal = TerminalSpec(payoff=linear_payoff(0.0, top * factor))
        lower = BarrierSpec(stochastic=linear_obstacle(-1.0, top * factor))
        driver = DriverSpec(base=base, a=0.25, b=b)
        spies = []

        @contextmanager
        def spying():
            with mock.patch.object(rbsde.bsde, "_project_z", wraps=_project_z) as spy:
                spies.append(spy)
                yield

        outcome = _outcome(tree, driver, terminal, (lower,), check=spying())
        # the solve projects every block; the check, only the slices past the bound
        assert [spy.called for spy in spies] == ([] if base else [projected])
        assert (outcome[0] == "raised") == (base != 0.0)
        if base:
            assert outcome[1].startswith(f"the solution Y is not finite at level {steps - 1};")
        with _oracle():
            assert _outcome(tree, driver, terminal, (lower,)) == outcome
