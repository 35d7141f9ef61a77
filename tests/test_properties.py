"""Property tests: every direct solve passes the checker.

Problems are drawn with driver coefficients a, b, c != 0, up to two
marks, stochastic obstacles with declared jumps, and the data scaled by
1e3 or shifted by a constant.  Derandomised, so the suite is
deterministic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree,
                   check_solution_one, check_solution_two, solve_double_obstacle,
                   solve_reflected_one)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _signed(lo, hi):
    return st.builds(lambda x, s: x * s, st.floats(lo, hi), st.sampled_from((-1.0, 1.0)))


@st.composite
def _grids(draw):
    steps = draw(st.integers(1, 5))
    marks = draw(st.integers(0, 2))
    mark_set = MarkSet(sizes=tuple(float(i + 1) for i in range(marks)),
                       intensities=tuple(draw(st.floats(0.1, 0.45)) for _ in range(marks)))
    # |a| + |b| + |c| sqrt(sum lam) < 1 at dt = 1 keeps every grid solvable
    driver = dict(a=draw(_signed(0.05, 0.3)), b=draw(_signed(0.05, 0.3)),
                  c=draw(_signed(0.05, 0.3)))
    scale = draw(st.sampled_from((1.0, 1e3)))
    shift = draw(st.sampled_from((0.0, -50.0, 7.25)))
    return steps, mark_set, driver, scale, shift


@st.composite
def _shapes(draw, marks: int):
    """Coefficients of the state part w_coeff*w + counts @ count_coeffs."""
    w_coeff = draw(st.floats(-0.8, 0.8))
    count_coeffs = np.asarray([draw(st.floats(-0.5, 0.5)) for _ in range(marks)])
    compensated = draw(st.booleans())
    return w_coeff, count_coeffs, compensated


def _state(shape, lam, scale):
    w_coeff, count_coeffs, compensated = shape

    def state(t, w, counts):
        drift = (count_coeffs @ lam) * t if compensated and lam.size else 0.0
        return scale * (w_coeff * w + counts @ count_coeffs - drift)
    return state


@st.composite
def _steps(draw, steps: int, lo: float, hi: float, scale: float, shift: float):
    """Step function with breakpoints on the grid (declared jumps) and its last value."""
    levels = sorted(draw(st.sets(st.integers(1, steps), max_size=2)))
    values = [draw(st.floats(lo, hi)) for _ in range(len(levels) + 1)]
    times = [0.0] + [level / steps for level in levels]
    pieces = tuple((t, scale * v + shift) for t, v in zip(times, values))
    return pieces, values[-1]


def _driver(draw, mark_set, coefficients, scale, g_bound):
    g = draw(st.floats(-g_bound, g_bound))
    g_late = draw(st.floats(-g_bound, g_bound))
    return DriverSpec(base=lambda t: scale * (g if t < 0.5 else g_late),
                      marks=mark_set, **coefficients)


@st.composite
def one_obstacle_problems(draw):
    steps, mark_set, coefficients, scale, shift = draw(_grids())
    shape = draw(_shapes(mark_set.count))
    state = _state(shape, mark_set.intensity_array, scale)
    pieces, last = draw(_steps(steps, -0.4, 0.6, scale, shift))
    barrier = BarrierSpec(pieces=pieces, stochastic=state)
    # the terminal dominates the obstacle at every leaf: same state part,
    # a level at or above the obstacle's last piece, plus a nonnegative kink
    level = scale * (last + draw(st.floats(0.0, 0.3))) + shift
    kink, strike = draw(st.floats(0.0, 1.0)), draw(st.floats(-0.5, 0.5))
    terminal = TerminalSpec(payoff=lambda w, counts: level + state(1.0, w, counts)
                            + scale * kink * np.maximum(w - strike, 0.0))
    driver = _driver(draw, mark_set, coefficients, scale, 1.0)
    return build_tree(steps, mark_set), driver, terminal, barrier


@st.composite
def two_obstacle_problems(draw):
    steps, mark_set, coefficients, scale, shift = draw(_grids())
    state = _state(draw(_shapes(mark_set.count)), mark_set.intensity_array, scale)
    low_pieces, _ = draw(_steps(steps, -0.5, -0.05, scale, shift))
    up_pieces, _ = draw(_steps(steps, 0.05, 0.5, scale, shift))
    lower = BarrierSpec(pieces=low_pieces, stochastic=state)
    upper = BarrierSpec(pieces=up_pieces, stochastic=state)
    level = scale * draw(st.floats(-0.05, 0.05)) + shift
    terminal = TerminalSpec(payoff=lambda w, counts: level + state(1.0, w, counts))
    # a source of a few units per time pushes Y onto both obstacles
    driver = _driver(draw, mark_set, coefficients, scale, 3.0)
    return build_tree(steps, mark_set), driver, terminal, lower, upper


@SETTINGS
@given(one_obstacle_problems())
def test_one_obstacle_solve_passes_check(problem):
    tree, driver, terminal, barrier = problem
    sol = solve_reflected_one(tree, driver, terminal, barrier)
    report = check_solution_one(tree, sol, driver, terminal, barrier)
    assert report.passed, report.to_dict()


@SETTINGS
@given(two_obstacle_problems())
def test_two_obstacle_solve_passes_check(problem):
    tree, driver, terminal, lower, upper = problem
    sol = solve_double_obstacle(tree, driver, terminal, lower, upper)
    report = check_solution_two(tree, sol, driver, terminal, lower, upper)
    assert report.passed, report.to_dict()
