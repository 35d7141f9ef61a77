"""Property tests: every direct solve passes the checker, and mirrors exactly.

Problems are drawn with driver coefficients a, b, c != 0, up to two
marks, stochastic obstacles with declared jumps, and the data scaled by
1e3 or shifted by a constant.  The mirror property maps a two-obstacle
problem (xi, L, U, g) to (-xi, -U, -L, -g).  ``_weigh``, the multiply that
stands in for width-one matrix products, must give the matrix product's
bits on extreme values.  Derandomised, so the suite is deterministic.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree,
                   check_solution, eval_barrier, solve_reflected)
from rbsde.config import parse_config
from rbsde.tree import _weigh
from conftest import clone_solution, random_two_barrier
from oracles import whole_obstacle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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
    sol = solve_reflected(tree, driver, terminal, barrier)
    report = check_solution(tree, sol, driver, terminal, barrier)
    assert report.passed, report.to_dict()


@SETTINGS
@given(two_obstacle_problems())
def test_two_obstacle_solve_passes_check(problem):
    tree, driver, terminal, lower, upper = problem
    sol = solve_reflected(tree, driver, terminal, lower, upper)
    report = check_solution(tree, sol, driver, terminal, lower, upper)
    assert report.passed, report.to_dict()


def _negated(tree, barrier):
    values = eval_barrier(barrier, tree)
    return whole_obstacle([-level.whole() for level in values.levels],
                          {k: -left.whole() for k, left in values.left_levels.items()})


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_mirrored_two_obstacle_problem_negates_the_solution(seed, coefficients):
    """(xi, L, U, g) -> (-xi, -U, -L, -g), a, b, c kept: Y, Z, V negate and K+, K- swap.

    Negation is exact in floating point and max/min trade places, so the
    mirror holds bit for bit, up to the sign of a zero.
    """
    rng = np.random.default_rng(seed)
    problem = random_two_barrier(rng, max_steps=5, max_marks=2)
    tree = problem.build_tree()
    driver = problem.driver
    if coefficients:
        a, b, c = (float(x) for x in rng.uniform(-0.3, 0.3, 3))
        driver = DriverSpec(base=driver.base, a=a, b=b, c=c, marks=driver.marks)
    sol = solve_reflected(tree, driver, problem.terminal, problem.lower, problem.upper)

    mirror = DriverSpec(base=lambda t: -driver.base_at(t), a=driver.a, b=driver.b,
                        c=driver.c, marks=driver.marks)
    xi = -problem.terminal.evaluate(tree)
    lower, upper = _negated(tree, problem.upper), _negated(tree, problem.lower)
    mirrored = solve_reflected(tree, mirror, xi, lower, upper)

    # array_equal compares by value: -0.0 equals 0.0, and NaN fails
    for name in ("y", "z", "v"):
        for ours, theirs in zip(getattr(sol, name), getattr(mirrored, name), strict=True):
            assert np.array_equal(theirs, -ours), name
    for side, swapped in ((sol.lower, mirrored.upper), (sol.upper, mirrored.lower)):
        for name in ("k", "k_c", "k_d"):
            for ours, theirs in zip(getattr(side, name), getattr(swapped, name), strict=True):
                assert np.array_equal(theirs, ours), name
    report = check_solution(tree, mirrored, mirror, xi, lower, upper)
    assert report.passed, report.to_dict()


def _scaled(config: dict, s: float) -> dict:
    """A copy of ``config`` with the terminal, the obstacles and the source g times s."""
    config = json.loads(json.dumps(config))

    def scale_state(part: dict) -> None:
        for key in ("value", "intercept", "w_coeff", "strike"):
            if key in part:
                part[key] *= s
        if "count_coeffs" in part:
            part["count_coeffs"] = [s * c for c in part["count_coeffs"]]

    def scale_pieces(rows: list) -> list:
        return [[t, s * value] for t, value in rows]

    scale_state(config["terminal"])
    barriers = [config["barrier"]] if "barrier" in config else config["barriers"].values()
    for barrier in barriers:
        for key in ("pieces", "jumps"):
            if key in barrier:
                barrier[key] = scale_pieces(barrier[key])
        if "stochastic" in barrier:
            scale_state(barrier["stochastic"])
    g = config["driver"].get("g", 0.0)
    config["driver"]["g"] = scale_pieces(g) if isinstance(g, list) else s * g
    return config


def _levels(sol) -> dict:
    """Every level of Y, Z, V and of each side's K, K_c and K_d, by name."""
    out = {name: getattr(sol, name) for name in ("y", "z", "v")}
    for side_name in ("lower", "upper"):
        side = getattr(sol, side_name)
        if side is not None:
            out.update({f"{side_name}.{name}": getattr(side, name)
                        for name in ("k", "k_c", "k_d")})
    return out


@pytest.mark.parametrize("name", ["counterexample.json", "two_barrier_band.json"])
def test_data_scaled_by_a_power_of_two_scale_the_solution_bit_for_bit(name):
    """Every datum times s = 2^e gives s times the unit solve, bit for bit.

    A power of two scales every float operation of the solve exactly, so
    this is an exact oracle for scale-relative tolerances.  The checker is
    asserted below.
    """
    config = json.loads((CONFIGS / name).read_text())
    unit_spec, _ = parse_config(config)
    tree = unit_spec.build_tree()

    def solve(spec):
        return _levels(solve_reflected(tree, spec.driver, spec.terminal, *spec.obstacles))

    unit = solve(unit_spec)
    for s in (2.0 ** -20, 2.0 ** 20, 2.0 ** 30, 2.0 ** 40):
        scaled = solve(parse_config(_scaled(config, s))[0])
        assert scaled.keys() == unit.keys()
        for process, levels in unit.items():
            for k, (got, want) in enumerate(zip(scaled[process], levels, strict=True)):
                assert _same_bits(got, s * want), (s, process, k)


@pytest.mark.parametrize("name", ["counterexample.json", "two_barrier_band.json"])
def test_data_scaled_by_a_power_of_two_pass_every_clause_on_either_grid(name):
    """The solve of data scaled by s passes every clause, per state and on the nodes.

    Past a size of about 110 the data's rounding, not ``CHECK_TOL``, bounds
    a residual (``rbsde.verify.ROUNDING_TOL``), so a defect of 1e-6 of the
    data's size still fails the dynamics at every scale.
    """
    config = json.loads((CONFIGS / name).read_text())
    tree = parse_config(config)[0].build_tree()
    for s in (2.0 ** -20, 1.0, 2.0 ** 20, 2.0 ** 30, 2.0 ** 40, 2.0 ** 500):
        spec = parse_config(_scaled(config, s))[0]
        sol = solve_reflected(tree, spec.driver, spec.terminal, *spec.obstacles)
        copy = clone_solution(tree, sol)
        for solution in (sol, copy):
            report = check_solution(tree, solution, spec.driver, spec.terminal, *spec.obstacles)
            assert report.passed, (s, report.to_dict())
        copy.y[1][0] += 1e-6 * max(s, 1.0)
        report = check_solution(tree, copy, spec.driver, spec.terminal, *spec.obstacles)
        assert not report.clauses["dynamics"].passed, s


EXTREMES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bytes wherever ``want`` is a number, and NaN at the same places."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


@st.composite
def _weighings(draw):
    width = draw(st.integers(0, 3))
    rows = draw(arrays(float, (draw(st.integers(0, 70)), width),
                       elements=st.sampled_from(EXTREMES)))
    weights = draw(arrays(float, (width,), elements=st.sampled_from(EXTREMES)))
    return rows, weights


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_weighings(), st.booleans())
def test_weigh_gives_the_matrix_product_bit_for_bit(weighing, scratch):
    rows, weights = weighing
    with np.errstate(all="ignore"):
        want = rows @ weights
        got = _weigh(rows.copy(), weights, scratch=scratch)
    assert _same_bits(got, want)


@pytest.mark.parametrize("nodes", [1, 4097, 70000])
def test_weigh_turns_a_negative_zero_product_into_positive_zero(nodes):
    # -0.0 * 1.0 and 0.0 * -2.0 are -0.0; BLAS adds them into a zeroed +0.0
    for value, weight in ((-0.0, 1.0), (0.0, -2.0), (-5e-324, 5e-324)):
        rows = np.full((nodes, 1), value)
        with np.errstate(under="ignore"):
            want = rows @ np.array([weight])
        assert not np.signbit(want).any()
        for scratch in (False, True):
            with np.errstate(under="ignore"):
                got = _weigh(rows.copy(), np.array([weight]), scratch=scratch)
            assert _same_bits(got, want)
            assert not np.signbit(got).any()


def test_weigh_reads_a_strided_column_and_writes_scratch_in_place():
    rng = np.random.default_rng(5)
    table = rng.choice(EXTREMES, size=(5000, 3))
    with np.errstate(all="ignore"):
        want = table[:, 1:2] @ np.array([-1e-300])
        assert _same_bits(_weigh(table[:, 1:2], np.array([-1e-300])), want)
        scratch = table[:, 1:2].copy()
        got = _weigh(scratch, np.array([-1e-300]), scratch=True)
    assert np.shares_memory(got, scratch) and _same_bits(got, want)
