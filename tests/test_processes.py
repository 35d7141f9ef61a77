"""Terminal, driver and obstacle evaluation on the tree."""

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, JumpTimeOffGrid, MarkSet, ProblemSpec,
                   TerminalSpec, build_tree, eval_barrier)
from rbsde.bsde import _driver_value
from rbsde.processes import _walk, linear_obstacle
from conftest import distinct_states


def driver_at(spec, tree, level, y, z, v):
    """The solver's driver value at the first node of ``level``, (y, z, v) given there."""
    v = np.asarray(v, dtype=float).reshape(1, tree.marks.count)
    return float(_driver_value(spec, tree, level, np.array([y]), np.array([z]), v)[0])


def test_counterexample_obstacle_values_and_left_limit():
    tree = build_tree(4)
    spec = BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0)))
    vals = eval_barrier(spec, tree)
    expected = [1.0, 1.0, 0.0, 0.0, 0.0]
    for k, e in enumerate(expected):
        assert np.all(vals.levels[k].whole() == e)
    assert vals.jump_levels == (2,)
    assert np.all(vals.left_levels[2].whole() == 1.0)


def test_constant_barrier():
    tree = build_tree(3, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    vals = eval_barrier(BarrierSpec(pieces=((0.0, -10.0),)), tree)
    assert vals.jump_levels == ()
    for level in vals.levels:
        assert np.all(level.whole() == -10.0)


def test_brownian_barrier_tracks_node_state():
    tree = build_tree(2)
    vals = eval_barrier(BarrierSpec(stochastic=lambda t, w, c: w), tree)
    for k in range(3):
        assert np.array_equal(vals.levels[k].whole(), tree.w[k])


def test_declared_jump_off_grid_rejected():
    tree = build_tree(4)
    spec = BarrierSpec(pieces=((0.0, 1.0),), jumps=((0.3, 1.0),))
    with pytest.raises(JumpTimeOffGrid):
        eval_barrier(spec, tree)


def test_right_continuity_at_declared_jumps():
    tree = build_tree(4)
    spec = BarrierSpec(pieces=((0.0, 2.0), (0.25, -1.0), (0.75, 0.5)))
    vals = eval_barrier(spec, tree)
    # value at the jump time is the right value, the left table keeps the limit
    assert np.all(vals.levels[1].whole() == -1.0)
    assert np.all(vals.left_levels[1].whole() == 2.0)
    assert np.all(vals.levels[3].whole() == 0.5)
    assert np.all(vals.left_levels[3].whole() == -1.0)


def test_driver_zero_and_source_examples():
    assert driver_at(DriverSpec(), build_tree(10), 3, 4.0, -2.0, ()) == 0.0
    stepped = DriverSpec(base=lambda t: 1.0 if t >= 0.5 else -1.0, a=3.0)
    tree = build_tree(2)
    assert driver_at(stepped, tree, 0, 0.4, 0.0, ()) == pytest.approx(0.2)
    assert driver_at(stepped, tree, 1, 0.4, 0.0, ()) == pytest.approx(2.2)


def test_driver_linear_arithmetic():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    spec = DriverSpec(a=1.0, b=2.0, c=1.0, marks=marks)
    assert driver_at(spec, build_tree(2, marks), 0, 1.0, 1.0, (2.0,)) == pytest.approx(4.0)
    assert spec.lipschitz_constant == pytest.approx(1.0 + 2.0 + np.sqrt(0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b, c", [(-1e308, 1e308), (0.0, 1e308)])
def test_driver_lipschitz_constant_past_the_largest_float_is_inf(b, c):
    spec = DriverSpec(b=b, c=c, marks=MarkSet(sizes=(1.0,), intensities=(4.0,)))
    assert spec.lipschitz_constant == float("inf")


def test_driver_lipschitz_property_sampled():
    marks = MarkSet(sizes=(1.0, 2.0), intensities=(0.5, 0.25))
    lam = marks.intensity_array
    spec = DriverSpec(base=lambda t: np.sin(t), a=-0.7, b=1.3, c=-0.9, marks=marks)
    tree = build_tree(4, marks)
    c_f = spec.lipschitz_constant
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        y1, y2, z1, z2 = rng.uniform(-3, 3, 4)
        v1, v2 = rng.uniform(-3, 3, (2, 2))
        f1 = driver_at(spec, tree, 1, y1, z1, v1)
        f2 = driver_at(spec, tree, 1, y2, z2, v2)
        bound = c_f * (abs(y1 - y2) + abs(z1 - z2)
                       + np.sqrt(((v1 - v2) ** 2 * lam).sum()))
        assert abs(f1 - f2) <= bound + 1e-12


def test_terminal_kinds():
    tree = build_tree(2)
    assert np.all(TerminalSpec(constant=1.5).evaluate(tree) == 1.5)
    payoff = TerminalSpec(payoff=lambda w, c: np.maximum(w, 0.0)).evaluate(tree)
    assert payoff == pytest.approx(np.maximum(tree.w[-1], 0.0))
    with pytest.raises(ValueError):
        TerminalSpec()
    with pytest.raises(ValueError):
        TerminalSpec(constant=1.0, payoff=lambda w, c: w)


def test_compensated_obstacle_matches_conditional_mean():
    marks = MarkSet(sizes=(1.0,), intensities=(0.6,))
    tree = build_tree(4, marks)
    fn = linear_obstacle(0.2, 0.5, (0.3,), compensate=marks)
    # backward conditional expectations of the terminal form reproduce it
    values = fn(1.0, tree.w[-1], tree.counts[-1])
    for k in range(tree.num_steps - 1, -1, -1):
        values = tree.cond_exp(values)
        expected = fn(tree.time(k), tree.w[k], tree.counts[k])
        assert np.max(np.abs(values - expected)) <= 1e-13


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(num_steps=2, barrier=BarrierSpec(), lower=BarrierSpec(),
                    upper=BarrierSpec())
    with pytest.raises(ValueError):
        ProblemSpec(num_steps=2, lower=BarrierSpec())
    assert ProblemSpec(num_steps=2).kind == "standard"
    assert ProblemSpec(num_steps=2, barrier=BarrierSpec()).kind == "one_barrier"


def test_barrier_spec_validation():
    with pytest.raises(ValueError):
        BarrierSpec(pieces=((0.5, 1.0),))
    with pytest.raises(ValueError):
        BarrierSpec(pieces=((0.0, 1.0), (0.2, 2.0), (0.2, 3.0)))
    with pytest.raises(ValueError):
        BarrierSpec(jumps=((0.0, 1.0),))


# the last case has a finite offset whose left limit overflows
@pytest.mark.parametrize("value,offset", [(-0.2, np.nan), (-0.2, np.inf), (-0.2, -np.inf),
                                          (-1e308, -1e308)])
def test_non_finite_jump_offset_or_left_limit_is_rejected(value, offset):
    with pytest.raises(ValueError, match="offsets must be finite"):
        BarrierSpec(pieces=((0.0, 0.0), (0.5, value)), jumps=((0.5, offset),))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_stochastic_left_limit_is_rejected(bad):
    # finite at every node of every level; the left limit at t = 2/3 reads
    # the obstacle at that time on level 1's states, w = ±sqrt(dt), where it
    # is not (level 2's states at that time are w = ±2 sqrt(dt) and 0)
    tree = build_tree(3)

    def obstacle(t, w, counts):
        return np.where((t == 2 / 3) & (np.abs(w) == tree.branch_db[0]), bad, 0.0)

    spec = BarrierSpec(stochastic=obstacle, jumps=((2 / 3, 0.1),))
    with pytest.raises(ValueError, match="left limit is not finite at level 2"):
        eval_barrier(spec, tree)


# ---------------------------------------------------------------------------
# evaluation memo: once per (tree, spec), read-only, freed with the tree


def _marks(m):
    return MarkSet(sizes=tuple(1.0 + i for i in range(m)),
                   intensities=tuple(0.3 + 0.1 * i for i in range(m)))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_memo_matches_fresh_evaluation(m):
    from rbsde.processes import linear_payoff
    marks = _marks(m)
    tree = build_tree(3, marks)
    coeffs = tuple(0.2 + 0.1 * i for i in range(m))
    barrier = BarrierSpec(pieces=((0.0, 1.0), (1 / 3, -0.5)),
                          stochastic=linear_obstacle(0.1, 0.4, coeffs, compensate=marks))
    terminal = TerminalSpec(payoff=linear_payoff(0.3, -0.2, coeffs))

    first, second = eval_barrier(barrier, tree), eval_barrier(barrier, tree)
    assert second is first
    fresh, = _walk(tree, [barrier]).nodes(tree)
    assert all(np.array_equal(a.whole(), b.whole()) for a, b in zip(first.levels, fresh.levels))
    assert first.jump_levels == fresh.jump_levels == (1,)
    assert np.array_equal(first.left_levels[1].whole(), fresh.left_levels[1].whole())

    assert terminal.evaluate(tree) is terminal.evaluate(tree)
    fresh, = _walk(tree, [terminal]).nodes(tree)
    assert np.array_equal(terminal.evaluate(tree), fresh)
    # another tree of the same shape gets its own evaluation
    assert terminal.evaluate(build_tree(3, marks)) is not terminal.evaluate(tree)


def test_memo_arrays_are_read_only():
    tree = build_tree(2)
    obstacle = eval_barrier(BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0)),
                                        stochastic=lambda t, w, c: w), tree)
    with pytest.raises(ValueError):
        obstacle.levels[1].part[0] = 5.0
    with pytest.raises(ValueError):
        obstacle.left_levels[1].part[0] = 5.0
    with pytest.raises(TypeError):
        obstacle.left_levels[2] = obstacle.levels[1]
    with pytest.raises(ValueError):
        TerminalSpec(constant=0.5).evaluate(tree)[0] = 1.0


def test_solution_terminal_is_the_read_only_leaf_evaluation():
    # a solve of data with states (direct, penalised, Picard from zero) keeps
    # Y per state and forms its Y_N on read: the leaf evaluation's bits in a
    # fresh array, whose edits reach neither the evaluation nor the solution
    from rbsde import picard_solve, solve_bsde, solve_penalized, solve_reflected
    from rbsde.fixpoint import zero_triple
    tree = build_tree(3)
    terminal = TerminalSpec(payoff=lambda w, c: np.maximum(w, 0.0) + 1.0)
    barrier = BarrierSpec(pieces=((0.0, 0.5),))
    cached = terminal.evaluate(tree)
    solutions = [solve_reflected(tree, DriverSpec(), terminal, barrier),
                 solve_reflected(tree, DriverSpec(), terminal, barrier,
                                 BarrierSpec(pieces=((0.0, 10.0),))),
                 solve_bsde(tree, DriverSpec(a=0.2), terminal),
                 solve_penalized(tree, DriverSpec(), barrier, terminal, 4.0).solution,
                 picard_solve(tree, DriverSpec(a=0.2), terminal)[0],
                 picard_solve(tree, DriverSpec(a=0.2), terminal, solver_kind="one_barrier",
                              barrier=barrier)[0]]
    for sol in solutions:
        leaf = sol.y[-1]
        assert leaf is not cached and leaf.tobytes() == cached.tobytes()
        leaf += 1.0
        assert sol.y[-1].tobytes() == cached.tobytes()
    # Picard from a start given per node runs on the nodes and keeps the shared,
    # read-only leaf evaluation as Y_N
    sol = picard_solve(tree, DriverSpec(a=0.2), terminal, initial=zero_triple(tree))[0]
    assert sol.y[-1] is cached and not sol.y[-1].flags.writeable
    with pytest.raises(ValueError):
        sol.y[-1] += 1.0
    fresh, = _walk(tree, [terminal]).nodes(tree)
    assert np.array_equal(cached, fresh)
    again = solve_reflected(tree, DriverSpec(), terminal, barrier)
    assert np.array_equal(again.y[-1], cached)


def test_memo_is_freed_with_the_tree():
    import gc
    import weakref

    from rbsde.processes import _EVALUATED
    spec = BarrierSpec(pieces=((0.0, 1.0),))
    tree = build_tree(2)
    eval_barrier(spec, tree)
    ref = weakref.ref(tree)
    assert tree in _EVALUATED
    del tree
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# evaluation path: blocked linear forms and the finiteness guard


def _old_linear_obstacle(intercept, w_coeff, coeffs, lam):
    """The whole-level broadcast formulas that the blocked forms replace."""
    coeffs = np.asarray(coeffs, dtype=float)

    def obstacle(t, w, counts):
        out = intercept + w_coeff * w
        counted = counts[:, :coeffs.size]
        if lam is not None:
            counted = counted - t * lam[None, :coeffs.size]
        return out + counted @ coeffs

    return obstacle


@pytest.mark.parametrize("m,steps", [(1, 9), (2, 7), (3, 5)])
def test_linear_forms_match_broadcast_formulas_bit_for_bit(m, steps):
    from rbsde.processes import linear_payoff
    marks = _marks(m)
    # the deepest levels span several row blocks, the last one partial for m=2
    tree = build_tree(steps, marks)
    coeffs = tuple(0.17 + 0.11 * i for i in range(m))
    compensated = linear_obstacle(-0.3, 0.45, coeffs, compensate=marks)
    old_compensated = _old_linear_obstacle(-0.3, 0.45, coeffs, marks.intensity_array)
    payoff = linear_payoff(0.25, -0.6, coeffs)
    old_payoff = _old_linear_obstacle(0.25, -0.6, coeffs, None)
    for k in range(steps + 1):
        t = tree.time(k)
        assert np.array_equal(compensated(t, tree.w[k], tree.counts[k]),
                              old_compensated(t, tree.w[k], tree.counts[k]))
    assert np.array_equal(payoff(tree.w[-1], tree.counts[-1]),
                          old_payoff(1.0, tree.w[-1], tree.counts[-1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_single_non_finite_node_is_rejected(bad):
    tree = build_tree(3, _marks(1))
    leaves = tree.level_size(3)
    three_moves = 2 * tree.branch_db[0]   # below the w of three up-moves

    def up_and_jumping(w, counts):
        """Three jumps and three up-moves: leaf ``leaves // 3``, branch 1 at every step."""
        return (counts[:, 0] == 3) & (w > three_moves)

    def down_and_jumping(w, counts):
        """Three jumps and three down-moves: the last leaf, branch B - 1 at every step."""
        return (counts[:, 0] == 3) & (w < -three_moves)

    w, counts = tree.w[3], tree.counts[3]
    assert np.flatnonzero(up_and_jumping(w, counts)).tolist() == [leaves // 3]
    assert np.flatnonzero(down_and_jumping(w, counts)).tolist() == [leaves - 1]
    with pytest.raises(ValueError, match="not finite at level 3"):
        eval_barrier(BarrierSpec(
            stochastic=lambda t, w, c: np.where(up_and_jumping(w, c), bad, 0.0)), tree)
    with pytest.raises(ValueError, match="finite on every leaf"):
        TerminalSpec(payoff=lambda w, c: np.where(down_and_jumping(w, c), bad, 0.0)).evaluate(tree)


def test_finite_values_whose_sum_overflows_are_accepted():
    tree = build_tree(3, _marks(1))
    huge = BarrierSpec(stochastic=lambda t, w, counts: np.full(len(w), 1e308))
    values = [level.whole() for level in eval_barrier(huge, tree).levels]
    assert all(np.all(level == 1e308) for level in values)
    with np.errstate(over="ignore"):
        assert np.isinf(values[-1].sum())
    leaves = TerminalSpec(payoff=lambda w, c: np.full(len(w), -1e308)).evaluate(tree)
    assert np.all(leaves == -1e308)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_constant_terminal_must_be_finite(bad):
    """As BarrierSpec does for its pieces, so no solve reports a non-finite Y instead."""
    with pytest.raises(ValueError, match="a constant terminal must be finite"):
        TerminalSpec(constant=bad)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_terminal_array_that_is_not_finite_is_named_as_the_terminal(bad):
    """Without an obstacle and with one, before any sweep or obstacle validation."""
    from rbsde import NonFiniteData, solve_reflected
    tree = build_tree(3)
    xi = np.zeros(tree.level_size(3))
    xi[5] = bad
    for obstacles in ((), (BarrierSpec(pieces=((0.0, -1.0),)),)):
        with pytest.raises(NonFiniteData, match="terminal payoff must be finite on every leaf"):
            solve_reflected(tree, DriverSpec(), xi, *obstacles)


def test_problem_obstacles_are_lower_first_and_index_the_kind():
    from rbsde.processes import KINDS
    lower, upper = BarrierSpec(pieces=((0.0, -1.0),)), BarrierSpec(pieces=((0.0, 1.0),))
    cases = ((ProblemSpec(num_steps=1), (), "standard"),
             (ProblemSpec(num_steps=1, barrier=lower), (lower,), "one_barrier"),
             (ProblemSpec(num_steps=1, lower=lower, upper=upper), (lower, upper), "two_barrier"))
    for problem, obstacles, kind in cases:
        assert len(problem.obstacles) == len(obstacles)
        assert all(got is want for got, want in zip(problem.obstacles, obstacles))
        assert problem.kind == kind == KINDS[len(obstacles)]


# ---------------------------------------------------------------------------
# obstacle levels: a deterministic base plus a stochastic part shared per walk


def _band(steps):
    """The two-obstacle band config at ``steps``: both sides' stochastic sections are equal."""
    import json
    from pathlib import Path

    from rbsde.config import parse_config
    path = Path(__file__).resolve().parent.parent / "configs" / "two_barrier_band.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    config["grid"]["steps"] = steps
    problem, _ = parse_config(config)
    return problem


def test_a_band_with_equal_sections_evaluates_its_part_once(monkeypatch):
    from collections import Counter

    from rbsde.processes import LinearObstacle, evaluate
    problem = _band(10)   # declared jumps at levels 4 (lower) and 6 (upper)
    lower, upper = problem.obstacles
    assert lower.stochastic == upper.stochastic and lower.stochastic is not upper.stochastic
    rows, calls = Counter(), Counter()
    call = LinearObstacle.__call__

    def counting(self, t, w, counts):
        rows[t] += len(w)
        calls[t] += 1
        return call(self, t, w, counts)

    monkeypatch.setattr(LinearObstacle, "__call__", counting)
    tree = problem.build_tree()
    _, low, up = evaluate(tree, None, lower, upper)
    states = [distinct_states(w, c) for w, c in tree.states()]
    # one call for both sides per level, on its distinct states, and one per
    # side's left limit, on the distinct states of its parent level
    assert rows == {tree.time(k): states[k] + (states[k - 1] if k in (4, 6) else 0)
                    for k in range(11)}
    assert calls == {tree.time(k): 1 + (k in (4, 6)) for k in range(11)}
    assert low.jump_levels == (4,) and up.jump_levels == (6,)
    for k in range(11):
        assert low.levels[k].part is up.levels[k].part
        assert not low.levels[k].part.flags.writeable
    monkeypatch.setattr(LinearObstacle, "__call__", call)
    w, counts = tree.w, tree.counts
    for spec, values in ((lower, low), (upper, up)):
        # the bits of a level stored whole as base + part
        for k in range(11):
            t = tree.time(k)
            expected = np.add(spec.deterministic_at(t), spec.stochastic(t, w[k], counts[k]))
            assert np.array_equal(values.levels[k].whole(), expected), k
        (level, offset), = spec.declared_jumps
        base = spec.deterministic_at(level) + offset
        k = round(level * 10)
        expected = np.add(base, spec.stochastic(level, w[k - 1], counts[k - 1]))
        assert np.array_equal(values.left_levels[k].whole(), expected)
        assert not values.left_levels[k].part.flags.writeable


def test_linear_obstacles_are_equal_only_bit_for_bit():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    part = linear_obstacle(0.1, 0.4, (0.2,), compensate=marks)
    assert part == linear_obstacle(0.1, 0.4, [0.2], compensate=MarkSet((1.0,), (0.5,)))
    assert hash(part) == hash(linear_obstacle(0.1, 0.4, (0.2,), compensate=marks))
    # a signed zero can change the sign of a zero value, so it is another part
    assert linear_obstacle(0.0, 0.4) != linear_obstacle(-0.0, 0.4)
    assert part != linear_obstacle(0.1, 0.4, (0.2,))


def test_a_deterministic_obstacle_holds_no_per_node_array():
    tree = build_tree(6, _marks(1))
    values = eval_barrier(BarrierSpec(pieces=((0.0, 1.0), (0.5, -0.5))), tree)
    assert values.jump_levels == (3,)
    assert all(level.part is None for level in values.levels)
    assert all(level.part is None for level in values.left_levels.values())
    assert [level.base for level in values.levels] == [1.0] * 3 + [-0.5] * 4
    assert values.left_levels[3].base == 1.0
    # whole levels are formed on read
    assert np.array_equal(values.levels[5].whole(), np.full(tree.level_size(5), -0.5))
    assert np.array_equal(values.left_levels[3].whole(), np.full(tree.level_size(2), 1.0))


@pytest.mark.parametrize("left", [False, True])
def test_a_finite_base_and_part_whose_sum_overflows_name_their_level(left):
    """Both parts finite near the largest float, their sum past it, at one level only."""
    steps = 4
    tree = build_tree(steps, _marks(1))
    # the left limit at t = 3/4 reads the states of level 2, the level itself those of
    # level 3: with sqrt(dt) = 0.5, w is a whole number on even levels only
    assert tree.branch_db[0] == 0.5

    def part(t, w, counts):
        return np.where((t == 0.75) & ((w % 1.0 == 0.0) == left), 1e308, 0.0)

    spec = BarrierSpec(pieces=((0.0, 0.0), (0.5, 1e308)), stochastic=part,
                       jumps=((0.75, 0.0),))
    name = "obstacle left limit" if left else "obstacle"
    with pytest.raises(ValueError, match=f"^{name} is not finite at level 3$"):
        eval_barrier(spec, tree)


def test_a_band_evaluation_holds_one_part_level_set():
    """Both sides of a band share one array per level: at most a block past it is held."""
    import tracemalloc

    from rbsde.processes import evaluate
    from rbsde.tree import _BLOCK_NODES
    problem = _band(10)
    tree = problem.build_tree()
    # one level set of the shared part, and each side's left limit on its parent level
    part_bytes = (tree.node_count + tree.level_size(3) + tree.level_size(5)) * 8
    assert part_bytes > 8 * 8 * _BLOCK_NODES
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        evaluate(tree, None, *problem.obstacles)
        held = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    # two level sets, one per side, would hold node_count * 8 bytes more
    assert part_bytes <= held <= part_bytes + 8 * _BLOCK_NODES, held - part_bytes


@pytest.mark.parametrize("left", [False, True])
def test_a_base_and_part_that_overflow_in_a_later_block_name_their_level(left):
    """Finite base and part whose sum overflows at one node of the last of two blocks.

    Level 17 of a 19-step tree spans two walk blocks, and only its last
    node, the all-minus path, lies below ``floor``.  With the base past the
    largest float from t = 17/19 on, level 17 is the first level named; with
    the offset of a jump at t = 18/19 the left limit stored on level 17 is.
    """
    steps = 19
    tree = build_tree(steps)
    floor = -16.5 * np.sqrt(tree.dt)

    def part(t, w, counts):
        return np.where(w < floor, 1e308, 0.0)

    if left:
        spec = BarrierSpec(stochastic=part, jumps=((18 / 19, 1e308),))
        message = "obstacle left limit is not finite at level 18"
    else:
        spec = BarrierSpec(pieces=((0.0, 0.0), (17 / 19, 1e308)), stochastic=part)
        message = "obstacle is not finite at level 17"
    with pytest.raises(ValueError, match=f"^{message}$"):
        eval_barrier(spec, tree)


def test_a_walk_keeps_each_parts_extremes_with_its_levels():
    """``ObstacleLevel.span`` is the NaN-keeping least and largest value of its part."""
    from rbsde.processes import evaluate
    tree = build_tree(17)
    floor = -16.5 * np.sqrt(tree.dt)
    spec = BarrierSpec(stochastic=lambda t, w, c: np.where(w < floor, np.nan, w * t),
                       jumps=((9 / 17, 0.1),))
    with pytest.raises(ValueError, match="^obstacle is not finite at level 17$"):
        evaluate(tree, None, spec)
    values = eval_barrier(BarrierSpec(stochastic=linear_obstacle(0.1, -0.7),
                                      jumps=((9 / 17, 0.1),)), tree)
    for level in (*values.levels, *values.left_levels.values()):
        assert level.span == (float(np.min(level.part)), float(np.max(level.part)))


def test_a_t_free_part_and_the_linear_terminal_of_its_numbers_share_one_array():
    """Where a part reads no t, it and the payoff of the same numbers give the same bits."""
    from rbsde.processes import evaluate, linear_payoff
    marks = _marks(1)
    tree = build_tree(5, marks)
    terminal = TerminalSpec(payoff=linear_payoff(0.1, 0.3, (0.2,)))
    shared = (linear_obstacle(0.1, 0.3, (0.2,)),   # counts uncompensated: no t
              linear_obstacle(0.1, 0.3, (), compensate=marks))
    xi, same, _ = evaluate(tree, terminal, BarrierSpec(stochastic=shared[0]),
                           BarrierSpec(stochastic=shared[1]))
    assert same.levels[5].part is xi and not xi.flags.writeable
    fresh = linear_payoff(0.1, 0.3, (0.2,))(tree.w[5], tree.counts[5])
    assert np.array_equal(xi, fresh)
    # a compensated part with marks reads t, and -0.0 is another number than 0.0
    xi, compensated, signed = evaluate(
        build_tree(5, marks), TerminalSpec(payoff=linear_payoff(0.0, 0.3, (0.2,))),
        BarrierSpec(stochastic=linear_obstacle(0.0, 0.3, (0.2,), compensate=marks)),
        BarrierSpec(stochastic=linear_obstacle(-0.0, 0.3, (0.2,))))
    assert compensated.levels[5].part is not xi and signed.levels[5].part is not xi
