"""A direct solve sweeps the tree's distinct node states and gives the node sweep's bits.

A node's state (the bits of ``w`` and its counts) fixes its subtree, so
the direct solve of data with states runs on the tree's ``Lattice``, one
row per state, and expands only Y and the increment levels with mass to
the nodes.  The same data handed over as the caller's own arrays (a copy
of xi and ``oracles.whole_obstacle``) have no states and are swept node by
node.  Both routes must give the same bits: Y, K and K_d, the levels K and
K_d share, the check report, and the same error with the same message.
The data are scaled by 2^k up to near the largest float, so that some
solves leave the float range.  Derandomised, so the suite is deterministic.
"""

import gc
import json
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rbsde.bsde
import rbsde.processes
import rbsde.reflected
from rbsde import (BarrierSpec, BarriersTouch, DriverSpec, MarkSet, NonFiniteData,
                   TerminalBelowBarrier, TerminalOutsideBarriers, TerminalSpec, build_tree,
                   check_solution, solve_reflected)
from rbsde.bsde import _project_block
from rbsde.processes import _states, evaluate, linear_obstacle, linear_payoff
from rbsde.tree import Lattice, expand
from conftest import distinct_states, on_nodes
from oracles import whole_obstacle

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)
REFUSALS = (NonFiniteData, TerminalBelowBarrier, TerminalOutsideBarriers, BarriersTouch)


def _signed(lo, hi):
    return st.builds(lambda x, s: x * s, st.floats(lo, hi), st.sampled_from((-1.0, 1.0)))


def _coefficient():
    return st.one_of(st.just(0.0), _signed(0.05, 0.3))


def _side(draw, steps, scale, center, stochastic, sign):
    """An obstacle ``sign`` * a step function from ``center``, its form, or its value alone.

    Breakpoints may fall on the horizon, which declares a jump at level N,
    and the jumps may be declared outright instead, with their own offsets.
    A step of the wrong sign puts the side across the terminal or the
    other side somewhere.
    """
    cuts = sorted({0.0} | {draw(st.integers(1, steps)) / steps
                           for _ in range(draw(st.integers(0, 2)))})
    crossed = draw(st.sampled_from((None, None, *range(len(cuts)))))
    pieces = tuple((t, center.intercept * (not stochastic)
                    + sign * scale * draw(st.floats(-0.3, -0.05) if i == crossed
                                          else st.floats(0.05, 0.6)))
                   for i, t in enumerate(cuts))
    jumps = None
    if draw(st.booleans()):
        times = {draw(st.integers(1, steps)) / steps for _ in range(draw(st.integers(0, 2)))}
        jumps = tuple((t, scale * draw(st.floats(-0.3, 0.3))) for t in sorted(times))
    return BarrierSpec(pieces=pieces, stochastic=center if stochastic else None, jumps=jumps)


@st.composite
def _problems(draw):
    """(tree, driver, terminal, obstacles): zero, one or two sides around E[xi | F]."""
    m = draw(st.sampled_from((1, 0, 2)))
    steps = draw(st.integers(1, 6 - m // 2))   # 7,776 leaves at most
    marks = MarkSet(sizes=tuple(float(i + 1) for i in range(m)),
                    intensities=tuple(draw(st.floats(0.1, 0.45)) for _ in range(m)))
    # at 2^1023 the data are near the largest float, and sums of them leave it
    scale = 2.0 ** draw(st.sampled_from((0, 1023, 3, 1023, -4, 1021, 8)))
    # |a| + |b| + |c| sqrt(sum lam) < 1 at dt = 1 keeps every grid solvable
    driver = DriverSpec(base=scale * draw(_signed(0.5, 1.9)), a=draw(_coefficient()),
                        b=draw(_coefficient()), c=draw(_coefficient()))
    alpha, beta = draw(_signed(0.2, 0.5)), draw(_signed(0.3, 0.6))
    gammas = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(m))
    if draw(st.booleans()):
        # E[xi | F_t] of this payoff is the compensated form
        shift = float(np.sum(np.asarray(gammas) * marks.intensity_array))
        terminal = TerminalSpec(payoff=linear_payoff(scale * (alpha - shift), scale * beta,
                                                     tuple(scale * g for g in gammas)))
        center = linear_obstacle(scale * alpha, scale * beta,
                                 tuple(scale * g for g in gammas), compensate=marks)
        stochastic = True
    else:
        terminal = TerminalSpec(constant=scale * alpha)
        center = linear_obstacle(scale * alpha)
        stochastic = draw(st.booleans())
    sides = draw(st.sampled_from((1, 2, 0)))
    obstacles = tuple(_side(draw, steps, scale, center, stochastic, sign)
                      for sign in (-1.0, 1.0)[:sides])
    return build_tree(steps, marks), driver, terminal, obstacles


def _caller_owned(tree, terminal, obstacles):
    """The evaluated data as the caller's own: a copy of xi and whole-level obstacles."""
    xi, *values = evaluate(tree, terminal, *obstacles)
    whole = [whole_obstacle([level.whole() for level in value.levels],
                            {k: level.whole() for k, level in value.left_levels.items()})
             for value in values]
    return np.array(xi), whole


def _outcome(tree, driver, terminal, obstacles, checked):
    """The grid the direct solve swept, and its bits and check on ``checked``'s data.

    A solve that is refused gives its error and message; the grid is None
    where it was refused before a sweep.
    """
    grids = []
    sweep = rbsde.reflected._reflected_sweep

    def recording(*args, **kwargs):
        grids.append(type(kwargs["grid"]).__name__)
        return sweep(*args, **kwargs)

    with mock.patch.object(rbsde.reflected, "_reflected_sweep", recording):
        try:
            sol = solve_reflected(tree, driver, terminal, *obstacles)
        except REFUSALS as exc:
            return (grids or [None])[0], (type(exc).__name__, str(exc))
    (grid,) = grids
    levels, shared = [[y.tobytes() for y in sol.y]], []
    for side in (sol.lower, sol.upper):
        for process in () if side is None else (side.k, side.k_d):
            levels.append([expand(tree, np.asarray(x), k).tobytes()
                           for k, x in enumerate(process)])
            shared.append([process[j + 1] is process[j] for j in range(len(process) - 1)])
    report = None   # the checker takes one or two obstacles
    if len(checked) > 1:
        with np.errstate(all="ignore"):
            report = json.dumps(check_solution(tree, sol, driver, *checked).to_dict())
    return grid, (levels, shared, report, sol.y[-1])


def _same_on_both_grids(tree, driver, terminal, obstacles):
    """Solve on the lattice and on the nodes; returns the refusal, if any, both gave."""
    try:
        xi, whole = _caller_owned(tree, terminal, obstacles)
    except NonFiniteData:
        return None   # data that leave the float range are refused before a route is taken
    specs = (terminal, *obstacles)
    grid, lattice = _outcome(tree, driver, terminal, obstacles, specs)
    node_grid, nodes = _outcome(tree, driver, xi, whole, specs)
    assert grid in ("Lattice", None) and node_grid in ("ScenarioTree", None)
    if len(lattice) == 2:   # a refusal: the same error and message on both grids
        assert lattice == nodes
        # Y is tested once swept; the data before a sweep
        assert (grid is None) == (node_grid is None) == (lattice[0] != "NonFiniteData")
        return lattice[0]
    assert grid == "Lattice" and node_grid == "ScenarioTree"
    assert lattice[:3] == nodes[:3]
    # Y_N is each route's own terminal array
    assert lattice[3] is evaluate(tree, terminal)[0] and nodes[3] is xi
    # the node route's own data check alike
    assert _outcome(tree, driver, xi, whole, (xi, *whole))[1][2] == lattice[2]
    return None


@SETTINGS
@given(_problems())
def test_the_lattice_route_gives_the_node_routes_bits(problem):
    _same_on_both_grids(*problem)


TOP = 2.0 ** 1023
MARKS = MarkSet(sizes=(1.0,), intensities=(0.3,))


@pytest.mark.parametrize("case,refusal", [
    # Y_{N-1} = xi + g dt leaves the float range, with no obstacle or one below
    ("unreflected", "NonFiniteData"), ("reflected", "NonFiniteData"),
    # the sides cross at t = 1/2 only
    ("touching", "BarriersTouch"), ("below", "TerminalBelowBarrier"),
    ("outside", "TerminalOutsideBarriers")])
def test_a_refusal_has_the_node_routes_message(case, refusal):
    tree = build_tree(4, MARKS)
    form = linear_obstacle(0.0, 0.5, (0.25,), compensate=MARKS)
    terminal = TerminalSpec(payoff=linear_payoff(-0.075, 0.5, (0.25,)))
    low = BarrierSpec(pieces=((0.0, -1.0),), stochastic=form)
    high = BarrierSpec(pieces=((0.0, 1.0),), stochastic=form)
    driver, obstacles = DriverSpec(base=0.3, a=0.2, c=0.25), (low, high)
    if case in ("unreflected", "reflected"):
        driver = DriverSpec(base=1.5 * TOP, b=0.1)
        terminal = TerminalSpec(constant=TOP)
        obstacles = () if case == "unreflected" else (BarrierSpec(pieces=((0.0, -TOP),)),)
    elif case == "touching":
        obstacles = (low, BarrierSpec(pieces=((0.0, 1.0), (0.5, -1.5), (0.75, 1.0)),
                                      stochastic=form))
    elif case == "below":
        obstacles = (BarrierSpec(pieces=((0.0, -1.0), (1.0, 0.5)), stochastic=form),)
    elif case == "outside":
        obstacles = (low, BarrierSpec(pieces=((0.0, 1.0), (1.0, -0.5)), stochastic=form))
    assert _same_on_both_grids(tree, driver, terminal, obstacles) == refusal


def test_a_direct_solve_sweeps_the_states_and_puts_only_y_and_k_on_the_nodes(monkeypatch):
    """m = 1, N = 8: the sweep's products read the distinct states of levels N-1 .. 0, once.

    The solve then allocates no node array besides the Y levels 0 .. N-1
    and the increment levels with mass, which become K: its traced peak,
    above what it was called with, is their bytes and less than one level
    N - 1 more (the walk's int32 codes and their intp copies take about
    half of one).  A sweep of the nodes holds a block's mean and
    projections, each as large as the level it sweeps.
    """
    steps, marks = 8, MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(steps, marks)
    driver = DriverSpec(base=0.1, a=0.2, b=-0.3, c=0.25, marks=marks)
    terminal = TerminalSpec(payoff=lambda w, c: np.abs(w) + 0.3 * c[:, 0])
    # no declared jump, so K_d books nothing and allocates no level
    lower = BarrierSpec(pieces=((0.0, 1.2), (0.5, -0.2)), stochastic=lambda t, w, c: 0.25 * w,
                        jumps=())
    evaluate(tree, terminal, lower)   # the data are evaluated outside the traced run
    states = [distinct_states(w, counts) for w, counts in tree.states()]
    rows = []

    def recording(tree, table):
        rows.append(len(table))
        return _project_block(tree, table)

    monkeypatch.setattr(rbsde.bsde, "_project_block", recording)
    gc.collect()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sol = solve_reflected(tree, driver, terminal, lower)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert rows == states[steps - 1::-1]
    assert sum(rows) < tree.level_size(steps - 1) // 20
    k = sol.lower.k
    moving = {id(level): level for level in k[1:] if level is not k[0]}
    assert 0 < len(moving) < steps   # some levels have mass and some do not
    assert all(level is sol.lower.k_d[0] for level in sol.lower.k_d)
    y_bytes = sum(level.nbytes for level in sol.y[:-1])
    k_bytes = sum(level.nbytes for level in moving.values())
    assert y_bytes + k_bytes <= peak <= y_bytes + k_bytes + sol.y[-2].nbytes, (
        peak - y_bytes - k_bytes)


def test_a_lattice_fills_each_node_from_its_state():
    """``Lattice.fill`` gives every node of a level its state's value, bits and all."""
    tree = build_tree(5, MarkSet(sizes=(1.0, 2.0), intensities=(0.2, 0.3)))
    terminal = TerminalSpec(payoff=lambda w, c: w)
    evaluate(tree, terminal)
    lattice = _states(tree).lattice(tree, tree.num_steps)
    assert isinstance(lattice, Lattice) and lattice.num_steps == tree.num_steps
    levels, tables, outs = [], [], []
    for k, (w, counts) in enumerate(tree.states()):
        for shift in (0.5, 0.25):   # two arrays of each level
            values = np.arange(lattice.level_size(k)) + shift
            values[0] = -0.0   # its sign is kept
            levels.append(k)
            tables.append(values)
            outs.append(np.full(tree.level_size(k), np.nan))
        assert lattice.level_size(k) == distinct_states(w, counts)
    lattice.fill(tree, levels, tables, outs)
    for k, values, out in zip(levels, tables, outs):
        assert out.tobytes() == on_nodes(tree, values, k).tobytes(), k


@pytest.mark.parametrize("poisoned", ["terminal", "obstacle"])
def test_a_refused_evaluation_keeps_none_of_its_values(monkeypatch, poisoned):
    """Data refused as not finite leave no level array or value per state behind."""
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.4,)))
    kept = []
    fill = Lattice.fill

    def recording_fill(self, tree, levels, values, outs):
        fill(self, tree, levels, values, outs)
        kept.extend(weakref.ref(array) for array in (*values, *outs))

    monkeypatch.setattr(Lattice, "fill", recording_fill)
    finite = BarrierSpec(stochastic=lambda t, w, c: 0.1 * w)
    poison = BarrierSpec(stochastic=lambda t, w, c: np.where(w > 1.5, np.nan, w))
    payoff = TerminalSpec(payoff=(lambda w, c: np.where(w > 1.5, np.inf, w))
                          if poisoned == "terminal" else (lambda w, c: np.abs(w)))
    specs = (finite,) if poisoned == "terminal" else (finite, poison)
    with pytest.raises(NonFiniteData):
        evaluate(tree, payoff, *specs)
    assert kept and all(ref() is None for ref in kept)
    assert not any(id(spec) in rbsde.processes._EVALUATED.get(tree, {})
                   for spec in (payoff, *specs))


def test_a_function_that_reuses_its_output_buffer_changes_nothing():
    """A payoff or obstacle writing every call into one kept buffer evaluates as a fresh one.

    The walk calls every function before it fills any level, and the memo
    keeps the values per state that the lattice route reads, so each
    table must be the walk's own.
    """
    tree = build_tree(5, MarkSet(sizes=(1.0,), intensities=(0.4,)))
    buffer = np.empty(tree.level_size(5))

    def reusing(t, w, c):
        out = buffer[:len(w)]
        np.multiply(0.25 + t, w, out=out)
        out += 0.1 * c[:, 0]
        return out

    driver = DriverSpec(base=0.1, b=-0.2, marks=tree.marks)
    terminal = TerminalSpec(payoff=lambda w, c: np.abs(w) + 2.0)
    kept, fresh = (BarrierSpec(stochastic=fn)
                   for fn in (reusing, lambda t, w, c: (0.25 + t) * w + 0.1 * c[:, 0]))
    for spec in (kept, fresh):
        evaluate(tree, terminal, spec)
    for a, b in zip(evaluate(tree, None, kept)[1].levels, evaluate(tree, None, fresh)[1].levels):
        assert a.whole().tobytes() == b.whole().tobytes()
    sol = solve_reflected(tree, driver, terminal, kept)
    expected = solve_reflected(tree, driver, terminal, fresh)
    assert [y.tobytes() for y in sol.y] == [y.tobytes() for y in expected.y]
