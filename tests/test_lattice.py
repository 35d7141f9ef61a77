"""A direct solve sweeps the tree's distinct node states and gives the node sweep's bits.

A node's state (the bits of ``w`` and its counts) fixes its subtree, so
the direct solve of data with states runs on the tree's ``Lattice``, one
row per state, and keeps its solution there: node levels are formed on
read.  The same data handed over as the caller's own arrays (a copy of xi
and ``oracles.whole_obstacle``) have no states and are swept node by
node.  Both routes must give the same bits: Y, K and K_d as read, the
levels K and K_d share where every level is read, the pass or fail of
each clause of the check, and the same error with the same message.  The
data are scaled by 2^k up to near the largest float, so that some solves
leave the float range.  Derandomised, so the suite is deterministic.
"""

import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import rbsde.bsde
import rbsde.processes
import rbsde.reflected
import rbsde.tree
from rbsde import (BarrierSpec, BarriersTouch, DriverSpec, MarkSet, NonFiniteData,
                   TerminalBelowBarrier, TerminalOutsideBarriers, TerminalSpec, build_tree,
                   check_solution, solve_reflected)
from rbsde.bsde import _project_block
from rbsde.processes import _states, evaluate, linear_obstacle, linear_payoff
from rbsde.tree import Lattice, expand
from conftest import distinct_states, on_nodes, state_problems
from oracles import whole_obstacle

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)
REFUSALS = (NonFiniteData, TerminalBelowBarrier, TerminalOutsideBarriers, BarriersTouch)


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
            process = list(process)   # one read of every level shares them as the nodes do
            levels.append([expand(tree, np.asarray(x), k).tobytes()
                           for k, x in enumerate(process)])
            shared.append([process[j + 1] is process[j] for j in range(len(process) - 1)])
    passed = None   # the checker takes one or two obstacles
    if len(checked) > 1:
        with np.errstate(all="ignore"):
            report = check_solution(tree, sol, driver, *checked)
        passed = {name: clause.passed for name, clause in report.clauses.items()}
    return grid, (levels, shared, passed, sol)


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
    # the same bits, and levels shared alike
    assert lattice[:2] == nodes[:2]
    # Y_N is the node route's terminal array, and its bits on the lattice route
    assert nodes[3].y[-1] is xi and lattice[3].y[-1] is not xi
    # Each clause passes or fails alike, and the node route's own data check alike
    assert lattice[2] == nodes[2]
    assert _outcome(tree, driver, xi, whole, (xi, *whole))[1][2] == lattice[2]
    return None



@SETTINGS
@given(state_problems())
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


def test_a_direct_solve_sweeps_the_states_and_puts_nothing_on_the_nodes(monkeypatch):
    """m = 1, N = 8: the sweep's products read the distinct states of levels N-1 .. 0, once.

    The solve keeps Y and K's increments per state and allocates no node
    array: its traced peak, above what it was called with, is below one
    node level N - 1.  The levels read then have the bits, and K the
    levels without mass, of the node solve.
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
    assert peak < tree.level_size(steps - 1) * 8, peak
    monkeypatch.undo()
    xi, whole = _caller_owned(tree, terminal, (lower,))
    nodes = solve_reflected(tree, driver, xi, *whole)
    k, node_k = list(sol.lower.k), nodes.lower.k
    assert 0 < sum(level is not k[0] for level in k[1:]) < steps   # some levels move
    assert [level is k[j] for j, level in enumerate(k[1:])] == \
        [level is node_k[j] for j, level in enumerate(node_k[1:])]
    assert all(level is None for level in sol.lower.k_d.values)   # no jump mass kept


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
    lattice.fill(levels, tables, outs)
    for k, values, out in zip(levels, tables, outs):
        assert out.tobytes() == on_nodes(tree, values, k).tobytes(), k


@pytest.mark.parametrize("poisoned", ["terminal", "obstacle"])
def test_a_refused_evaluation_keeps_none_of_its_values(monkeypatch, poisoned):
    """Data refused as not finite leave no level array or value per state behind."""
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.4,)))
    kept = []
    fill = Lattice.fill

    def recording_fill(self, levels, values, outs):
        fill(self, levels, values, outs)
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


def test_a_fill_of_one_level_makes_no_copy_of_its_codes():
    """The walk's row codes index the tables as they are: a fill adds no code-sized array.

    m = 1, N = 8: the walk to level 7 builds it whole, 16,384 codes.  The
    fill's traced peak exceeds the walk's own by less than a quarter of
    their bytes; codes that each ``take`` first converted took a copy of
    them all.
    """
    steps = 8
    tree = build_tree(steps, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    evaluate(tree, TerminalSpec(payoff=lambda w, c: w + c[:, 0]))
    lattice = _states(tree).lattice(tree, steps)
    values = np.arange(float(lattice.level_size(steps)))
    out = np.empty(tree.level_size(steps))
    root = (np.zeros(1, dtype=np.intp),)

    def traced(run):
        gc.collect()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    def walk():
        for _ in rbsde.tree._node_blocks(lattice._nodes, steps - 1, root, lattice._child_codes):
            pass

    codes = tree.level_size(steps - 1) * np.dtype(np.intp).itemsize
    fill = traced(lambda: lattice.fill([steps], [values], [out]))
    assert fill - traced(walk) < codes // 4, (fill, codes)
    assert out.tobytes() == on_nodes(tree, values, steps).tobytes()


def test_a_level_one_row_past_a_slice_is_swept_with_the_node_bits(monkeypatch):
    """Slices of 8 rows: level 2 of the m = 1 lattice has 9 states, and no slice of one row.

    BLAS takes a product of one row with other kernels than a longer one,
    whose last bits can differ, so a last slice of one row joins the one
    before it (``rbsde.tree._parent_blocks``); no level of the tree ends in
    such a slice.
    """
    monkeypatch.setattr(rbsde.tree, "_BLOCK_NODES", 1)
    monkeypatch.setattr(rbsde.tree, "_BLOCK_ALIGN", 8)
    marks = MarkSet(sizes=(1.0,), intensities=(0.3,))
    for seed in range(30):
        rng = np.random.default_rng(seed)
        tree = build_tree(5, marks)
        g, alpha, beta = rng.uniform(-0.5, 0.5), rng.uniform(-1, 1), rng.uniform(0.3, 0.9)
        terminal = TerminalSpec(payoff=linear_payoff(alpha - 0.3 * g, beta, (g,)))
        lower = BarrierSpec(pieces=((0.0, -rng.uniform(0.05, 0.5)),),
                            stochastic=linear_obstacle(alpha, beta, (g,), compensate=marks))
        driver = DriverSpec(base=rng.uniform(-1, 1), a=0.2, b=rng.uniform(-0.3, 0.3), c=0.2)
        assert _same_on_both_grids(tree, driver, terminal, (lower,)) is None
    lattice = _states(tree).lattice(tree, 5)
    assert lattice.level_size(2) == rbsde.tree._parent_rows(lattice) + 1
    assert [rows.stop - rows.start for rows in rbsde.tree._parent_blocks(lattice, 2)] == [9]
    assert all(rows.stop - rows.start > 1 for k in range(1, 6)
               for rows in rbsde.tree._parent_blocks(tree, k))
