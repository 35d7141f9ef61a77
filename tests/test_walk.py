"""The tree keeps no node state: one forward walk evaluates the problem data.

``ScenarioTree.states()`` must give the bits of the eager level chain,
and so must the depth-first blocks of ``_node_blocks``, for the node
state and the checker's node probabilities alike, building each row
once.  One solve must walk the states once for the terminal and every
obstacle together.  The walk reads a level larger than one block in
blocks, with the bits of the eager chain, holds no leaf state, and
builds no state that no spec reads.  A function that returns or keeps
its input must not reach a later level or a memoised result, and a tree
must be freed without the cyclic collector.
"""

import collections
import gc
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

import rbsde.tree
import rbsde.processes
import rbsde.verify
from rbsde import (BarrierSpec, DriverSpec, MarkSet, NonFiniteData, TerminalSpec, build_tree,
                   check_solution, eval_barrier, picard_snell_solve, regularity_check, snell,
                   solve_penalized, solve_reflected, sweep)
from rbsde.config import load_config
from rbsde.processes import _walk, call_payoff, evaluate, linear_obstacle, linear_payoff
from rbsde.reflected import obstacle_payoff
from rbsde.tree import (_BLOCK_ALIGN, _BLOCK_NODES, _branch_pass, _count_pass, _node_blocks,
                        _parent_rows, _prob_step, _state_root, _state_step)

# (marks, steps) whose deepest parent level spans several parent blocks
SHAPES = ((0, 17), (1, 9), (2, 7))
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _marks(m):
    return MarkSet(sizes=tuple(1.0 + i for i in range(m)),
                   intensities=tuple(0.3 + 0.2 * i for i in range(m)))


def _eager_levels(tree):
    """w, counts and atom_prob built level by level and all kept, as a tree once held them."""
    w, counts, atom = [np.zeros(1)], [np.zeros((1, tree.marks.count))], [np.ones(1)]
    for _ in range(tree.num_steps):
        w.append(_branch_pass(np.add, w[-1], tree.branch_db))
        counts.append(_count_pass(counts[-1], tree.branching))
        atom.append(_branch_pass(np.multiply, atom[-1], tree.branch_prob))
    return w, counts, atom


@pytest.mark.parametrize("m,steps", SHAPES)
def test_states_match_the_eager_chain(m, steps):
    tree = build_tree(steps, _marks(m))
    w, counts, _ = _eager_levels(tree)
    walked = list(tree.states())
    assert len(walked) == steps + 1
    for k, (w_k, counts_k) in enumerate(walked):
        assert np.array_equal(w_k, w[k]) and np.array_equal(counts_k, counts[k])
        assert not w_k.flags.writeable and not counts_k.flags.writeable


def _walked(tree, roots, step):
    """Each level's ``(rows, values)`` blocks from ``_node_blocks``, in the order yielded."""
    levels = [[] for _ in range(tree.num_steps + 1)]
    for k, rows, *values in _node_blocks(tree, tree.num_steps, roots, step):
        levels[k].append((rows, values))
    return levels


# ten branches: 2**16 is no multiple of the parent slices' children
@pytest.mark.parametrize("m,steps", SHAPES + ((4, 5),))
def test_node_blocks_cover_each_row_once_with_the_eager_bits(m, steps):
    tree = build_tree(steps, _marks(m))
    assert tree.level_size(steps) > _BLOCK_NODES
    w, counts, atom = _eager_levels(tree)
    for roots, step, eager in ((_state_root(tree), _state_step, (w, counts)),
                               ((np.ones(1),), _prob_step, (atom,))):
        for k, blocks in enumerate(_walked(tree, roots, step)):
            starts = [rows.start for rows, _ in blocks]
            stops = [rows.stop for rows, _ in blocks]
            # left to right, each row once
            assert starts == [0] + stops[:-1] and stops[-1] == tree.level_size(k), k
            for rows, values in blocks:
                assert rows.start % _BLOCK_ALIGN == 0 and rows.stop - rows.start <= _BLOCK_NODES
                assert len(values) == len(eager)
                for value, level in zip(values, eager):
                    assert np.array_equal(value, level[k][rows]), (k, rows)
                    assert not value.flags.writeable


# (marks, steps) whose last parent level is larger than one block, so a
# block of leaves runs the chain over two levels
@pytest.mark.parametrize("m,steps", [(0, 19), (1, 10), (2, 8)])
def test_block_probabilities_match_the_eager_chain(m, steps):
    tree = build_tree(steps, _marks(m))
    atom = [np.ones(1)]
    for _ in range(steps):
        atom.append(_branch_pass(np.multiply, atom[-1], tree.branch_prob))
    assert tree.level_size(steps - 1) > _BLOCK_NODES
    for k, rows, prob in _node_blocks(tree, steps, (np.ones(1),), _prob_step):
        assert np.array_equal(prob, atom[k][rows]), (k, rows)
    # the walk builds no level of the tree's own probabilities
    assert len(tree.atom_prob._levels) == 1


def _counting_walks(monkeypatch):
    """Rows each step function of ``_node_blocks`` builds, from the evaluation and the checker."""
    built = collections.Counter()

    def counting(tree, last, roots, step):
        def counted(tree, *parents):
            children = step(tree, *parents)
            built[step.__name__] += len(children[0])
            return children
        return _node_blocks(tree, last, roots, counted)

    for module in (rbsde.processes, rbsde.verify):
        monkeypatch.setattr(module, "_node_blocks", counting)
    return built


# (marks, steps) whose deepest two levels are each larger than one block
@pytest.mark.parametrize("m,steps", [(0, 18), (1, 10)])
def test_evaluation_and_check_build_each_row_once(monkeypatch, m, steps):
    built = _counting_walks(monkeypatch)
    marks = _marks(m)
    tree = build_tree(steps, marks)
    terminal = TerminalSpec(payoff=TERMINALS["linear"](m))
    obstacle = _compensated_obstacle(marks, steps)
    driver = DriverSpec(base=0.1, marks=marks)
    sol = solve_reflected(tree, driver, terminal, obstacle)
    assert built == {"_state_step": tree.node_count - 1}
    assert check_solution(tree, sol, driver, terminal, obstacle).passed
    parents = sum(tree.level_size(k) for k in range(1, steps))
    assert built == {"_state_step": tree.node_count - 1, "_prob_step": parents}


def test_state_sequences_build_each_read_and_keep_nothing():
    tree = build_tree(4, _marks(1))
    w, counts, _ = _eager_levels(tree)
    assert len(tree.w) == len(tree.counts) == 5
    assert np.array_equal(tree.w[-1], w[4]) and np.array_equal(tree.counts[2], counts[2])
    assert all(np.array_equal(a, b) for a, b in zip(tree.w, w, strict=True))
    assert tree.w[3] is not tree.w[3]
    with pytest.raises(IndexError):
        tree.w[5]


def test_states_keep_at_most_two_levels_alive():
    tree = build_tree(12)
    refs = []
    for w, _ in tree.states():
        refs.append(weakref.ref(w))
        assert sum(ref() is not None for ref in refs) <= 2


def _arrays(obj, seen=None):
    """Every ndarray reachable from an object's attributes, lists, tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return [a for child in children for a in _arrays(child, seen)]


@pytest.mark.parametrize("m,steps", SHAPES)
def test_a_built_tree_holds_no_per_node_array(m, steps):
    tree = build_tree(steps, _marks(m))
    arrays = _arrays(tree)
    assert len(arrays) >= 5   # the branch tables and the root's probability
    # the (B, m) branch tables are the largest arrays a tree may hold
    assert max(a.size for a in arrays) <= tree.branching * max(m, 1)


def _counted(fn, calls):
    def counting(*args):
        calls.append(len(args[-2]))   # the level of the state read, by its node count
        return fn(*args)
    return counting


def _band_problem(marks, calls):
    coeffs = (0.2, -0.1)
    mean = linear_obstacle(0.0, 0.3, coeffs, compensate=marks)
    terminal = TerminalSpec(payoff=_counted(linear_payoff(0.0, 0.3, coeffs), calls["payoff"]))
    lower = BarrierSpec(pieces=((0.0, -0.3), (1 / 3, -0.6), (5 / 6, -0.4)),
                        stochastic=_counted(mean, calls["lower"]))
    upper = BarrierSpec(pieces=((0.0, 0.5), (1 / 2, 0.3)),
                        stochastic=_counted(mean, calls["upper"]))
    return DriverSpec(base=0.2, marks=marks), terminal, lower, upper


def test_one_walk_evaluates_every_function_once_per_level(monkeypatch):
    steps, marks = 6, _marks(2)
    tree = build_tree(steps, marks)
    calls = {"payoff": [], "lower": [], "upper": []}
    driver, terminal, lower, upper = _band_problem(marks, calls)
    walks = []
    walk = rbsde.processes._walk

    def counting_walk(tree, specs):
        walks.append(tree)
        return walk(tree, specs)

    monkeypatch.setattr(rbsde.processes, "_walk", counting_walk)
    sizes = [tree.level_size(k) for k in range(steps + 1)]
    for _ in range(2):
        sol = solve_reflected(tree, driver, terminal, lower, upper)
        assert check_solution(tree, sol, driver, terminal, lower, upper).passed
        sol = solve_reflected(tree, driver, terminal, lower)
        assert check_solution(tree, sol, driver, terminal, lower).passed
    assert len(walks) == 1
    # every row once: each level of at most one parent slice whole, the
    # leaves below them in parent slices, then each declared left limit
    # from its parent level
    width = _parent_rows(tree)
    leaves = [min(width, sizes[-1] - lo) for lo in range(0, sizes[-1], width)]
    assert len(leaves) > 1 and sizes[-2] <= width
    assert sorted(calls["lower"]) == sorted(sizes[:-1] + leaves + [sizes[1], sizes[4]])
    assert sorted(calls["upper"]) == sorted(sizes[:-1] + leaves + [sizes[2]])
    assert calls["payoff"] == leaves
    left = eval_barrier(lower, tree).left_levels
    assert {k: len(v.whole()) for k, v in left.items()} == {2: sizes[1], 5: sizes[4]}
    # a check, a penalised solve or an envelope payoff on a tree no solve
    # saw walks its states once too
    assert check_solution(build_tree(steps, marks), sol, driver, terminal, lower).passed
    solve_penalized(build_tree(steps, marks), driver, lower, terminal, 4.0)
    obstacle_payoff(build_tree(steps, marks), driver, terminal, lower)
    assert len(walks) == 4


def test_functions_that_alias_or_keep_their_input_change_nothing():
    steps, marks = 5, _marks(1)
    tree = build_tree(steps, marks)
    w, _, _ = _eager_levels(tree)
    kept = []

    def keeping(w_leaf, counts):
        kept.append(w_leaf)
        return np.abs(w_leaf)

    aliasing = BarrierSpec(pieces=((0.0, 0.0), (3 / 5, -1.0)), stochastic=lambda t, w, c: w)
    terminal = TerminalSpec(payoff=keeping)
    solve_reflected(tree, DriverSpec(), terminal, aliasing)
    values = eval_barrier(aliasing, tree)
    leaves = terminal.evaluate(tree)
    with pytest.raises(ValueError):
        kept[0][0] = 99.0   # the kept state is read-only
    fresh = _walk(tree, [aliasing])[0]
    for k in range(steps + 1):
        base = 0.0 if k < 3 else -1.0
        assert np.array_equal(values.levels[k].whole(), base + w[k])
        assert np.array_equal(fresh.levels[k].whole(), values.levels[k].whole())
    assert np.array_equal(values.left_levels[3].whole(), w[2])
    assert np.array_equal(fresh.left_levels[3].whole(), w[2])
    assert np.array_equal(leaves, np.abs(w[steps]))
    assert np.array_equal(kept[0], w[steps])
    assert np.array_equal(_walk(tree, [terminal])[0], leaves)


# (marks, steps) whose last level is larger than one block; at (0, 18) the
# level before it is too, so a left limit at the horizon is read in blocks
BLOCKED_SHAPES = SHAPES + ((0, 18),)
TERMINALS = {"linear": lambda m: linear_payoff(0.1, 0.3, (0.2, -0.1)[:m]),
             "call": lambda m: call_payoff(0.05, 0.7)}


def _compensated_obstacle(marks, steps):
    """A compensated linear obstacle with declared jumps mid-horizon and at the horizon."""
    middle = (steps // 2) / steps
    return BarrierSpec(pieces=((0.0, -0.3), (middle, -0.6), (1.0, -0.4)),
                       stochastic=linear_obstacle(0.0, 0.3, (0.2, -0.1)[:marks.count],
                                                  compensate=marks))


@pytest.mark.parametrize("terminal_kind", sorted(TERMINALS))
@pytest.mark.parametrize("m,steps", BLOCKED_SHAPES)
def test_blocked_walk_matches_the_eager_chain(m, steps, terminal_kind):
    marks = _marks(m)
    tree = build_tree(steps, marks)
    assert tree.level_size(steps) > _BLOCK_NODES
    terminal = TerminalSpec(payoff=TERMINALS[terminal_kind](m))
    obstacle = _compensated_obstacle(marks, steps)
    xi, values = evaluate(tree, terminal, obstacle)
    w, counts, _ = _eager_levels(tree)
    assert np.array_equal(xi, np.asarray(terminal.payoff(w[-1], counts[-1]), dtype=float))
    for k in range(steps + 1):
        t = tree.time(k)
        expected = obstacle.deterministic_at(t) + obstacle.stochastic(t, w[k], counts[k])
        assert np.array_equal(values.levels[k].whole(), expected), k
    assert values.jump_levels == (steps // 2, steps)
    for level in values.jump_levels:
        t = tree.time(level)
        base = obstacle.deterministic_at(t) + dict(obstacle.declared_jumps)[t]
        expected = base + obstacle.stochastic(t, w[level - 1], counts[level - 1])
        assert np.array_equal(values.left_levels[level].whole(), expected), level


def test_blocks_start_on_the_alignment_and_cover_each_level():
    for m, steps in BLOCKED_SHAPES:
        tree = build_tree(steps, _marks(m))
        for k, level in enumerate(_walked(tree, (np.ones(1),), _prob_step)):
            blocks = [rows for rows, _ in level]
            assert blocks[0].start == 0 and blocks[-1].stop == tree.level_size(k)
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert all(b.start % _BLOCK_ALIGN == 0 and b.stop - b.start <= _BLOCK_NODES
                       for b in blocks)


def test_a_value_that_is_not_finite_only_in_the_last_block_names_its_level():
    steps = 17
    tree = build_tree(steps)
    blocks = _walked(tree, (np.ones(1),), _prob_step)[steps]
    assert len(blocks) > 1
    # only the last leaf, the all-minus path, lies below this line
    floor = -(steps - 0.5) * np.sqrt(tree.dt)
    obstacle = BarrierSpec(stochastic=lambda t, w, c: np.where(w < floor, np.inf, 0.0))
    with pytest.raises(NonFiniteData, match=f"obstacle is not finite at level {steps}$"):
        eval_barrier(obstacle, tree)
    terminal = TerminalSpec(payoff=lambda w, c: np.where(w < floor, np.nan, w))
    with pytest.raises(NonFiniteData, match="terminal payoff must be finite on every leaf"):
        terminal.evaluate(tree)


def test_the_walk_holds_no_leaf_state():
    """Above its outputs, the walk peaks at the kept level, one block and a function's blocks.

    At one mark ``w`` and ``counts`` take one block each at the kept level
    and at a block of leaves, and a compensated linear function two more
    (its result and its shifted counts): six blocks of 2**16 values.  The
    leaf level's state alone would be eight.
    """
    steps, marks = 9, _marks(1)
    tree = build_tree(steps, marks)
    block = _BLOCK_NODES * 8
    assert 2 * tree.level_size(steps) * 8 >= 8 * block
    mean = linear_obstacle(0.0, 0.3, (0.2,), compensate=marks)
    terminal = TerminalSpec(payoff=linear_payoff(0.0, 0.3, (0.2,)))
    lower = BarrierSpec(pieces=((0.0, -0.3), (1 / 3, -0.6), (1.0, -0.4)), stochastic=mean)
    upper = BarrierSpec(pieces=((0.0, 0.5), (2 / 3, 0.3)), stochastic=mean)
    tracemalloc.start()
    try:
        outputs = evaluate(tree, terminal, lower, upper)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outputs[1].jump_levels == (3, 9)
    # the outputs: the two sides' one shared part and the terminal's leaves
    assert held >= (tree.node_count + tree.level_size(steps)) * 8
    assert peak - held <= 6.5 * block, (peak - held) / block


def test_constant_data_build_no_state(monkeypatch):
    built = []

    def counting(fn):
        def counted(*args):
            built.append(fn.__name__)
            return fn(*args)
        return counted

    for name in ("_branch_pass", "_count_pass"):
        monkeypatch.setattr(rbsde.tree, name, counting(getattr(rbsde.tree, name)))
    steps = 9
    tree = build_tree(steps, _marks(1))
    step = BarrierSpec(pieces=((0.0, 1.0), (1 / 3, 0.0)))
    xi, values = evaluate(tree, TerminalSpec(constant=0.5), step)
    assert built == []
    assert np.all(xi == 0.5) and len(xi) == tree.level_size(steps)
    for k, level in enumerate(values.levels):
        whole = level.whole()
        assert len(whole) == tree.level_size(k) and np.all(whole == (1.0 if k < 3 else 0.0))
    left = values.left_levels[3].whole()
    assert np.all(left == 1.0) and len(left) == tree.level_size(2)
    # a payoff reads the leaves, so the same tree builds their state
    evaluate(tree, TerminalSpec(payoff=lambda w, c: w))
    assert "_branch_pass" in built and "_count_pass" in built


def test_k_c_is_k_itself_exactly_where_k_d_is_positive_zero():
    """K_c shares K's array at the levels where K_d is +0.0, and is a fresh array elsewhere."""
    steps, marks = 8, _marks(1)
    tree = build_tree(steps, marks)
    driver, terminal = DriverSpec(marks=marks), TerminalSpec(constant=0.5)
    # the solution sits on the obstacle until its drop at t = 1/2, where K_d books it
    barrier = BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0)))
    sol = solve_reflected(tree, driver, terminal, barrier)
    comp = sol.lower
    zero = [not level.view(np.uint64).any() for level in comp.k_d]
    assert zero == [True] * 4 + [False] * 5
    for k, (k_c, k_total) in enumerate(zip(comp.k_c, comp.k)):
        assert (k_c is k_total) == zero[k], k
        if not zero[k]:
            assert not np.shares_memory(k_c, k_total)
    assert check_solution(tree, sol, driver, terminal, barrier).passed


def _run_every_route(problem):
    """A weak reference to a fresh tree after every route its kind allows has run on it."""
    tree = problem.build_tree()
    driver, terminal, obstacles = problem.driver, problem.terminal, problem.obstacles
    evaluate(tree, terminal, *obstacles)
    sol = solve_reflected(tree, driver, terminal, *obstacles)
    if obstacles:
        assert check_solution(tree, sol, driver, terminal, *obstacles).passed
    if len(obstacles) == 1:
        sweep(tree, driver, *obstacles, terminal, (1, 2))
        payoff, cum = obstacle_payoff(tree, driver, terminal, *obstacles)
        regularity_check(tree, snell(tree, payoff), cum, *obstacles)
    if len(obstacles) == 2:
        picard_snell_solve(tree, driver, terminal, *obstacles)
    return weakref.ref(tree)


@pytest.mark.parametrize("name", ["contraction", "counterexample", "two_barrier_band"])
def test_a_tree_is_freed_without_the_cyclic_collector(name):
    """No reference cycle holds a tree, or the evaluations memoised on it."""
    problem, _ = load_config(CONFIGS / f"{name}.json")
    gc.collect()
    gc.disable()
    try:
        freed = _run_every_route(problem)
        assert freed() is None
    finally:
        gc.enable()
