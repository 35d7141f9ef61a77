"""The tree keeps no node state: one forward walk evaluates the problem data.

``ScenarioTree.states()`` must give the bits of the eager level chain,
the checker's per-block node probabilities those of the eager
``AtomProbabilities`` chain, and one solve must walk the states once for the
terminal and every obstacle together.  A function that returns or keeps
its input must not reach a later level or a memoised result.
"""

import weakref

import numpy as np
import pytest

import rbsde.tree
from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree, check_solution,
                   eval_barrier, solve_penalized, solve_reflected)
from rbsde.processes import _walk, linear_obstacle, linear_payoff
from rbsde.reflected import obstacle_payoff
from rbsde.tree import (_BLOCK_NODES, _block_atom_prob, _branch_pass, _count_pass,
                        _parent_blocks)

# (marks, steps) whose deepest parent level spans several parent blocks
SHAPES = ((0, 17), (1, 9), (2, 7))


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


# (marks, steps) whose last parent level is larger than one block, so a
# block of leaves runs the chain over two levels
@pytest.mark.parametrize("m,steps", [(0, 19), (1, 10), (2, 8)])
def test_block_probabilities_match_the_eager_chain(m, steps):
    tree = build_tree(steps, _marks(m))
    atom = [np.ones(1)]
    for _ in range(steps):
        atom.append(_branch_pass(np.multiply, atom[-1], tree.branch_prob))
    assert tree.level_size(steps - 1) > _BLOCK_NODES
    for k in range(steps + 1):
        for rows in _parent_blocks(tree, k):
            assert np.array_equal(_block_atom_prob(tree, k, rows), atom[k][rows]), (k, rows)
    # unaligned slices cut ancestor runs at both ends
    for rows in (slice(3, 17), slice(5, 6), slice(tree.level_size(steps) - 7, None)):
        assert np.array_equal(_block_atom_prob(tree, steps, rows), atom[steps][rows])
    # the tree keeps the levels of at most one block of nodes, no larger one
    assert max(len(level) for level in tree.atom_prob._levels) <= _BLOCK_NODES


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
    states = rbsde.tree.ScenarioTree.states

    def counting_states(self):
        walks.append(self)
        return states(self)

    monkeypatch.setattr(rbsde.tree.ScenarioTree, "states", counting_states)
    sizes = [tree.level_size(k) for k in range(steps + 1)]
    for _ in range(2):
        sol = solve_reflected(tree, driver, terminal, lower, upper)
        assert check_solution(tree, sol, driver, terminal, lower, upper).passed
        sol = solve_reflected(tree, driver, terminal, lower)
        assert check_solution(tree, sol, driver, terminal, lower).passed
    assert len(walks) == 1
    # every level once, then each declared left limit from its parent level
    assert sorted(calls["lower"]) == sorted(sizes + [sizes[1], sizes[4]])
    assert sorted(calls["upper"]) == sorted(sizes + [sizes[2]])
    assert calls["payoff"] == [sizes[-1]]
    assert {k: len(v) for k, v in eval_barrier(lower, tree).left.items()} == {
        2: sizes[1], 5: sizes[4]}
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
        assert np.array_equal(values.values[k], base + w[k])
        assert np.array_equal(fresh.values[k], values.values[k])
    assert np.array_equal(values.left[3], w[2]) and np.array_equal(fresh.left[3], w[2])
    assert np.array_equal(leaves, np.abs(w[steps]))
    assert np.array_equal(kept[0], w[steps])
    assert np.array_equal(_walk(tree, [terminal])[0], leaves)
