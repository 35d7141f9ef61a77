"""Compensators stored by the level rule against whole-level references.

The direct solvers keep K_{k+1} as a level-k array and K_d only at the
declared jump levels.  Here the increments each solver hands to
``_accumulate`` are recorded, whole-level cumulative processes and the
jump-type split are rebuilt from them level by level in the test, and
``expand`` of every stored level must equal them bit for bit.  The
checker must also report the same on the compact solution as on its
whole-level copy.  ``expectation`` weighs a level-rule array as its
expanded level, and the sup gaps of a level both processes share read
as those of a copy.  Derandomised, so the suite is deterministic.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rbsde.reflected
import rbsde.tree
from rbsde import MarkSet, build_tree, check_solution, expand, solve_reflected
from rbsde.processes import eval_barrier
from rbsde.snell import BIND_TOL
from rbsde.tree import _max_excess, copy_process, sup_diff
from conftest import clone_solution, process_of, random_one_barrier, random_two_barrier

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _coefficients():
    return st.fixed_dictionaries({"a": st.sampled_from((0.0, 0.35, -0.4)),
                                  "b": st.floats(-0.3, 0.3), "c": st.floats(-0.3, 0.3)})


def _record_increments(monkeypatch, module):
    """Copies of the increment lists the solver accumulates, in call order."""
    recorded = []
    accumulate = module._accumulate

    def recording(increments):
        recorded.append([np.array(inc) for inc in increments])
        return accumulate(increments)

    monkeypatch.setattr(module, "_accumulate", recording)
    return recorded


def _whole_cumulative(tree, increments):
    """K_0 = 0 and K_{k+1} = expand(K_k + increments[k]), every level whole."""
    out = [np.zeros(1)]
    for k, inc in enumerate(increments):
        out.append(np.repeat(out[k] + inc, tree.branching))
    return out


def _whole_split(tree, y, k_total, obstacle, sign):
    """Whole-level K_c and K_d from the left-limit formula at declared levels."""
    k_d = [np.zeros(1)]
    for k in range(1, tree.num_steps + 1):
        parent = expand(tree, k_d[k - 1], k)
        if k not in obstacle.left_levels:
            k_d.append(parent)
            continue
        left = expand(tree, obstacle.left_levels[k].whole(), k)
        binding = np.abs(expand(tree, y[k - 1], k) - left) <= BIND_TOL
        k_d.append(parent + np.where(binding, np.maximum(sign * (left - y[k]), 0.0), 0.0))
    return [kt - kd for kt, kd in zip(k_total, k_d)], k_d


def _assert_expands_to(tree, stored, whole, name):
    assert len(stored) == len(whole) == tree.num_steps + 1
    for k, (level, reference) in enumerate(zip(stored, whole)):
        assert len(level) <= tree.level_size(k), (name, k)
        assert np.array_equal(expand(tree, level, k), reference), (name, k)


def _with_coefficients(problem, coefficients):
    return replace(problem.driver, **coefficients)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), _coefficients())
def test_one_obstacle_levels_match_whole_level_reference(seed, coefficients):
    problem = random_one_barrier(np.random.default_rng(seed), max_steps=5, max_marks=2)
    tree = problem.build_tree()
    driver = _with_coefficients(problem, coefficients)
    with pytest.MonkeyPatch.context() as patch:
        recorded = _record_increments(patch, rbsde.reflected)
        sol = solve_reflected(tree, driver, problem.terminal, problem.barrier)
    (increments,) = recorded
    k = _whole_cumulative(tree, increments)
    k_c, k_d = _whole_split(tree, sol.y, k, eval_barrier(problem.barrier, tree), +1)
    for name, whole in (("k", k), ("k_c", k_c), ("k_d", k_d)):
        _assert_expands_to(tree, process_of(sol, name), whole, name)

    compact = check_solution(tree, sol, driver, problem.terminal, problem.barrier)
    expanded = check_solution(tree, clone_solution(tree, sol), driver,
                              problem.terminal, problem.barrier)
    assert compact.to_dict() == expanded.to_dict()


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), _coefficients())
def test_two_obstacle_levels_match_whole_level_reference(seed, coefficients):
    problem = random_two_barrier(np.random.default_rng(seed), max_steps=5, max_marks=2)
    tree = problem.build_tree()
    driver = _with_coefficients(problem, coefficients)
    with pytest.MonkeyPatch.context() as patch:
        recorded = _record_increments(patch, rbsde.reflected)
        sol = solve_reflected(tree, driver, problem.terminal, problem.lower,
                              problem.upper)
    plus, minus = recorded
    k_plus, k_minus = _whole_cumulative(tree, plus), _whole_cumulative(tree, minus)
    kpc, kpd = _whole_split(tree, sol.y, k_plus, eval_barrier(problem.lower, tree), +1)
    kmc, kmd = _whole_split(tree, sol.y, k_minus, eval_barrier(problem.upper, tree), -1)
    for name, whole in (("k_plus", k_plus), ("k_minus", k_minus), ("k_plus_c", kpc),
                        ("k_plus_d", kpd), ("k_minus_c", kmc), ("k_minus_d", kmd)):
        _assert_expands_to(tree, process_of(sol, name), whole, name)

    compact = check_solution(tree, sol, driver, problem.terminal, problem.lower,
                             problem.upper)
    expanded = check_solution(tree, clone_solution(tree, sol), driver,
                              problem.terminal, problem.lower, problem.upper)
    assert compact.to_dict() == expanded.to_dict()


def test_expand_reads_an_ancestor_level():
    tree = build_tree(3)
    root, parents = np.array([2.5]), np.array([1.0, 2.0])
    assert np.array_equal(expand(tree, root, 3), np.full(8, 2.5))
    assert np.array_equal(expand(tree, parents, 2), [1.0, 1.0, 2.0, 2.0])
    assert np.array_equal(expand(tree, parents, 3), [1.0] * 4 + [2.0] * 4)
    whole = np.arange(4.0)
    assert expand(tree, whole, 2) is whole


@pytest.mark.parametrize("marks, steps", [(0, 9), (1, 5), (2, 4)])
def test_block_readers_match_expand(monkeypatch, marks, steps):
    # blocks of 64 parents, so that blocks start off the B**j grid of
    # every ancestor level when B = 6
    monkeypatch.setattr(rbsde.tree, "_BLOCK_NODES", 1)
    tree = build_tree(steps, MarkSet(sizes=tuple(range(1, marks + 1)),
                                     intensities=(0.3,) * marks))
    rng = np.random.default_rng(marks)
    stored = [rng.standard_normal(tree.level_size(j)) for j in range(steps + 1)]
    for level in range(steps):
        blocks = rbsde.tree._parent_blocks(tree, level)
        for j in range(level + 2):
            values = stored[j]
            children = expand(tree, values, level + 1).reshape(-1, tree.branching)
            for rows in blocks:
                if j <= level:
                    assert np.array_equal(rbsde.tree._block_rows(tree, values, level, rows),
                                          expand(tree, values, level)[rows])
                assert np.array_equal(
                    rbsde.tree._block_children(tree, values, level, rows), children[rows])


@pytest.mark.parametrize("marks, steps", [(0, 7), (1, 4), (2, 3)])
def test_expectation_weighs_an_ancestor_level_as_its_expansion(marks, steps):
    tree = build_tree(steps, MarkSet(sizes=tuple(range(1, marks + 1)),
                                     intensities=(0.3,) * marks))
    rng = np.random.default_rng(marks)
    for level in range(1, steps + 1):
        for j in range(level):
            stored = rng.standard_normal(tree.level_size(j)) * 10.0 ** rng.integers(-3, 4)
            whole = expand(tree, stored, level)
            want = tree.expectation(level, whole)
            assert np.float64(tree.expectation(level, stored)).tobytes() == \
                np.float64(want).tobytes()
            out = np.full(tree.level_size(level), np.nan)
            got = tree.expectation(level, stored, out=out)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert np.array_equal(out, tree.atom_prob[level] * whole)
    with pytest.raises(ValueError, match="cannot hold"):
        tree.expectation(steps, np.zeros(tree.level_size(steps) - 1))


@pytest.mark.parametrize("bad", [None, np.inf, -np.inf, np.nan])
def test_a_shared_level_reads_as_a_copy_of_it(bad):
    rng = np.random.default_rng(3)
    p = [rng.standard_normal(4 ** k) for k in range(5)]
    if bad is not None:
        p[3][17] = bad
    copy = copy_process(p)
    for gap in (sup_diff, _max_excess):
        with np.errstate(invalid="ignore"):
            want = gap(p, copy)
        got = gap(p, p)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.isnan(got) if bad is not None else got == 0.0
    # finite values whose sum overflows still read 0.0
    huge = [np.full(8, 1e308)]
    assert sup_diff(huge, huge) == 0.0 == _max_excess(huge, huge)
