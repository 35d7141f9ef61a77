"""Compensators stored by the level rule against whole-level references.

The direct solvers keep K_{k+1} as a level-k array and K_d only at the
declared jump levels, each only where it moves: an increment level
without mass is None, and the level it would set shares its
predecessor's array.  Here the increments each solver books are put on
the nodes, whole-level cumulative processes and the jump-type split are
rebuilt from them level by level in the test, and ``expand`` of every
level read must equal them bit for bit.  The node checker must also
report the same on the compact solution (its levels each read once) as
on its whole-level copy, bit for bit, with deep levels cut into many parent
slices and with non-finite values planted where its shortcuts would
read them.  ``expectation`` weighs a level-rule array as its
expanded level, the sup gaps of a level both processes share read as
those of a copy, and those of a level the two store at different
ancestor levels as those of the expanded levels.  Derandomised, so the
suite is deterministic.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rbsde.tree
import rbsde.verify
from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree, check_solution,
                   expand, solve_reflected)
from rbsde.processes import eval_barrier
from rbsde.snell import BIND_TOL
from rbsde.tree import _max_excess, copy_process, sup_diff, terminal_mean
from conftest import (clone_solution, node_levels, on_nodes, process_of, random_one_barrier,
                      random_two_barrier)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _coefficients():
    return st.fixed_dictionaries({"a": st.sampled_from((0.0, 0.35, -0.4)),
                                  "b": st.floats(-0.3, 0.3), "c": st.floats(-0.3, 0.3)})


def _booked_increments(tree, side):
    """The K increments a direct solve booked, put on the nodes; None for a level without mass.

    The solve keeps them per state (``rbsde.tree.StateLevels``), each
    level with mass allocated and no other.
    """
    booked = side.k.values[1:]
    assert all(inc is None or inc.any() for inc in booked)   # a NaN is mass
    return [None if inc is None else on_nodes(tree, inc, k) for k, inc in enumerate(booked)]


def _whole_cumulative(tree, increments):
    """K_0 = 0 and K_{k+1} = expand(K_k + increments[k]), every level whole.

    A level without mass (None) adds +0.0.
    """
    out = [np.zeros(1)]
    for k, inc in enumerate(increments):
        out.append(np.repeat(out[k] + (0.0 if inc is None else inc), tree.branching))
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
    sol = solve_reflected(tree, driver, problem.terminal, problem.barrier)
    k = _whole_cumulative(tree, _booked_increments(tree, sol.lower))
    k_c, k_d = _whole_split(tree, sol.y, k, eval_barrier(problem.barrier, tree), +1)
    for name, whole in (("k", k), ("k_c", k_c), ("k_d", k_d)):
        _assert_expands_to(tree, process_of(sol, name), whole, name)

    compact = check_solution(tree, node_levels(tree, sol), driver, problem.terminal,
                             problem.barrier)
    expanded = check_solution(tree, clone_solution(tree, sol), driver,
                              problem.terminal, problem.barrier)
    assert compact.to_dict() == expanded.to_dict()


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), _coefficients())
def test_two_obstacle_levels_match_whole_level_reference(seed, coefficients):
    problem = random_two_barrier(np.random.default_rng(seed), max_steps=5, max_marks=2)
    tree = problem.build_tree()
    driver = _with_coefficients(problem, coefficients)
    sol = solve_reflected(tree, driver, problem.terminal, problem.lower, problem.upper)
    k_plus, k_minus = (_whole_cumulative(tree, _booked_increments(tree, side))
                       for side in (sol.lower, sol.upper))
    kpc, kpd = _whole_split(tree, sol.y, k_plus, eval_barrier(problem.lower, tree), +1)
    kmc, kmd = _whole_split(tree, sol.y, k_minus, eval_barrier(problem.upper, tree), -1)
    for name, whole in (("k_plus", k_plus), ("k_minus", k_minus), ("k_plus_c", kpc),
                        ("k_plus_d", kpd), ("k_minus_c", kmc), ("k_minus_d", kmd)):
        _assert_expands_to(tree, process_of(sol, name), whole, name)

    compact = check_solution(tree, node_levels(tree, sol), driver, problem.terminal,
                             problem.lower, problem.upper)
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
                    whole = expand(tree, values, level)[rows]
                    assert np.array_equal(rbsde.tree._block_rows(tree, values, level, rows),
                                          whole)
                    # the checker's read of the stored values, each for ``ratio`` rows
                    read, ratio = rbsde.verify._stored(tree, values, level, rows)
                    assert np.array_equal(np.repeat(read, ratio), whole)
                later = rbsde.verify._later(tree, values, level, rows)
                assert np.array_equal(np.broadcast_to(later, children[rows].shape),
                                      children[rows])


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


@pytest.mark.parametrize("bad", [None, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("marks, steps", [(0, 8), (1, 4), (2, 3)])
def test_gaps_line_up_levels_stored_at_different_ancestors(marks, steps, bad):
    # one route's K shares a level with its predecessor and the other's does
    # not, so one level is stored at two ancestor levels: (64,) against (256,)
    # at m = 1; the gaps are those of the expanded levels, bit for bit
    tree = build_tree(steps, MarkSet(sizes=tuple(range(1, marks + 1)),
                                     intensities=(0.3,) * marks))
    rng = np.random.default_rng(marks)
    for level in range(steps + 1):
        for i, j in itertools.product(range(level + 1), repeat=2):
            a = rng.standard_normal(tree.level_size(i))
            b = rng.standard_normal(tree.level_size(j))
            if bad is not None:
                (a, b)[level % 2][-1] = bad
            whole = [expand(tree, a, level)], [expand(tree, b, level)]
            with np.errstate(invalid="ignore"):
                for gap, p, q in ((sup_diff, [a], [b]), (_max_excess, [a], [b]),
                                  (_max_excess, [b], [a])):
                    want = gap(*(whole if p[0] is a else whole[::-1]))
                    got = gap(p, q)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                        (gap.__name__, level, i, j)


# ---------------------------------------------------------------------------
# the checker on compact levels against whole-level copies, with deep levels
# cut into several 64-parent slices

# steps per mark count: level N - 1 spans 4, 16 and 21 slices of 64 parents,
# and with B = 6 the slices cut the groups of every coarser stored level
SLICED_STEPS = {0: 9, 1: 6, 2: 5}


def _report_key(report):
    """``to_dict()`` as text: NaN residuals compare equal, and every bit shows."""
    return json.dumps(report.to_dict(), sort_keys=True)


def _sliced_problem(marks, sides, jumps, coefficients):
    """A one- or two-obstacle problem on the ``SLICED_STEPS`` tree of ``marks`` marks.

    The source pushes Y down in the first half and up in the second, so it
    meets the lower obstacle early and the upper one late.  With ``jumps``
    each obstacle drops at the middle step, a declared jump after which
    K_d is positive and shared by the later levels; without, no level is
    declared.
    """
    mark_set = MarkSet(sizes=tuple(range(1, marks + 1)), intensities=(0.4,) * marks)
    steps = SLICED_STEPS[marks]
    middle = (steps // 2) / steps
    tree = build_tree(steps, mark_set)
    driver = DriverSpec(base=lambda t: -4.0 if t < middle else 0.5, marks=mark_set,
                        **({"a": 0.2, "b": 0.1, "c": 0.1 * bool(marks)} if coefficients else {}))
    terminal = TerminalSpec(payoff=lambda w, counts: np.abs(w) + 0.3 + 0.1 * counts.sum(axis=1))

    def pieces(before, after):
        return ((0.0, before), (middle, after)) if jumps else ((0.0, after),)

    lower = BarrierSpec(pieces=pieces(1.6, 0.2),
                        stochastic=lambda t, w, counts: 0.5 * w + 0.05 * counts.sum(axis=1))
    upper = BarrierSpec(pieces=pieces(2.5, 0.35),
                        stochastic=lambda t, w, counts: np.abs(w) + 0.1 * counts.sum(axis=1))
    return tree, driver, terminal, (lower, upper)[:sides]


@pytest.mark.parametrize("coefficients", [False, True], ids=["plain", "coefficients"])
@pytest.mark.parametrize("jumps", [False, True], ids=["continuous", "declared"])
@pytest.mark.parametrize("sides", [1, 2])
@pytest.mark.parametrize("marks", [0, 1, 2])
def test_checker_reads_compact_levels_as_whole_ones_across_slices(monkeypatch, marks, sides,
                                                                 jumps, coefficients):
    monkeypatch.setattr(rbsde.tree, "_BLOCK_NODES", 1)
    tree, driver, terminal, obstacles = _sliced_problem(marks, sides, jumps, coefficients)
    assert tree.level_size(tree.num_steps - 1) >= 4 * rbsde.tree._parent_rows(tree)
    sol = solve_reflected(tree, driver, terminal, *obstacles)
    compact = check_solution(tree, node_levels(tree, sol), driver, terminal, *obstacles)
    expanded = check_solution(tree, clone_solution(tree, sol), driver, terminal, *obstacles)
    assert _report_key(compact) == _report_key(expanded)
    per_state = check_solution(tree, sol, driver, terminal, *obstacles)
    assert {name: c.passed for name, c in per_state.clauses.items()} == \
        {name: c.passed for name, c in compact.clauses.items()}
    # the compensator binds, and past a declared jump K_d holds mass
    assert terminal_mean(tree, sol.lower.k) > 0.0
    assert (terminal_mean(tree, sol.lower.k_d) > 0.0) == jumps


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), _coefficients(), st.booleans())
def test_random_levels_check_alike_across_slices(seed, coefficients, two):
    rng = np.random.default_rng(seed)
    problem = (random_two_barrier(rng, max_steps=8, max_marks=2) if two
               else random_one_barrier(rng, max_steps=8, max_marks=2))
    assume(problem.marks.count < 2 or problem.num_steps <= 6)
    tree = problem.build_tree()
    driver = _with_coefficients(problem, coefficients)
    obstacles = (problem.lower, problem.upper) if two else (problem.barrier,)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rbsde.tree, "_BLOCK_NODES", 1)
        sol = solve_reflected(tree, driver, problem.terminal, *obstacles)
        compact = check_solution(tree, node_levels(tree, sol), driver, problem.terminal,
                                 *obstacles)
        expanded = check_solution(tree, clone_solution(tree, sol), driver, problem.terminal,
                                  *obstacles)
    assert _report_key(compact) == _report_key(expanded)


def _shared_k_level(tree, comp):
    """A level j >= 1 where K_d is +0.0 at every node, so K_c is K's own array, and K moves."""
    for j in range(1, tree.num_steps + 1):
        if not isinstance(comp.k_c.parts(j), tuple) and np.any(comp.k[j]):
            return j
    raise AssertionError("no level where K_c is K's own array and K moves")


def _shared_k_d_level(tree, comp):
    """A declared level j whose K_d array the levels after it share."""
    for j in range(1, tree.num_steps):
        if comp.k_d[j] is comp.k_d[j + 1] and comp.k_d[j] is not comp.k_d[0]:
            return j
    raise AssertionError("no K_d level shared by a later one")


def _still_slice(tree, comp):
    """A parent slice ``(k, rows)`` of level k where every K increment is +0.0.

    K_d is +0.0 at k and k + 1, so K_c is K's own array there: the slice's
    continuous-type mass is zero wherever the slack is finite.
    """
    for k in range(tree.num_steps):
        if any(isinstance(comp.k_c.parts(j), tuple) for j in (k, k + 1)):
            continue
        still = expand(tree, comp.k[k + 1], k) - expand(tree, comp.k[k], k) == 0.0
        for rows in rbsde.tree._parent_blocks(tree, k):
            if still[rows].all():
                return k, rows
    raise AssertionError("no slice without K increments")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where, failing", [
    ("k shared by k_c", {"compensator_monotone"}),
    ("k_d shared by later levels", {"jump_formula_d", "compensator_monotone"}),
    ("slack of zero mass", {"dynamics", "skorokhod_c"}),
])
@pytest.mark.parametrize("marks", [0, 2])
def test_non_finite_values_fail_alike_on_compact_and_whole_levels(monkeypatch, marks, where,
                                                                  failing, bad):
    monkeypatch.setattr(rbsde.tree, "_BLOCK_NODES", 1)
    # a declared jump gives K_d levels that later levels share; the slack
    # case needs a slice where K_c is K's own array, so no level is declared
    jumps = where != "slack of zero mass"
    tree, driver, terminal, (barrier,) = _sliced_problem(marks, 1, jumps, False)
    sol = node_levels(tree, solve_reflected(tree, driver, terminal, barrier))
    comp = sol.lower
    if where == "k shared by k_c":
        level = comp.k[_shared_k_level(tree, comp)]
    elif where == "k_d shared by later levels":
        level = comp.k_d[_shared_k_d_level(tree, comp)]
    else:
        k, rows = _still_slice(tree, comp)
        level = sol.y[k][rows]
    level[len(level) // 2] = bad   # in place: every level that shares the array reads it
    with np.errstate(invalid="ignore", over="ignore"):
        compact = check_solution(tree, sol, driver, terminal, barrier)
        expanded = check_solution(tree, clone_solution(tree, sol), driver, terminal, barrier)
    assert _report_key(compact) == _report_key(expanded)
    assert failing <= {name for name, c in compact.clauses.items() if not c.passed}
