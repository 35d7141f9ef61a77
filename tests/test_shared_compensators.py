"""A compensator stores only the levels where it moves.

The direct solvers and the penalised rungs book each increment level
block by block (``rbsde.reflected._Increments``), and a level without
mass (every value ±0.0) is never allocated: ``_accumulate`` makes K at
the next level K's own array at the one before.  Here every booked block
is recorded into whole increment levels, the cumulative process is
accumulated from them as whole levels were before, and every stored
level must expand to it bit for bit.  A direct solve books its increments
on the tree's lattice of distinct states, one row per state: each booked
row is put on the nodes of its state, looked up by the bits of their
state (``conftest.on_nodes``), before the accumulation.  A level without mass must be its
predecessor itself, a level with mass must not, and a solution whose K
shares a level that has mass must fail the checker.  Derandomised, so
the suite is deterministic.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rbsde import Compensator, Solution, check_solution, expand, solve_reflected
from rbsde.penalty import solve_penalized
from rbsde.reflected import _Increments
from conftest import on_nodes, random_one_barrier, random_two_barrier

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _drivers():
    """Coefficient-free drivers, and drivers with a, b and c."""
    return st.one_of(st.just({}), st.fixed_dictionaries({
        "a": st.sampled_from((0.35, -0.4)), "b": st.floats(-0.3, 0.3),
        "c": st.floats(-0.3, 0.3)}))


def _record_bookings(monkeypatch):
    """Every ``_Increments`` made, in order (the lower side first), with each booked block.

    Each booker gets ``whole``, its increment levels filled from the
    blocks it booked, and ``booked``, the rows it booked per level.
    """
    made = []
    init, book = _Increments.__init__, _Increments.book

    def recording_init(self, grid, scale):
        init(self, grid, scale)
        self.whole = [np.empty(grid.level_size(k)) for k in range(grid.num_steps)]
        self.booked = [0] * grid.num_steps
        made.append(self)

    def recording_book(self, k, rows, high, low):
        block = book(self, k, rows, high, low)
        self.whole[k][rows] = block
        self.booked[k] += len(block)
        return block

    monkeypatch.setattr(_Increments, "__init__", recording_init)
    monkeypatch.setattr(_Increments, "book", recording_book)
    return made


def _whole_accumulation(increments):
    """K_0 = 0, K_{k+1} = K_k + increments[k], every increment level allocated and whole."""
    total = [np.zeros(1)]
    for inc in increments:
        inc = np.array(inc)
        table = inc.reshape(len(total[-1]), -1)
        np.add(table, total[-1][:, None], out=table)
        total.append(inc)
    return total


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _assert_only_moving_levels_stored(tree, booker, k_total, lattice=False):
    """Every level of ``k_total`` is the whole accumulation's bits; no massless level is stored.

    With ``lattice`` the booker booked every row of each level of the tree's
    lattice of states, and its levels are put on the nodes first.
    """
    grid = booker.grid
    assert (grid is not tree) == lattice
    assert booker.booked == [grid.level_size(k) for k in range(tree.num_steps)]
    whole = booker.whole
    if lattice:
        whole = [on_nodes(tree, level, k) for k, level in enumerate(whole)]
        assert [len(level) for level in whole] == [tree.level_size(k)
                                                   for k in range(tree.num_steps)]
    reference = _whole_accumulation(whole)
    k_total = list(k_total)   # one read of every level shares them as the nodes do
    assert len(k_total) == len(reference) == tree.num_steps + 1
    for k, (level, ref) in enumerate(zip(k_total, reference)):
        assert np.array_equal(_bits(expand(tree, level, k)), _bits(expand(tree, ref, k))), k
    for k, inc in enumerate(whole):
        moves = bool(inc.any())   # a NaN is mass
        assert (booker.levels[k] is None) is not moves, k
        assert (k_total[k + 1] is k_total[k]) is not moves, k


def _problem(seed, two, coefficients):
    make = random_two_barrier if two else random_one_barrier
    problem = make(np.random.default_rng(seed), max_steps=5, max_marks=2)
    return problem, replace(problem.driver, **coefficients)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), _drivers())
def test_direct_solves_store_only_the_levels_where_k_moves(seed, two, coefficients):
    problem, driver = _problem(seed, two, coefficients)
    tree = problem.build_tree()
    with pytest.MonkeyPatch.context() as patch:
        made = _record_bookings(patch)
        sol = solve_reflected(tree, driver, problem.terminal, *problem.obstacles)
    sides = (sol.lower, sol.upper) if two else (sol.lower,)
    assert len(made) == len(sides)
    for booker, side in zip(made, sides):
        _assert_only_moving_levels_stored(tree, booker, side.k, lattice=True)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), _drivers(), st.sampled_from((0.0, 1.0, 50.0, 1e13)))
def test_penalised_rungs_store_only_the_levels_where_the_flux_moves(seed, coefficients,
                                                                     weight):
    problem, driver = _problem(seed, False, coefficients)
    tree = problem.build_tree()
    with pytest.MonkeyPatch.context() as patch:
        made = _record_bookings(patch)
        rung = solve_penalized(tree, driver, problem.barrier, problem.terminal, weight)
    (booker,) = made
    _assert_only_moving_levels_stored(tree, booker, rung.kn)
    if weight == 0.0:
        assert all(level is rung.kn[0] for level in rung.kn)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), _drivers())
def test_a_k_that_shares_a_level_with_mass_fails_the_check(seed, two, coefficients):
    problem, driver = _problem(seed, two, coefficients)
    tree = problem.build_tree()
    obstacles = problem.obstacles
    sol = solve_reflected(tree, driver, problem.terminal, *obstacles)
    assert check_solution(tree, sol, driver, problem.terminal, *obstacles).passed
    # the side with the most mass at the horizon
    side = max((comp for comp in (sol.lower, sol.upper) if comp is not None),
               key=lambda comp: float(np.max(comp.k[-1])))
    n = tree.num_steps
    levels = list(side.k)   # one read of every level shares them as the nodes do
    # the level where K moves most, shared with the one before it
    moves = [float(np.max(expand(tree, levels[k + 1], k + 1) - expand(tree, levels[k], k + 1)))
             for k in range(n)]
    k = int(np.argmax(moves))
    assume(moves[k] > 1e-6)
    assert levels[k + 1] is not levels[k]
    shared = Compensator(k=[*levels[:k + 1], levels[k], *levels[k + 2:]], k_d=side.k_d)
    mutant = Solution(y=sol.y, z=sol.z, v=sol.v,
                      lower=shared if side is sol.lower else sol.lower,
                      upper=shared if side is sol.upper else sol.upper)
    report = check_solution(tree, mutant, driver, problem.terminal, *obstacles)
    assert not report.passed
