"""A direct solve stores Y and K only: its Z and V are projections of Y, formed on read.

``rbsde.bsde.Projection`` forms level k of Z or V by projecting Y_{k+1}
over the sweep's own parent blocks, so a read gives the bits the sweep
formed and once stored.  The checker projects each slice's children
table and forms no Z or V level; explicit Z and V levels (a loaded
dump, a copy, a mutant) are read as stored.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree, check_solution,
                   solve_reflected)
from rbsde.bsde import Projection, Solution, _project_v, _project_z
from rbsde.reflected import _solve
from rbsde.tree import _parent_blocks, copy_process
from conftest import clone_solution

# (marks, steps): the last parent level spans 2, 4 and 5 parent blocks
SHAPES = {0: 17, 1: 9, 2: 7}

# SHA-256 of every Z and V level of ``_problem(obstacles, marks)``'s direct
# solve, as the solver stored them before Z and V were formed on read
STORED_DIGESTS = {
    (0, 0): "33d9189e0f48ffcd4352ca9908ac25239439b46caf825878f9540a1f36709c73",
    (0, 1): "2a96405a6032eec4af363003093278dbbc803a9bb9f9c9383ea43c872d857d40",
    (0, 2): "67a0e9c5272b28fba938d41a4417d1427942e061f3f4a049ea1dc3bbe087a98c",
    (1, 0): "7592cadcd0a47af9f3045994f812e0daa2ec53add9890c6bfb8280717a5e191f",
    (1, 1): "c36afe237bcf86c9eca7731cdb65188e67950982e5f2c1ecc4a7d7706b39031b",
    (1, 2): "5d4c8975aa6fef4d7085a94ca29af8968a1fe1b5c442e5bf8bd92aaf5d7e318d",
    (2, 0): "6646d57d4a86a5439fe70fc46d33a5a1bfd2c85bacc12d31137862434e73135b",
    (2, 1): "0278d1e91080f2c3416b5e77c8a31b83a6ddac7c538cf1d64099e574d3c83325",
    (2, 2): "da5a17f9e89eed573dab85987337265058285365a2e7855c053399686b462b3e",
}


def _problem(obstacles: int, marks: int):
    steps = SHAPES[marks]
    mark_set = MarkSet(sizes=(1.0, -0.5)[:marks], intensities=(0.5, 0.3)[:marks])
    tree = build_tree(steps, mark_set)
    driver = DriverSpec(base=0.1, b=-0.4, c=0.25 if marks else 0.0, marks=mark_set)
    terminal = TerminalSpec(payoff=lambda w, c: np.abs(w) + 0.3 * c.sum(axis=1))
    # each side binds somewhere: the lower one near w = 0 before its drop at
    # mid-horizon, the upper one at large |w| before its rise at the horizon
    lower = BarrierSpec(pieces=((0.0, 1.2), (steps // 2 / steps, -0.2)),
                        stochastic=lambda t, w, c: 0.25 * w)
    upper = BarrierSpec(pieces=((0.0, 1.25), (1.0, 50.0)),
                        stochastic=lambda t, w, c: 0.25 * np.abs(w) + 0.3 * c.sum(axis=1))
    return tree, driver, terminal, (lower, upper)[:obstacles]


def _digest(z, v) -> str:
    h = hashlib.sha256()
    for zk, vk in zip(z, v):
        h.update(np.ascontiguousarray(zk).tobytes())
        h.update(np.ascontiguousarray(vk).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("marks", sorted(SHAPES))
@pytest.mark.parametrize("obstacles", [0, 1, 2])
def test_a_direct_solves_z_and_v_read_as_they_were_stored(obstacles, marks):
    tree, driver, terminal, sides = _problem(obstacles, marks)
    assert len(_parent_blocks(tree, tree.num_steps - 1)) >= 2
    sol = solve_reflected(tree, driver, terminal, *sides)
    assert isinstance(sol.z, Projection) and isinstance(sol.v, Projection)
    assert len(sol.z) == len(sol.v) == tree.num_steps
    stored = _solve(tree, driver, terminal, *sides, store=True)
    assert all(isinstance(level, np.ndarray) for level in (*stored.z, *stored.v))
    assert _digest(sol.z, sol.v) == _digest(stored.z, stored.v)
    assert _digest(sol.z, sol.v) == STORED_DIGESTS[obstacles, marks]
    assert [level.tobytes() for level in sol.y] == [level.tobytes() for level in stored.y]
    assert sol.z[-1].tobytes() == sol.z[tree.num_steps - 1].tobytes()
    with pytest.raises(IndexError):
        sol.z[tree.num_steps]


def test_a_level_read_is_the_callers_to_edit():
    tree, driver, terminal, sides = _problem(1, 1)
    sol = solve_reflected(tree, driver, terminal, *sides)
    before = [level.tobytes() for level in (*sol.z, *sol.v)]
    for process in (sol.z, sol.v):
        level = process[3]
        level += 1.0
        level[0] = np.nan
    assert [level.tobytes() for level in (*sol.z, *sol.v)] == before
    assert check_solution(tree, sol, driver, terminal, *sides).passed


def _peak(fn, *args, **kwargs):
    """``fn``'s result and its traced peak above what was held when it was called."""
    gc.collect()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("obstacles", [1, 2])
def test_a_direct_solve_peaks_below_a_stored_one_by_its_z_and_v(obstacles):
    tree, driver, terminal, sides = _problem(obstacles, 1)
    solve_reflected(tree, driver, terminal, *sides)   # the data are evaluated outside the runs
    stored, stored_peak = _peak(_solve, tree, driver, terminal, *sides, store=True)
    zv_bytes = sum(level.nbytes for level in (*stored.z, *stored.v))
    del stored
    sol, peak = _peak(solve_reflected, tree, driver, terminal, *sides)
    assert stored_peak - peak >= zv_bytes, (stored_peak - peak, zv_bytes)


@pytest.mark.parametrize("marks", sorted(SHAPES))
@pytest.mark.parametrize("obstacles", [1, 2])
def test_the_checker_forms_no_z_or_v_level_of_a_direct_solve(monkeypatch, obstacles, marks):
    tree, driver, terminal, sides = _problem(obstacles, marks)
    sol = solve_reflected(tree, driver, terminal, *sides)
    # the same solution with its Z and V levels stored, read as they are
    stored = Solution(sol.y, list(sol.z), list(sol.v), sol.lower, sol.upper)
    expected, stored_peak = _peak(check_solution, tree, stored, driver, terminal, *sides)
    reads = []
    get = Projection.__getitem__
    monkeypatch.setattr(Projection, "__getitem__",
                        lambda self, level: reads.append(level) or get(self, level))
    report, peak = _peak(check_solution, tree, sol, driver, terminal, *sides)
    assert reads == []
    assert report.to_dict() == expected.to_dict()
    assert report.passed
    # a slice's Z and V rows at a time, never a whole level of them
    level_bytes = tree.level_size(tree.num_steps - 1) * 8
    assert peak - stored_peak < level_bytes // 4, (peak - stored_peak, level_bytes)


def test_explicit_z_and_v_levels_are_read_as_stored():
    tree, driver, terminal, sides = _problem(1, 1)
    sol = solve_reflected(tree, driver, terminal, *sides)
    assert check_solution(tree, sol, driver, terminal, *sides).passed
    # a copy's Z is read as stored: a bump at one node fails the dynamics alone
    copy = clone_solution(tree, sol)
    copy.z[4][7] += 1e-6 / (driver.b * tree.dt)
    report = check_solution(tree, copy, driver, terminal, *sides)
    assert [name for name, c in report.clauses.items() if not c.passed] == ["dynamics"]
    # Z and V projected from another Y than the solution's are read as that Y's
    edited = copy_process(sol.y)
    edited[5][3] += 1e-3
    other = Solution(sol.y, Projection(tree, edited, _project_z),
                     Projection(tree, edited, _project_v), sol.lower)
    report = check_solution(tree, other, driver, terminal, *sides)
    assert [name for name, c in report.clauses.items() if not c.passed] == ["dynamics"]
