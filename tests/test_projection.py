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
from fractions import Fraction

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, MarkSet, TerminalSpec, build_tree, check_solution,
                   solve_reflected)
from rbsde.bsde import Projection, Solution, _project_v, _project_z, _sweep_source
from rbsde.processes import evaluate
from rbsde.reflected import _reflected_sweep
from rbsde.tree import _parent_blocks, copy_process
from conftest import clone_solution, node_levels

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


def _stored(tree, driver, terminal, sides):
    """The node sweep of the evaluated data, with Z and V stored as a Picard round stores them."""
    xi, *values = evaluate(tree, terminal, *sides)
    y, z, v, *_ = _reflected_sweep(tree, _sweep_source(tree, driver), driver.a, xi,
                                   *(*values, None, None)[:2], store=True)
    return Solution(y, z, v)


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
    stored = _stored(tree, driver, terminal, sides)
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


@pytest.mark.parametrize("obstacles", [1, 2])
def test_no_edit_of_a_listed_level_reaches_the_solution(obstacles):
    tree, driver, terminal, sides = _problem(obstacles, 1)
    sol = solve_reflected(tree, driver, terminal, *sides)
    k = 3
    processes = [sol.y] + [p for side in (sol.lower, sol.upper)[:obstacles]
                           for p in (side.k, side.k_d)]
    k_c = [side.k_c for side in (sol.lower, sol.upper)[:obstacles]]
    before = [[level.tobytes() for level in process] for process in processes + k_c]
    z_before = sol.z[k - 1].tobytes()
    # a plain read is a fresh array of the caller's
    level = sol.y[k]
    level += 1.0
    assert sol.y[k].tobytes() == before[0][k]
    # a listed level is shared with later reads of it while it is held, and read-only
    held = [list(process) for process in processes]
    assert sol.y[k] is held[0][k]
    for levels in held:
        with pytest.raises(ValueError):
            levels[k] += 1.0
        with pytest.raises(ValueError):
            levels[k][0] = np.nan
    assert sol.z[k - 1].tobytes() == z_before
    assert [[level.tobytes() for level in process] for process in processes + k_c] == before
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
    evaluate(tree, terminal, *sides)   # the data's node levels are formed outside the runs
    stored, stored_peak = _peak(_stored, tree, driver, terminal, sides)
    zv_bytes = sum(level.nbytes for level in (*stored.z, *stored.v))
    del stored
    sol, peak = _peak(solve_reflected, tree, driver, terminal, *sides)
    assert stored_peak - peak >= zv_bytes, (stored_peak - peak, zv_bytes)


@pytest.mark.parametrize("marks", sorted(SHAPES))
@pytest.mark.parametrize("obstacles", [1, 2])
def test_the_checker_forms_no_z_or_v_level_of_a_direct_solve(monkeypatch, obstacles, marks):
    tree, driver, terminal, sides = _problem(obstacles, marks)
    # the node checker, on the solve's levels read once: Z and V are the
    # Projections of that Y
    sol = node_levels(tree, solve_reflected(tree, driver, terminal, *sides))
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
    # a copy's Z is read as stored: a bump at one node fails the dynamics,
    # and the representation of Y_5 by Z_4
    copy = clone_solution(tree, sol)
    copy.z[4][7] += 1e-6 / (driver.b * tree.dt)
    report = check_solution(tree, copy, driver, terminal, *sides)
    assert [name for name, c in report.clauses.items() if not c.passed] == \
        ["dynamics", "representation"]
    # Z and V projected from another Y than the solution's are read as that Y's
    edited = copy_process(sol.y)
    edited[5][3] += 1e-3
    other = Solution(sol.y, Projection(tree, edited, _project_z),
                     Projection(tree, edited, _project_v), sol.lower)
    report = check_solution(tree, other, driver, terminal, *sides)
    assert [name for name, c in report.clauses.items() if not c.passed] == \
        ["dynamics", "representation"]


def _ulps(got: float, exact: Fraction, size: Fraction) -> float:
    """|got - exact| in units of the last place of ``size`` (a term size; 0 where both are 0)."""
    if size == 0:
        assert got == 0.0
        return 0.0
    return float(abs(Fraction(got) - exact)) / float(np.spacing(float(size)))


# (marks, steps) of each pinned tree
PINNED = [(0, 3), (0, 8), (1, 4), (1, 7), (2, 3), (2, 6)]


@pytest.mark.parametrize("marks,steps", PINNED)
def test_the_projections_are_the_exact_conditional_moments_to_a_few_ulps(marks, steps):
    """``_project_z`` and ``_project_v`` against exact rational conditional moments.

    For a (parents, B) table Y of child values on a tree, exactly in the
    tree's own floats, z = sum_b p_b dB_b Y_b / dt and
    v_i = sum_b p_b dN~_{b,i} Y_b / (lam_i dt).  Each computed entry lies
    within B + 2 (z) or B + 3 (v) units in the last place of its term
    size, sum_b |p_b dB_b Y_b| / dt or sum_b |p_b dN~_{b,i} Y_b| /
    (lam_i dt): the rounded weights, the B products and B - 1 sums of the
    dot, the divide and, for v, the rounded scale lam_i dt each add less
    than one such unit.  The largest errors measured on these draws, at
    one and two BLAS threads alike, are 1.52 units for z and 2.00 for v.
    """
    mark_set = MarkSet(sizes=(1.0, -0.5)[:marks], intensities=(0.5, 0.3)[:marks])
    tree = build_tree(steps, mark_set)
    b = tree.branching
    prob = [Fraction(p) for p in tree.branch_prob.tolist()]
    db = [Fraction(x) for x in tree.branch_db.tolist()]
    comp = [[Fraction(x) for x in row] for row in tree.branch_comp.tolist()]
    dt = Fraction(tree.dt)
    lam = [Fraction(x) for x in tree.marks.intensity_array.tolist()]
    rng = np.random.default_rng(1000 * marks + steps)
    for parents in (1, 2, 7, 64):
        scales = 10.0 ** rng.uniform(-6, 6, size=(parents, 1))
        table = rng.standard_normal((parents, b)) * scales
        table[rng.random(table.shape) < 0.1] = 0.0
        z, v = _project_z(tree, table), _project_v(tree, table)
        assert z.shape == (parents,) and v.shape == (parents, marks)
        for row, y in enumerate(table.tolist()):
            y = [Fraction(x) for x in y]
            terms = [p * d * x for p, d, x in zip(prob, db, y)]
            ulps = _ulps(float(z[row]), sum(terms) / dt, sum(map(abs, terms)) / dt)
            assert ulps <= b + 2, (row, ulps)
            for i in range(marks):
                terms = [p * c[i] * x for p, c, x in zip(prob, comp, y)]
                scale = lam[i] * dt
                ulps = _ulps(float(v[row, i]), sum(terms) / scale, sum(map(abs, terms)) / scale)
                assert ulps <= b + 3, (row, i, ulps)
