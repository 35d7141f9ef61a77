"""The last backward step of an evaluated terminal, kept once per tree.

The sweeps that store Z and V (Picard rounds, penalised rungs, the
ladder's reflected solve) share Z_{N-1}, V_{N-1} and E[xi | F_{N-1}] of
one evaluated terminal on one tree (``rbsde.processes.LastStep``); a
direct solve reads what is kept and keeps nothing.  Every route that
sweeps must give, bit for bit, on a tree swept before what it gives on a
fresh tree with nothing shared, and the shared arrays must be read-only,
go with the tree and never stand for a terminal the caller may change.
"""

import dataclasses
import gc
import math
import tracemalloc
import weakref
from collections.abc import Sequence

import numpy as np
import pytest

import rbsde.bsde
from rbsde import (DriverSpec, MarkSet, ProblemSpec, TerminalSpec, build_tree, picard_solve,
                   solve_bsde, solve_reflected)
from rbsde.fixpoint import _alpha_distance, _gaps, random_triple
from rbsde.penalty import _dt_dp_gap, solve_penalized, sweep
from rbsde.processes import _last_step, evaluate
from rbsde.reflected import _solve
from rbsde.verify import DEFAULT_LADDER, regularity_probe, uniqueness_probe
from conftest import random_one_barrier, random_two_barrier


def _fingerprint(obj) -> list:
    """Every number an output holds, as bytes, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [obj.shape, np.ascontiguousarray(obj).tobytes()]
    if isinstance(obj, float):
        return [np.float64(obj).tobytes()]
    if obj is None or isinstance(obj, (bool, int, str)):
        return [obj]
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [part for f in dataclasses.fields(obj)
                                       for part in _fingerprint(getattr(obj, f.name))]
    if isinstance(obj, (list, tuple, Sequence)):
        return ["["] + [part for item in obj for part in _fingerprint(item)] + ["]"]
    raise TypeError(f"no fingerprint for {type(obj).__name__}")


def _with_coefficients(problem: ProblemSpec) -> ProblemSpec:
    driver = DriverSpec(base=problem.driver.base, a=0.3, b=-0.4, c=0.25, marks=problem.marks)
    return dataclasses.replace(problem, driver=driver)


def _problem(obstacles: int, seed: int, coefficients: bool = True) -> ProblemSpec:
    rng = np.random.default_rng(280 + seed)
    if obstacles == 2:
        problem = random_two_barrier(rng, max_steps=6, max_marks=2)
    else:
        problem = random_one_barrier(rng, max_steps=6, max_marks=2)
        if obstacles == 0:
            problem = dataclasses.replace(problem, barrier=None)
    return _with_coefficients(problem) if coefficients else problem


def _direct(tree, problem):
    return solve_reflected(tree, problem.driver, problem.terminal, *problem.obstacles)


def _stored(tree, problem):
    """The direct solve with Z and V stored, as the ladder's reflected solve makes it."""
    return _solve(tree, problem.driver, problem.terminal, *problem.obstacles, store=True)


def _picard(tree, problem, initial=None):
    return picard_solve(tree, problem.driver, problem.terminal, problem.kind, problem.barrier,
                        problem.lower, problem.upper, initial=initial)


def _probe(probe):
    """A probe as a route: it builds its tree from the problem (the test hands it one)."""
    return lambda tree, problem: probe(problem)


ROUTES = {
    "direct_0": (0, _direct),
    "direct_1": (1, _direct),
    "direct_2": (2, _direct),
    "rung": (1, lambda tree, p: solve_penalized(tree, p.driver, p.barrier, p.terminal, 40.0)),
    "rung_0": (1, lambda tree, p: solve_penalized(tree, p.driver, p.barrier, p.terminal, 0.0)),
    "sweep": (1, lambda tree, p: sweep(tree, p.driver, p.barrier, p.terminal, DEFAULT_LADDER)),
    "picard_zero_0": (0, _picard),
    "picard_zero_1": (1, _picard),
    "picard_zero_2": (2, _picard),
    "picard_random_1": (1, lambda tree, p: _picard(
        tree, p, random_triple(tree, np.random.default_rng(5)))),
    "picard_random_2": (2, lambda tree, p: _picard(
        tree, p, random_triple(tree, np.random.default_rng(6)))),
    "uniqueness_1": (1, _probe(uniqueness_probe)),
    "uniqueness_2": (2, _probe(uniqueness_probe)),
    "regularity": (1, _probe(regularity_probe)),
}


@pytest.mark.parametrize("coefficients", [True, False])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_gives_the_same_bits_on_a_tree_swept_before(monkeypatch, route, seed,
                                                                 coefficients):
    obstacles, route_fn = ROUTES[route]
    problem = _problem(obstacles, seed, coefficients)
    current = []
    # the probes build their tree from the problem: they get the route's tree
    monkeypatch.setattr(ProblemSpec, "build_tree", lambda spec: current[-1])

    def run(tree):
        current.append(tree)
        return _fingerprint(route_fn(tree, problem))

    with monkeypatch.context() as unshared:
        # the reference projects the terminal on every sweep, as if nothing were kept
        unshared.setattr(rbsde.bsde, "_last_step", lambda tree, xi: None)
        fresh = run(build_tree(problem.num_steps, problem.marks))
    assert run(build_tree(problem.num_steps, problem.marks)) == fresh
    # the first storing sweep keeps Z_{N-1} and V_{N-1}, the second the mean
    for sweeps in (1, 2):
        tree = build_tree(problem.num_steps, problem.marks)
        for _ in range(sweeps):
            _stored(tree, problem)
        last = _last_step(tree, evaluate(tree, problem.terminal)[0])
        assert last.zv is not None and (last.mean is not None) == (sweeps == 2)
        assert run(tree) == fresh


def test_later_storing_solves_share_the_first_ones_last_z_and_v(monkeypatch):
    problem = _problem(1, 0)
    tree = problem.build_tree()
    asked = []
    monkeypatch.setattr(rbsde.bsde, "_last_step",
                        lambda tree, xi: asked.append(xi) or _last_step(tree, xi))
    direct = _direct(tree, problem)
    last = _last_step(tree, evaluate(tree, problem.terminal)[0])
    # a direct solve sweeps the tree's states: it neither reads nor keeps a last step
    assert asked == [] and last.zv is None and last.mean is None
    first = _stored(tree, problem)
    later = [solve_penalized(tree, problem.driver, problem.barrier, problem.terminal,
                             10.0).solution,
             _picard(tree, problem)[0],
             _stored(tree, dataclasses.replace(problem, barrier=None))]
    z, v = first.z[-1], first.v[-1]
    assert not z.flags.writeable and not v.flags.writeable
    for sol in later:
        assert sol.z[-1] is z and sol.v[-1] is v
        assert sol.y[-1] is first.y[-1]
        assert sol.z[-2] is not first.z[-2]   # the other levels are each solve's own
    with pytest.raises(ValueError):
        z[0] = 1.0
    asked.clear()
    zv, mean = last.zv, last.mean
    again = _direct(tree, problem)
    assert asked == [] and last.zv is zv and last.mean is mean
    # a direct solve's Z_{N-1} is its own projection: the kept bits, in a fresh array
    for sol in (direct, again):
        assert sol.z[-1] is not z and sol.z[-1].flags.writeable
        assert sol.z[-1].tobytes() == z.tobytes() and sol.v[-1].tobytes() == v.tobytes()


def test_a_terminal_array_is_projected_on_every_sweep():
    problem = _problem(0, 1)
    tree = problem.build_tree()
    xi = np.array(evaluate(tree, problem.terminal)[0])   # the caller's own, writable copy
    before = _solve(tree, problem.driver, xi, store=True)
    assert _last_step(tree, xi) is None
    xi *= 2.0
    xi += 0.25
    after = _solve(tree, problem.driver, xi, store=True)
    expected = solve_bsde(problem.build_tree(), problem.driver, xi.copy())
    assert _fingerprint(after) == _fingerprint(expected)
    assert not np.array_equal(after.z[-1], before.z[-1])
    assert before.z[-1].flags.writeable and after.z[-1] is not before.z[-1]


def test_the_kept_last_step_goes_with_its_tree():
    problem = _problem(1, 0)
    tree = problem.build_tree()
    for _ in range(2):
        _stored(tree, problem)
    last = _last_step(tree, evaluate(tree, problem.terminal)[0])
    refs = [weakref.ref(obj) for obj in (tree, last, *last.zv, last.mean)]
    del tree, last
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_direct_solve_holds_and_fills_nothing():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(7, marks)
    driver = DriverSpec(base=0.1, a=0.3, b=-0.4, c=0.25, marks=marks)
    terminal = TerminalSpec(payoff=lambda w, c: np.sin(w) + 0.3 * c[:, 0])
    problem = ProblemSpec(num_steps=7, marks=marks, driver=driver, terminal=terminal)
    terminal.evaluate(tree)   # the leaf evaluation is made outside the traced runs
    last = _last_step(tree, terminal.evaluate(tree))
    level_bytes = tree.level_size(tree.num_steps - 1) * 8

    def held() -> int:
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        # a direct solve, before and after a storing one, keeps no array on the tree
        solve_bsde(tree, driver, terminal)
        assert last.zv is None and last.mean is None
        assert held() < level_bytes // 2
        sol = _stored(tree, problem)
        assert last.zv[0] is sol.z[-1] and last.zv[1] is sol.v[-1]
        own = sol.z[-1].nbytes + sol.v[-1].nbytes
        del sol
        kept = held()
        # the first storing solve's own Z_{N-1} and V_{N-1}, and no conditional-mean array
        assert own <= kept < own + level_bytes // 2, (kept, own)
        solve_bsde(tree, driver, terminal)
        assert last.mean is None and held() < kept + level_bytes // 2
        # from the second storing sweep on the tree keeps E[xi | F_{N-1}] too
        _stored(tree, problem)
        assert last.mean is not None and held() >= kept + level_bytes
    finally:
        tracemalloc.stop()


def _pair(bad: float):
    """Two iterates whose Z_{N-1} and V_{N-1} are one array each, with ``bad`` planted."""
    tree = build_tree(4, MarkSet(sizes=(1.0, 2.0), intensities=(0.5, 0.3)))
    p = random_triple(tree, np.random.default_rng(1))
    q = random_triple(tree, np.random.default_rng(2))
    p[1][-1][3] = bad
    p[2][-1][5, 1] = bad
    q[1][-1], q[2][-1] = p[1][-1], p[2][-1]
    copies = (q[0], [np.array(z) for z in q[1]], [np.array(v) for v in q[2]])
    return tree, p, q, copies


@pytest.mark.parametrize("bad", [0.75, math.nan, math.inf, -math.inf])
def test_a_shared_level_gives_the_distances_of_the_unshared_path(bad):
    tree, p, q, copies = _pair(bad)
    pairs = [(_alpha_distance, (tree, p, q, alpha), (tree, p, copies, alpha))
             for alpha in (0.0, 2.5)]
    pairs += [(_dt_dp_gap, (tree, p[i], q[i]), (tree, p[i], copies[i])) for i in (1, 2)]
    for distance, shared, unshared in pairs:
        shared, unshared = distance(*shared), distance(*unshared)
        assert np.float64(shared).tobytes() == np.float64(unshared).tobytes()
        assert math.isnan(shared) == (not math.isfinite(bad))


def test_only_a_shared_finite_pair_is_left_out():
    a, b = np.arange(6.0), np.arange(6.0)
    assert _gaps((a, a)) == ()
    assert len(_gaps((a, b))) == 1
    a[2] = math.inf
    with np.errstate(invalid="ignore"):
        gaps = _gaps((a, a))
    assert len(gaps) == 1 and math.isnan(gaps[0][2])
