"""The ladder's solves sweep the tree's distinct node states and give the node routes' bits.

Penalised rungs, the ladder's reflected solve and Picard rounds from zero
of data with states run on the tree's ``Lattice`` and keep their
solutions there: node levels are formed on read.  The same data handed
over as the caller's own arrays (``conftest.caller_owned``) have no
states and are swept node by node.  Both routes must give Y, K, K_d, the
rung flux and the Picard iteration counts bit for bit; the ladder's sup
gaps, K gaps at the horizon and monotone violation are maxima over
states, or node sums of node levels, so they must be equal too.  The
(Z, V) gaps and the Picard distances are weighed by state mass on the
lattice and by node probability on the nodes, so they round apart: they
must agree to ``NORM_ULPS`` units in the last place.  Each refusal must
be the same error with the same message, and the per-state check of a
Picard solve must pass or fail each clause as the node check of its
whole-level copy (``clone_solution``) does.  Derandomised, so the suite
is deterministic.

Every route must also give, on a tree that solved before (its state
tables, lattices, masses and evaluations kept), the bits it gives on a
fresh tree.
"""

import dataclasses
import math
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings

from rbsde import (DriverSpec, MarkSet, ProblemSpec, build_tree, check_solution, expand,
                   picard_solve, regularity_probe, solve_bsde, solve_penalized, solve_reflected,
                   sweep, uniqueness_probe)
from rbsde.errors import NonFiniteData, RbsdeError
from rbsde.fixpoint import _alpha_distance, random_triple
from rbsde.penalty import _dt_dp_gap
from rbsde.processes import KINDS, _Walk, evaluate
from rbsde.tree import StateLevels, _max_excess, sup_diff
from rbsde.verify import DEFAULT_LADDER
from conftest import caller_owned, clone_solution, random_one_barrier, random_two_barrier
from conftest import state_problems

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
ULP = 2.0 ** -52
# The largest gap measured on these draws, at one and two BLAS threads
# alike, between a norm weighed by state mass and the same norm weighed by
# node probability: 0.86 units in the last place of the larger.
NORM_ULPS = 4
RUNGS = (0.0, 1.0, 40.0, 1e13)
MAX_ITER = 60   # past the float range a run never converges; it stops alike on both routes


def _bits(tree, process) -> list:
    """Every level of a process expanded to the nodes, as bytes, and which levels it shares."""
    levels = list(process)   # one read of every level shares them as the nodes do
    return ([expand(tree, np.asarray(level, dtype=float), k).tobytes()
             for k, level in enumerate(levels)],
            [b is a for a, b in zip(levels, levels[1:])])


def _solution_bits(tree, sol) -> list:
    sides = [p for side in (sol.lower, sol.upper) if side is not None for p in (side.k, side.k_d)]
    return [_bits(tree, process) for process in (sol.y, sol.z, sol.v, *sides)]


def _run(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, (error name, message))`` of a refusal."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs), None
    except RbsdeError as exc:
        return None, (type(exc).__name__, str(exc))


def _same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _close(a: float, b: float) -> bool:
    """Equal, both NaN, or within ``NORM_ULPS`` units in the last place of the larger."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= NORM_ULPS * ULP * max(abs(a), abs(b))


def _routes(problem):
    """The data with states, and the same data as the caller's own; None if refused."""
    tree, driver, terminal, obstacles = problem
    try:
        xi, whole = caller_owned(tree, terminal, obstacles)
    except NonFiniteData:
        return None   # data that leave the float range are refused before a route is taken
    return (terminal, obstacles), (xi, tuple(whole))


def _same_rungs(tree, driver, states, nodes) -> None:
    for weight in RUNGS:
        (lattice, refused), (node, node_refused) = (
            _run(solve_penalized, tree, driver, obstacles[0], terminal, weight)
            for terminal, obstacles in (states, nodes))
        assert refused == node_refused
        if refused is None:
            assert isinstance(lattice.solution.y, StateLevels)
            assert not isinstance(node.solution.y, StateLevels)
            assert _solution_bits(tree, lattice.solution) == _solution_bits(tree, node.solution)
            assert _bits(tree, lattice.kn) == _bits(tree, node.kn)


def _same_ladders(tree, driver, states, nodes) -> None:
    (lattice, refused), (node, node_refused) = (
        _run(sweep, tree, driver, obstacles[0], terminal, DEFAULT_LADDER)
        for terminal, obstacles in (states, nodes))
    assert refused == node_refused
    if refused is not None:
        return
    assert _solution_bits(tree, lattice.reflected) == _solution_bits(tree, node.reflected)
    assert ([_bits(tree, rung.solution.y) for rung in lattice.solutions]
            == [_bits(tree, rung.solution.y) for rung in node.solutions])
    for name in ("sup_gaps", "k_gaps"):
        assert all(map(_same_float, getattr(lattice, name), getattr(node, name))), name
    assert _same_float(lattice.monotone_violation, node.monotone_violation)
    for name in ("z_gaps", "v_gaps"):
        assert all(map(_close, getattr(lattice, name), getattr(node, name))), name


def _same_picard(tree, driver, states, nodes) -> None:
    kind = KINDS[len(states[1])]
    runs = []
    for terminal, obstacles in (states, nodes):
        barrier = obstacles[0] if kind == "one_barrier" else None
        lower, upper = obstacles if kind == "two_barrier" else (None, None)
        runs.append(_run(picard_solve, tree, driver, terminal, kind, barrier, lower, upper,
                         max_iter=MAX_ITER))
    (lattice, refused), (node, node_refused) = runs
    assert refused == node_refused
    if refused is not None:
        return
    (sol, trace), (node_sol, node_trace) = lattice, node
    assert isinstance(sol.y, StateLevels) and not isinstance(node_sol.y, StateLevels)
    assert trace.iterations == node_trace.iterations
    assert all(map(_close, trace.distances, node_trace.distances))
    assert _solution_bits(tree, sol) == _solution_bits(tree, node_sol)
    if not states[1]:
        return   # the checker takes one or two obstacles
    terminal, obstacles = states
    with np.errstate(all="ignore"):
        report = check_solution(tree, sol, driver, terminal, *obstacles)
        copied = check_solution(tree, clone_solution(tree, sol), driver, terminal, *obstacles)
    assert report.clauses.keys() == copied.clauses.keys()
    for name, clause in report.clauses.items():
        assert clause.passed == copied.clauses[name].passed, name


@SETTINGS
@given(state_problems())
def test_the_lattice_routes_of_the_ladder_give_the_node_routes_bits(problem):
    routes = _routes(problem)
    if routes is None:
        return
    tree, driver, _, obstacles = problem
    if obstacles:
        _same_rungs(tree, driver, *routes)
        _same_ladders(tree, driver, *routes)
    _same_picard(tree, driver, *routes)


# ---------------------------------------------------------------------------
# the comparisons of two solves kept on one lattice


@SETTINGS
@given(state_problems())
def test_per_state_comparisons_are_the_node_comparisons(problem):
    tree, driver, terminal, obstacles = problem
    if not obstacles:
        return
    low, high = (_run(solve_penalized, tree, driver, obstacles[0], terminal, weight)[0]
                 for weight in (1.0, 50.0))
    if low is None or high is None:
        return
    pair = [rung.solution for rung in (low, high)]
    nodes = [[np.array(level) for level in sol.y] for sol in pair]
    with np.errstate(all="ignore"):
        # maxima are exact: the bits of the node comparison
        for compare in (sup_diff, _max_excess):
            assert _same_float(compare(pair[0].y, pair[1].y), compare(*nodes))
        for name in ("z", "v"):
            on_nodes = [[np.array(level) for level in getattr(sol, name)] for sol in pair]
            assert _close(_dt_dp_gap(tree, getattr(pair[0], name), getattr(pair[1], name)),
                          _dt_dp_gap(tree, *on_nodes))


def test_state_masses_are_the_node_probabilities_summed():
    problem = random_two_barrier(np.random.default_rng(3), max_steps=6, max_marks=2)
    tree = problem.build_tree()
    sol = solve_reflected(tree, problem.driver, problem.terminal, *problem.obstacles)
    lattice = sol.y.lattice
    assert len(lattice.masses) == tree.num_steps + 1
    for k, masses in enumerate(lattice.masses):
        assert not masses.flags.writeable
        # each node's probability on its state's row
        per_state = np.zeros(lattice.level_size(k))
        codes = StateLevels(lattice, [np.arange(lattice.level_size(j), dtype=float)
                                      for j in range(k + 1)])[k].astype(np.intp)
        np.add.at(per_state, codes, tree.atom_prob[k])
        assert np.allclose(masses, per_state, rtol=1e-12, atol=0.0)
        assert _close(lattice.expectation(k, sol.y.states(k)),
                      tree.expectation(k, np.array(sol.y[k])))


# ---------------------------------------------------------------------------
# the ladder's routes form no node level of the data


def _problem(obstacles: int, seed: int, coefficients: bool = True) -> ProblemSpec:
    rng = np.random.default_rng(280 + seed)
    if obstacles == 2:
        problem = random_two_barrier(rng, max_steps=6, max_marks=2)
    else:
        problem = random_one_barrier(rng, max_steps=6, max_marks=2)
        if obstacles == 0:
            problem = dataclasses.replace(problem, barrier=None)
    if not coefficients:
        return problem
    driver = DriverSpec(base=problem.driver.base, a=0.3, b=-0.4, c=0.25, marks=problem.marks)
    return dataclasses.replace(problem, driver=driver)


def _picard(tree, problem, initial=None):
    return picard_solve(tree, problem.driver, problem.terminal, problem.kind, problem.barrier,
                        problem.lower, problem.upper, initial=initial)


@pytest.mark.parametrize("route", ["rung", "sweep", "picard", "regularity"])
def test_the_ladders_routes_form_no_node_level_of_the_data(monkeypatch, route):
    problem = _problem(1 if route != "picard" else 2, 0)

    def no_node_levels(self, tree):
        raise AssertionError("a node level of the data was formed")

    tree = problem.build_tree()
    monkeypatch.setattr(_Walk, "nodes", no_node_levels)
    monkeypatch.setattr(ProblemSpec, "build_tree", lambda spec: tree)   # the probe's tree
    runs = {
        "rung": lambda: solve_penalized(tree, problem.driver, problem.barrier,
                                        problem.terminal, 40.0),
        "sweep": lambda: sweep(tree, problem.driver, problem.barrier, problem.terminal,
                               DEFAULT_LADDER),
        "picard": lambda: _picard(tree, problem),
        "regularity": lambda: regularity_probe(problem),
    }
    runs[route]()


# ---------------------------------------------------------------------------
# every route gives the same bits on a tree that solved before


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


def _direct(tree, problem):
    return solve_reflected(tree, problem.driver, problem.terminal, *problem.obstacles)


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
def test_every_route_gives_the_same_bits_on_a_tree_that_solved_before(monkeypatch, route, seed,
                                                                      coefficients):
    obstacles, route_fn = ROUTES[route]
    problem = _problem(obstacles, seed, coefficients)
    current = []
    # the probes build their tree from the problem: they get the route's tree
    monkeypatch.setattr(ProblemSpec, "build_tree", lambda spec: current[-1])

    def run(tree):
        current.append(tree)
        return _fingerprint(route_fn(tree, problem))

    fresh = run(build_tree(problem.num_steps, problem.marks))
    assert run(build_tree(problem.num_steps, problem.marks)) == fresh
    # a tree that solved on its lattice and on its nodes, once or twice, keeps
    # its states, lattices, masses and evaluations: the route's bits stay
    for solves in (1, 2):
        tree = build_tree(problem.num_steps, problem.marks)
        for _ in range(solves):
            _direct(tree, problem)
            _picard(tree, problem, random_triple(tree, np.random.default_rng(7)))
        assert run(tree) == fresh


def test_a_terminal_array_the_caller_changes_is_solved_afresh():
    problem = _problem(0, 1)
    tree = problem.build_tree()
    xi = np.array(evaluate(tree, problem.terminal)[0])   # the caller's own, writable copy
    before = solve_bsde(tree, problem.driver, xi).z[-1]
    xi *= 2.0
    xi += 0.25
    after = solve_bsde(tree, problem.driver, xi)
    expected = solve_bsde(problem.build_tree(), problem.driver, xi.copy())
    assert _fingerprint(after) == _fingerprint(expected)
    assert not np.array_equal(after.z[-1], before)


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
