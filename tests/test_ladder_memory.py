"""What the ladder studies hold: the penalty sweep and the envelope recursion.

``penalty.sweep`` keeps each rung's Y alone, and ``picard_snell_solve``
shares one read-only zero array for every leaf level that is identically
zero.  The tracemalloc bounds are counted in interior processes (every
level but the leaves) of the m=1, N=7 tree, so they catch a sweep that
again holds each rung's Z, V or K^n.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from rbsde import (BarrierSpec, DriverSpec, MarkSet, MonotonicityViolation, TerminalSpec,
                   build_tree, eval_barrier, monotone_iterate_check, picard_snell_solve,
                   solve_penalized, sweep)
from rbsde.processes import linear_obstacle, linear_payoff

LADDER = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
STEPS = 7


def _tree():
    return build_tree(STEPS, MarkSet(sizes=(1.0,), intensities=(0.5,)))


def _one_obstacle():
    driver = DriverSpec(base=0.3, marks=MarkSet(sizes=(1.0,), intensities=(0.5,)))
    terminal = TerminalSpec(payoff=linear_payoff(0.1, 0.4, (0.2,)))
    barrier = BarrierSpec(pieces=((0.0, 0.6), (3 / STEPS, -0.2)),
                          stochastic=linear_obstacle(0.0, 0.4, (0.2,)))
    return driver, terminal, barrier


def _band():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    mean = linear_obstacle(0.0, 0.3, (0.2,), compensate=marks)
    terminal = TerminalSpec(payoff=linear_payoff(-0.1, 0.3, (0.2,)))
    lower = BarrierSpec(pieces=((0.0, -0.2), (4 / STEPS, -0.4)), stochastic=mean)
    upper = BarrierSpec(pieces=((0.0, 0.3), (2 / STEPS, 0.15)), stochastic=mean)
    return DriverSpec(base=1.5, marks=marks), terminal, lower, upper


def _interior_bytes(tree) -> int:
    """Bytes of one process on every level but the leaves."""
    return 8 * sum(tree.level_size(k) for k in range(tree.num_steps))


def _warm(tree, terminal, *barriers):
    """Evaluate what the tree memoises, so the traced figures count the solve alone."""
    terminal.evaluate(tree)
    for barrier in barriers:
        eval_barrier(barrier, tree)
    tree.atom_prob[tree.num_steps]


def test_sweep_keeps_each_rungs_y_alone():
    tree = _tree()
    driver, terminal, barrier = _one_obstacle()
    report = sweep(tree, driver, barrier, terminal, LADDER)
    assert [rung.level for rung in report.solutions] == list(report.levels)
    for rung in report.solutions:
        assert rung.kn is None
        assert rung.solution.z is None and rung.solution.v is None
        alone = solve_penalized(tree, driver, barrier, terminal, rung.level).solution.y
        assert len(rung.solution.y) == len(alone) == tree.num_steps + 1
        for kept, fresh in zip(rung.solution.y, alone):
            assert kept.tobytes() == fresh.tobytes()


def test_sweep_memory_stays_bounded():
    tree = _tree()
    driver, terminal, barrier = _one_obstacle()
    _warm(tree, terminal, barrier)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = sweep(tree, driver, barrier, terminal, LADDER)
        held, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    unit = _interior_bytes(tree)
    # the rungs' Y and the reflected solve (Y, Z, V, K, K_c, K_d) are held,
    # 16.6 units; a rung that kept its Z, V and K^n would add three units each
    assert held <= (len(LADDER) + 8) * unit, held / unit
    # on top of that one rung in flight, its block temporaries (whole levels
    # on this tree) and the leaf scratch of the K gaps: 31 units
    assert peak <= (len(LADDER) + 24) * unit, peak / unit
    assert len(report.solutions) == len(LADDER)


def test_envelope_zero_levels_are_shared_and_read_only():
    tree = _tree()
    driver, terminal, lower, upper = _band()
    _, trace = picard_snell_solve(tree, driver, terminal, lower, upper)
    n = tree.num_steps
    leaf = trace.upper_bound_plus[n]
    assert not leaf.any()
    first_plus, first_minus = trace.iterates[0]
    assert first_plus is first_minus
    shared = [trace.upper_bound_minus[n], first_plus[n]]
    shared += [level for pair in trace.iterates for process in pair for level in process[n:]]
    assert all(level is leaf for level in shared)
    for level in (leaf, first_plus[0], first_plus[n - 1]):
        with pytest.raises(ValueError, match="read-only"):
            level[0] = 1.0
    # every round's envelopes are complete, with writable levels before the leaf
    assert trace.iterations >= 1 and len(trace.iterates) == trace.iterations + 1
    for pair in trace.iterates[1:]:
        for process in pair:
            assert len(process) == n + 1
            assert all(process[k].flags.writeable for k in range(n))


def test_envelope_memory_stays_bounded():
    tree = _tree()
    driver, terminal, lower, upper = _band()
    _warm(tree, terminal, lower, upper)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = picard_snell_solve(tree, driver, terminal, lower, upper)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    unit = _interior_bytes(tree)
    leaf = 8 * tree.level_size(tree.num_steps)
    # each iterate holds two envelopes without leaves; the set-up holds the
    # witness closures, L~, U~, both bounds and the terminal martingale, of
    # which only the closures and the martingale have leaves of their own:
    # 33.7 units for three iterates, where one leaf is three units
    envelopes = 2 * len(trace.iterates)
    assert peak <= (envelopes + 16) * unit + 5 * leaf, peak / unit


@pytest.mark.parametrize("doctor", ["decrease", "nan", "negative", "bound"])
def test_monotone_iterate_check_rejects_a_doctored_trace(doctor):
    tree = _tree()
    driver, terminal, lower, upper = _band()
    _, trace = picard_snell_solve(tree, driver, terminal, lower, upper)
    assert monotone_iterate_check(tree, trace).passed
    last_plus, last_minus = trace.iterates[-1]
    if doctor == "decrease":
        last_plus[2][5] -= 1.0
    elif doctor == "nan":
        last_minus[tree.num_steps - 1][-1] = np.nan
    elif doctor == "negative":
        trace.iterates[1][1][0][0] = -1.0
    else:
        trace.upper_bound_minus[3] = trace.upper_bound_minus[3] - 10.0
    with pytest.raises(MonotonicityViolation):
        monotone_iterate_check(tree, trace)
