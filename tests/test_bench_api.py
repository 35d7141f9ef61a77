"""The benchmark still runs on the library's API.

``bench/tracing.py`` wraps rbsde names by module attribute and reports
each wrapped layer's time.  A name it no longer finds breaks the traced
runs, and a library call site that bypasses the wrapped names makes that
layer read zero, so both are checked here on the unedited tracer.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracing


def test_every_traced_name_resolves(tracing):
    import importlib
    originals = []
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals.append(owner)
    restore = tracing.install(tracing.Tracer(), cli=True)
    restore()
    for (module_name, attr, _, _), original in zip(tracing.TARGETS, originals):
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert owner is original, (module_name, attr)


def test_cli_solves_and_checks_go_through_traced_names(tracing, tmp_path):
    from rbsde.cli import main
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, cli=True)
    tracer.active = True
    try:
        for command, config in (("solve-one", "counterexample.json"),
                                ("solve-two", "two_barrier_band.json")):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--config", str(ROOT / "configs" / config),
                             "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.active = False
        restore()
    names = {span[0] for span in tracer.spans}
    assert {"reflected.solve", "twobarrier.solve", "verify.check"} <= names


# The ladder_iterate gates in bench/worker.py read these results by attribute:
# a sweep's rungs and reflected solve, and an envelope trace's iterates and bounds.

@pytest.fixture
def worker():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import worker
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return worker


def test_ladder_results_hold_what_the_gates_read():
    from rbsde import (BarrierSpec, DriverSpec, TerminalSpec, build_tree,
                       monotone_iterate_check, picard_snell_solve, sweep)
    tree = build_tree(4)
    levels = tree.num_steps + 1
    report = sweep(tree, DriverSpec(), BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0))),
                   TerminalSpec(constant=0.5), [1, 2, 4])
    assert len(report.reflected.y) == levels
    for rung in report.solutions:
        assert len(rung.solution.y) == levels
        assert all(len(rung.solution.y[k]) == tree.level_size(k) for k in range(levels))
    _, trace = picard_snell_solve(tree, DriverSpec(base=1.5), TerminalSpec(constant=0.0),
                                  BarrierSpec(pieces=((0.0, -0.3),)),
                                  BarrierSpec(pieces=((0.0, 0.3),)))
    assert len(trace.iterates) == trace.iterations + 1
    for bound in (trace.upper_bound_plus, trace.upper_bound_minus):
        assert len(bound) == levels
    for pair in trace.iterates:
        assert [len(process) for process in pair] == [levels, levels]
    assert monotone_iterate_check(tree, trace).passed


@pytest.mark.parametrize("index", [0, 1, 5, 10])
def test_ladder_gates_pass_on_the_studies_they_gate(worker, tmp_path, index):
    """The sweep, envelope and regularity gates run on their studies' real output."""
    workload = worker.LadderIterate(7, tmp_path)
    item = workload.prepare(index)
    assert item[0].study in ("sweep", "envelope", "regularity")
    assert workload.gate(item, workload.run(item)).reasons == []


@pytest.mark.parametrize("index", [2, 3, 4])
def test_picard_ops_run_on_the_names_they_read(worker, tmp_path, index):
    """One Picard op per solver kind, run without its gate.

    The op reads ``spec.driver.lipschitz_constant``, ``spec.barrier``,
    ``spec.lower`` and ``spec.upper``, and passes ``solver_kind``,
    ``barrier``, ``lower`` and ``upper`` to ``picard_solve``.
    """
    workload = worker.LadderIterate(7, tmp_path)
    item = workload.prepare(index)
    assert item[0].study == "picard"
    _, results = workload.run(item)
    assert [trace.converged for _, trace in results] == [True, True]
