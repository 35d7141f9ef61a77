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
