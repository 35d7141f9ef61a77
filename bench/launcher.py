"""Traced stand-in for ``python -m rbsde.cli`` in the cli_roundtrip workload.

Usage: ``python3 bench/launcher.py SPANS_JSON CLI_ARGS...`` with ``src``
on ``PYTHONPATH``.  Times a fresh ``import rbsde.cli``, wraps the layer
entry points (bench/tracing.py), runs ``rbsde.cli.main`` on the
remaining arguments, writes the spans and their per-layer summary to
SPANS_JSON and exits with the CLI's exit code.
"""

import sys
import time

_START = time.perf_counter()
import rbsde.cli  # noqa: E402  (timed as cli.startup_s)

STARTUP_S = time.perf_counter() - _START

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, cli=True)
    tracer.active = True
    try:
        code = rbsde.cli.main(argv)
    finally:
        tracer.active = False
        restore()
        tracer.dump(spans_path, {"startup_s": STARTUP_S})
    return code


if __name__ == "__main__":
    sys.exit(main())
