"""Reference checks for deep_solve, run in a child process of the benchmark.

Reads one JSON request per line on stdin and answers one JSON line on
stdout, until stdin closes.  A request names a problem config, a file
with the Y levels an op produced (``numpy.save`` of the concatenated
levels) and a check:

* ``snell``: ``snell_representation_check`` of that Y, for one-obstacle
  problems with a coefficient-free driver;
* ``envelope``: the largest node-wise gap between that Y and the Y of
  ``picard_snell_solve``, for coefficient-free bands.

The checks rebuild the tree and take several times the memory of the op,
so they run here: the process that runs the ops keeps a peak resident
set of its own.

Run as ``python3 bench/reference.py`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import numpy as np

from rbsde.config import parse_config
from rbsde.reflected import snell_representation_check
from rbsde.twobarrier import picard_snell_solve


def _levels(tree, flat: np.ndarray) -> list[np.ndarray]:
    sizes = [tree.level_size(k) for k in range(tree.num_steps + 1)]
    if flat.shape != (sum(sizes),):
        raise ValueError(f"expected {sum(sizes)} Y values, got shape {flat.shape}")
    return np.split(flat, np.cumsum(sizes)[:-1])


def check(request: dict) -> float:
    problem, _ = parse_config(request["config"])
    tree = problem.build_tree()
    y = _levels(tree, np.load(request["y"]))
    if request["check"] == "snell":
        return snell_representation_check(tree, SimpleNamespace(y=y), problem.driver,
                                          problem.terminal, problem.barrier)
    if request["check"] == "envelope":
        reference, _ = picard_snell_solve(tree, problem.driver, problem.terminal,
                                          problem.lower, problem.upper)
        return max(float(np.max(np.abs(a - b))) for a, b in zip(y, reference.y))
    raise ValueError(f"unknown check {request['check']!r}")


def main() -> int:
    for line in sys.stdin:
        try:
            answer = {"residual": check(json.loads(line))}
        except Exception as exc:  # reported to the benchmark as a failed op
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
