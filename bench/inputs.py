"""Seeded problem generator for the benchmark workloads.

Every problem is a plain configuration mapping in the schema that
``rbsde.config`` accepts, so the program receives nothing but generated
configs.  The generator uses only the standard library: it never asks
the program whether a problem is valid.  Validity holds by construction:

* obstacle breakpoints lie on the grid (``k / steps``), so no declared
  jump raises ``JumpTimeOffGrid``;
* the terminal dominates a single obstacle at every leaf, because the
  obstacle is the terminal's conditional-mean shape plus a step function
  whose last piece is at most zero (or a step function alone under a
  call/put terminal, which is nonnegative);
* a two-obstacle band is that conditional mean plus a strictly negative
  lower step and a strictly positive upper step, so it contains the
  terminal at every leaf and the built-in martingale witness of the
  envelope recursion passes;
* drivers with coefficients keep ``dt * (|a| + |b| + |c| sqrt(sum lam))``
  far below one.

Which shape, solver kind and driver class an op gets is a fixed function
of its index, so every seed runs the same mix and only the numbers move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (marks, steps) of deep_solve trees: 2.1M, 1.4M and 2.0M nodes, whose
# largest level arrays (8-13 MB) do not fit in a 4 MiB L2 cache.
DEEP_SHAPES = ((0, 20), (1, 10), (2, 8))
# (kind, obstacle family, coefficients) slots per shape: one obstacle on
# 4/6 of the ops, a band on 2/6, a driver with a, b, c != 0 on 2/6.
DEEP_SLOTS = (("one_barrier", "mean", False), ("two_barrier", "mean", False),
              ("one_barrier", "mean", True), ("one_barrier", "payoff", False),
              ("two_barrier", "mean", True), ("one_barrier", "payoff", False))

# cli_roundtrip: one mark, small grids, every solve dumps per-node data.
CLI_STEPS = (4, 5, 6)
CLI_SLOTS = (("one_barrier", "mean", False), ("two_barrier", "mean", False),
             ("one_barrier", "payoff", True), ("two_barrier", "mean", True))

# ladder_iterate: one mark on mid-size trees whose level arrays (<= 2 MB)
# fit in L2, and the studies that repeat backward sweeps on one tree.
LADDER_STEPS = (8, 9)
LADDER_SLOTS = (("sweep", "one_barrier", False), ("sweep", "one_barrier", True),
                ("picard", "standard", True), ("picard", "one_barrier", True),
                ("picard", "two_barrier", True), ("envelope", "two_barrier", False),
                ("uniqueness", "one_barrier", False), ("uniqueness", "one_barrier", True),
                ("uniqueness", "two_barrier", False), ("uniqueness", "two_barrier", True),
                ("regularity", "one_barrier", False), ("regularity", "one_barrier", True))

# Ops per full pass over each schedule: every timing-relevant choice
# repeats with this period, so runs made of whole cycles share one mix.
CYCLE = {"deep_solve": len(DEEP_SHAPES) * len(DEEP_SLOTS),
         "cli_roundtrip": 2 * len(CLI_STEPS) * len(CLI_SLOTS),
         "ladder_iterate": len(LADDER_STEPS) * len(LADDER_SLOTS)}


def node_count(marks: int, steps: int) -> int:
    """Nodes of the full scenario tree: sum of (2(m+1))^k over k <= steps."""
    branching = 2 * (marks + 1)
    return (branching ** (steps + 1) - 1) // (branching - 1)


@dataclass(frozen=True)
class Problem:
    """One generated input and the facts the benchmark needs about it."""

    config: dict
    kind: str            # one_barrier, two_barrier or standard
    marks: int
    steps: int
    coefficients: bool   # driver has a, b, c != 0
    study: str = ""      # ladder_iterate only

    @property
    def nodes(self) -> int:
        return node_count(self.marks, self.steps)


def _rng(seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{stream}/{index}")


def _grid_times(rng: random.Random, steps: int, count: int) -> list[float]:
    levels = sorted(rng.sample(range(1, steps), count))
    return [level / steps for level in levels]


def _steps_fn(rng: random.Random, steps: int, lo: float, hi: float,
              last_lo: float, last_hi: float) -> list[list[float]]:
    """Right-continuous step function with one or two breakpoints on the grid."""
    times = [0.0] + _grid_times(rng, steps, rng.choice((1, 2)))
    values = [rng.uniform(lo, hi) for _ in times[:-1]] + [rng.uniform(last_lo, last_hi)]
    return [[t, v] for t, v in zip(times, values)]


def _marks(rng: random.Random, count: int) -> list[dict]:
    return [{"size": float(i + 1), "intensity": rng.uniform(0.2, 0.8)}
            for i in range(count)]


def _driver(rng: random.Random, steps: int, coefficients: bool, scale: float) -> dict:
    if rng.random() < 0.5:
        driver = {"g": rng.uniform(-scale, scale)}
    else:
        first = rng.uniform(0.5 * scale, scale) * rng.choice((-1.0, 1.0))
        second = -rng.uniform(0.5 * scale, scale) * (1.0 if first > 0 else -1.0)
        driver = {"g": [[0.0, first], [_grid_times(rng, steps, 1)[0], second]]}
    if coefficients:
        driver["a"] = rng.uniform(0.1, 0.5)
        driver["b"] = rng.uniform(0.1, 0.5) * rng.choice((-1.0, 1.0))
        driver["c"] = rng.uniform(0.1, 0.4) * rng.choice((-1.0, 1.0))
    return driver


def _mean_shape(rng: random.Random, marks: list[dict]) -> tuple[dict, dict]:
    """A linear terminal and the compensated obstacle part equal to its conditional mean."""
    xi0 = rng.uniform(-0.2, 0.2)
    w_coeff = rng.uniform(0.2, 0.8)
    counts = [rng.uniform(0.1, 0.5) for _ in marks]
    terminal = {"kind": "linear", "intercept": xi0, "w_coeff": w_coeff,
                "count_coeffs": counts}
    mean = {"kind": "linear",
            "intercept": xi0 + sum(c * m["intensity"] for c, m in zip(counts, marks)),
            "w_coeff": w_coeff, "count_coeffs": counts, "compensated": True}
    return terminal, mean


def one_obstacle(rng: random.Random, marks: int, steps: int, coefficients: bool,
                 family: str = "mean") -> Problem:
    """A stochastic obstacle under a linear terminal ("mean"), or a step
    obstacle under a call or put terminal ("payoff")."""
    mark_list = _marks(rng, marks)
    if family == "mean":
        terminal, mean = _mean_shape(rng, mark_list)
        barrier = {"pieces": _steps_fn(rng, steps, -0.1, 0.4, -0.3, 0.0), "stochastic": mean}
    else:
        terminal = {"kind": rng.choice(("call", "put")), "strike": rng.uniform(-0.5, 0.5),
                    "w_coeff": rng.uniform(0.5, 1.5)}
        barrier = {"pieces": _steps_fn(rng, steps, 0.05, 0.6, -0.3, 0.0)}
    config = {"grid": {"steps": steps}, "marks": mark_list, "terminal": terminal,
              "driver": _driver(rng, steps, coefficients, 0.5), "barrier": barrier,
              "solver": {"kind": "one_barrier"}}
    return Problem(config, "one_barrier", marks, steps, coefficients)


def two_obstacle(rng: random.Random, marks: int, steps: int, coefficients: bool) -> Problem:
    mark_list = _marks(rng, marks)
    terminal, mean = _mean_shape(rng, mark_list)
    lower = {"pieces": _steps_fn(rng, steps, -0.3, -0.05, -0.3, -0.05), "stochastic": mean}
    upper = {"pieces": _steps_fn(rng, steps, 0.05, 0.3, 0.05, 0.3), "stochastic": mean}
    # A source of a few units per time pushes Y onto both obstacles.
    config = {"grid": {"steps": steps}, "marks": mark_list, "terminal": terminal,
              "driver": _driver(rng, steps, coefficients, 3.0),
              "barriers": {"lower": lower, "upper": upper},
              "solver": {"kind": "two_barrier"}}
    return Problem(config, "two_barrier", marks, steps, coefficients)


def unreflected(rng: random.Random, marks: int, steps: int, coefficients: bool) -> Problem:
    config = {"grid": {"steps": steps}, "marks": _marks(rng, marks),
              "terminal": {"kind": "call", "strike": rng.uniform(-0.5, 0.5),
                           "w_coeff": rng.uniform(0.5, 1.5)},
              "driver": _driver(rng, steps, coefficients, 0.5),
              "solver": {"kind": "standard"}}
    return Problem(config, "standard", marks, steps, coefficients)


def _build(kind: str, rng: random.Random, marks: int, steps: int, coefficients: bool,
           family: str = "mean") -> Problem:
    if kind == "one_barrier":
        return one_obstacle(rng, marks, steps, coefficients, family)
    if kind == "two_barrier":
        return two_obstacle(rng, marks, steps, coefficients)
    return unreflected(rng, marks, steps, coefficients)


def deep_problem(seed: int, stream: str, index: int) -> Problem:
    marks, steps = DEEP_SHAPES[index % len(DEEP_SHAPES)]
    kind, family, coefficients = DEEP_SLOTS[(index // len(DEEP_SHAPES)) % len(DEEP_SLOTS)]
    return _build(kind, _rng(seed, stream, index), marks, steps, coefficients, family)


def cli_problem(seed: int, stream: str, index: int) -> Problem:
    """Problems for CLI round trips: b, c != 0 on half of them, a = 0 throughout.

    A driver with a != 0 makes the direct solvers fail the dynamics
    clause (a known defect that deep_solve measures); here it would only
    turn process-start and serialisation runs into exit-code-4 runs.
    """
    steps = CLI_STEPS[index % len(CLI_STEPS)]
    kind, family, coefficients = CLI_SLOTS[(index // len(CLI_STEPS)) % len(CLI_SLOTS)]
    problem = _build(kind, _rng(seed, stream, index), 1, steps, coefficients, family)
    if coefficients:
        problem.config["driver"]["a"] = 0.0
    return problem


def ladder_problem(seed: int, stream: str, index: int) -> Problem:
    study, kind, coefficients = LADDER_SLOTS[index % len(LADDER_SLOTS)]
    steps = LADDER_STEPS[(index // len(LADDER_SLOTS)) % len(LADDER_STEPS)]
    problem = _build(kind, _rng(seed, stream, index), 1, steps, coefficients)
    return Problem(problem.config, kind, 1, steps, coefficients, study)
