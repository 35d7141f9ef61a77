"""Penalisation scheme: unreflected solves with the term n*(y - S)^-.

The implicit step solves the penalised equation exactly at every n, so
no stepsize restriction in n applies.  The ladder of penalty levels is
pointwise nondecreasing and dominated by the reflected solution; the
report records how the gaps close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import (Solution, _backward_sweep, _implicit_y, _leaf_values, _sweep_source,
                   barrier_values, check_stepsize)
from .errors import MonotonicityViolation
from .processes import BarrierSpec, DriverSpec
from .reflected import solve_reflected_one
from .snell import MONOTONE_TOL
from .tree import Process, ScenarioTree, _accumulate, _worst, expand, sup_diff

# The penalised solves call the sweep directly; this name stays importable from
# this module for code that looks it up here (the benchmark's bench/tracing.py).
from .bsde import solve_bsde  # noqa: F401


@dataclass(eq=False)
class PenalizedSolution:
    level: float
    solution: Solution
    kn: Process  # accumulated penalty flux n*(Y^n - S)^- dt, by the level rule


def solve_penalized(tree: ScenarioTree, driver: DriverSpec, barrier: BarrierSpec,
                    terminal, n: float) -> PenalizedSolution:
    """Solve the unreflected equation with the driver plus n*(y - S)^-.

    Each step solves y = rhs + a*dt*y + n*dt*(y - S)^- exactly: piecewise
    linear in y with a kink at y = S, and both slopes are positive once
    a*dt < 1, so the case split picks the unique root.  The flux
    n*dt*(S - Y)^+ is booked block by block as each block settles.
    """
    if not (math.isfinite(n) and n >= 0):
        raise ValueError(f"penalty weight must be finite and nonnegative, got {n}")
    check_stepsize(driver, tree.dt)
    weight, dt = float(n), tree.dt
    obstacle = barrier_values(tree, barrier).values
    flux: Process = [np.empty(tree.level_size(k)) for k in range(tree.num_steps)]

    def settle(k, rows, rhs):
        s = obstacle[k][rows]
        y = _implicit_y(rhs, driver.a, dt)
        # at n = 0 the plain root stands: the penalised quotient would turn -0.0 into +0.0
        if weight != 0.0:
            penalised = (rhs + weight * dt * s) / (1.0 - driver.a * dt + weight * dt)
            y = np.where(y >= s, y, penalised)
        flux[k][rows] = weight * dt * np.maximum(s - y, 0.0)
        return y

    y, z, v = _backward_sweep(tree, _sweep_source(tree, driver),
                              _leaf_values(tree, terminal), settle)
    return PenalizedSolution(level=weight, solution=Solution(y=y, z=z, v=v),
                             kn=_accumulate(flux))


def dt_dp_gap(tree: ScenarioTree, p: Process, q: Process) -> float:
    """Gap in the dt (x) dP norm; a marked process weights mark i by its intensity."""
    lam = tree.marks.intensity_array
    total = 0.0
    for k in range(len(p)):
        diff = np.asarray(p[k], dtype=float) - np.asarray(q[k], dtype=float)
        sq = (diff ** 2) @ lam if diff.ndim == 2 else diff ** 2
        total += tree.dt * tree.expectation(k, sq)
    return float(np.sqrt(total))


@dataclass(eq=False)
class PenalizationReport:
    levels: tuple[float, ...]
    solutions: list
    reflected: Solution
    sup_gaps: tuple[float, ...]
    z_gaps: tuple[float, ...]
    v_gaps: tuple[float, ...]
    k_gaps: tuple[float, ...]
    monotone_violation: float


def sweep(tree: ScenarioTree, driver: DriverSpec, barrier: BarrierSpec, terminal,
          n_list) -> PenalizationReport:
    """Run the penalty ladder and measure convergence to the reflected solve.

    Verifies Y^n <= Y^{n+1} pointwise along the ladder (raising
    MonotonicityViolation beyond 1e-12) and records sup-norm gaps of Y,
    dt (x) dP gaps of (Z, V) and the L2 gap of the compensators at the
    horizon.
    """
    levels = tuple(float(n) for n in n_list)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_list must be ascending with at least two entries")

    solutions = [solve_penalized(tree, driver, barrier, terminal, n) for n in levels]
    violation = 0.0
    for lo, hi in zip(solutions, solutions[1:]):
        for a, b in zip(lo.solution.y, hi.solution.y):
            violation = _worst(violation, float(np.max(a - b)))
    if not violation <= MONOTONE_TOL:  # NaN fails too
        raise MonotonicityViolation(
            f"penalty ladder decreased by {violation:.3g} somewhere")

    reflected = solve_reflected_one(tree, driver, terminal, barrier)
    sup_gaps = tuple(sup_diff(s.solution.y, reflected.y) for s in solutions)
    z_gaps = tuple(dt_dp_gap(tree, s.solution.z, reflected.z) for s in solutions)
    v_gaps = tuple(dt_dp_gap(tree, s.solution.v, reflected.v) for s in solutions)
    n = tree.num_steps
    reflected_k = expand(tree, reflected.lower.k[n], n)
    k_gaps = tuple(
        float(np.sqrt(tree.expectation(n, (expand(tree, s.kn[n], n) - reflected_k) ** 2)))
        for s in solutions)
    return PenalizationReport(levels=levels, solutions=solutions, reflected=reflected,
                              sup_gaps=sup_gaps, z_gaps=z_gaps, v_gaps=v_gaps,
                              k_gaps=k_gaps, monotone_violation=violation)
