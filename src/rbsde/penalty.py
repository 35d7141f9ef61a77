"""Penalisation scheme: unreflected solves with the term n*(y - S)^-.

The implicit step solves the penalised equation exactly at every n, so
no stepsize restriction in n applies.  The ladder of penalty levels is
pointwise nondecreasing and dominated by the reflected solution; the
report records how the gaps close.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bsde import SolutionQuadruple, barrier_values, solve_bsde
from .errors import MonotonicityViolation
from .processes import BarrierSpec, DriverSpec, PenaltyTerm
from .reflected import solve_reflected_one
from .tree import Process, ScenarioTree, _accumulate, _worst, expand, sup_diff

MONOTONE_TOL = 1e-12


@dataclass(eq=False)
class PenalizedSolution:
    level: float
    solution: SolutionQuadruple
    kn: Process  # accumulated penalty flux n*(Y^n - S)^- dt, by the level rule


def solve_penalized(tree: ScenarioTree, driver: DriverSpec, barrier: BarrierSpec,
                    terminal, n: float) -> PenalizedSolution:
    """Solve the unreflected equation with penalty weight ``n``."""
    if driver.penalty is not None:
        raise ValueError("base driver already carries a penalty term")
    if n < 0:
        raise ValueError("penalty weight must be nonnegative")
    pen_driver = replace(driver, penalty=PenaltyTerm(weight=float(n), barrier=barrier))
    solution = solve_bsde(tree, pen_driver, terminal)
    obstacle = barrier_values(tree, barrier)
    fluxes = [float(n) * tree.dt * np.maximum(obstacle.values[k] - solution.y[k], 0.0)
              for k in range(tree.num_steps)]
    kn = _accumulate(fluxes)
    return PenalizedSolution(level=float(n), solution=solution, kn=kn)


def dt_dp_gap(tree: ScenarioTree, p: Process, q: Process,
              mark_weights: np.ndarray | None = None) -> float:
    """Gap in the dt (x) dP norm, optionally intensity-weighted per mark."""
    total = 0.0
    for k in range(len(p)):
        diff = np.asarray(p[k], dtype=float) - np.asarray(q[k], dtype=float)
        if diff.ndim == 2:
            if mark_weights is not None and mark_weights.size:
                sq = (diff ** 2) @ mark_weights
            else:
                sq = (diff ** 2).sum(axis=1)
        else:
            sq = diff ** 2
        total += tree.dt * tree.expectation(k, sq)
    return float(np.sqrt(total))


@dataclass(eq=False)
class PenalizationReport:
    levels: tuple[float, ...]
    solutions: list
    reflected: SolutionQuadruple
    sup_gaps: tuple[float, ...]
    z_gaps: tuple[float, ...]
    v_gaps: tuple[float, ...]
    k_gaps: tuple[float, ...]
    probe_level: int
    monotone_violation: float


def sweep(tree: ScenarioTree, driver: DriverSpec, barrier: BarrierSpec, terminal,
          n_list, probe_level: int | None = None) -> PenalizationReport:
    """Run the penalty ladder and measure convergence to the reflected solve.

    Verifies Y^n <= Y^{n+1} pointwise along the ladder (raising
    MonotonicityViolation beyond 1e-12) and records sup-norm gaps of Y,
    dt (x) dP gaps of (Z, V) and the L2 gap of the compensators at the
    probe level (the terminal level unless chosen otherwise).
    """
    levels = tuple(float(n) for n in n_list)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_list must be ascending with at least two entries")
    if probe_level is None:
        probe_level = tree.num_steps
    if not 0 <= probe_level <= tree.num_steps:
        raise ValueError("probe level outside the grid")

    solutions = [solve_penalized(tree, driver, barrier, terminal, n) for n in levels]
    violation = 0.0
    for lo, hi in zip(solutions, solutions[1:]):
        for a, b in zip(lo.solution.y, hi.solution.y):
            violation = _worst(violation, float(np.max(a - b)))
    if not violation <= MONOTONE_TOL:  # NaN fails too
        raise MonotonicityViolation(
            f"penalty ladder decreased by {violation:.3g} somewhere")

    reflected = solve_reflected_one(tree, driver, terminal, barrier)
    lam = tree.marks.intensity_array
    sup_gaps = tuple(sup_diff(s.solution.y, reflected.y) for s in solutions)
    z_gaps = tuple(dt_dp_gap(tree, s.solution.z, reflected.z) for s in solutions)
    v_gaps = tuple(dt_dp_gap(tree, s.solution.v, reflected.v, lam) for s in solutions)
    reflected_k = expand(tree, reflected.k[probe_level], probe_level)
    k_gaps = tuple(
        float(np.sqrt(tree.expectation(
            probe_level, (expand(tree, s.kn[probe_level], probe_level) - reflected_k) ** 2)))
        for s in solutions)
    return PenalizationReport(levels=levels, solutions=solutions, reflected=reflected,
                              sup_gaps=sup_gaps, z_gaps=z_gaps, v_gaps=v_gaps,
                              k_gaps=k_gaps, probe_level=probe_level,
                              monotone_violation=violation)
