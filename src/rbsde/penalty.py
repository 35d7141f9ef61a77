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

from .bsde import Solution, _backward_sweep, _implicit_y, _sweep_source, check_stepsize
from .errors import MonotonicityViolation
from .fixpoint import _gaps, _weighted_norm
from .processes import BarrierSpec, DriverSpec, evaluate
from .reflected import _book_increment, _finite, solve_reflected_one
from .snell import MONOTONE_TOL
from .tree import Process, ScenarioTree, _accumulate, _max_excess, _worst, sup_diff

# The penalised solves call the sweep directly; this name stays importable from
# this module for code that looks it up here (the benchmark's bench/tracing.py).
from .reflected import solve_bsde  # noqa: F401


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
    check_stepsize(driver, tree)
    weight, dt = float(n), tree.dt
    xi, obstacle = evaluate(tree, terminal, barrier)
    flux: Process = [np.empty(tree.level_size(k)) for k in range(tree.num_steps)]

    def settle(k, rows, rhs):
        s = obstacle.levels[k].rows(rows)
        y = _implicit_y(rhs, driver.a, dt)
        # at n = 0 the plain root stands: the penalised quotient would turn -0.0 into +0.0
        if weight != 0.0:
            penalised = np.multiply(weight * dt, s)
            penalised += rhs
            penalised /= 1.0 - driver.a * dt + weight * dt
            y = np.where(y >= s, y, penalised)
        _book_increment(np.subtract(s, y, out=flux[k][rows]), weight * dt)
        return y

    y, z, v = _backward_sweep(tree, _sweep_source(tree, driver), xi, settle)
    _finite(y[:-1], "the penalised solution Y")   # level N: evaluate tests a TerminalSpec
    return PenalizedSolution(level=weight, solution=Solution(y=y, z=z, v=v),
                             kn=_accumulate(flux))


def _dt_dp_gap(tree: ScenarioTree, p: Process, q: Process) -> float:
    """The dt (x) dP norm of p - q, the alpha norm at alpha = 0, shared finite levels left out."""
    return _weighted_norm(tree, (_gaps((a, b)) for a, b in zip(p, q)), 0.0)


@dataclass(eq=False)
class PenalizationReport:
    """The ladder's gaps to the reflected solve, and what the sweep keeps of each rung.

    ``solutions[i]`` is the rung at ``levels[i]`` with its Y alone: its
    ``solution.z``, ``solution.v`` and ``kn`` are None, since the gaps that
    read them are taken while the rung is solved.  ``reflected`` is the
    whole reflected solution.  ``sup_gaps`` are sup-norm gaps of Y,
    ``z_gaps`` and ``v_gaps`` dt (x) dP gaps, ``k_gaps`` the L2 gaps of the
    compensators at the horizon, and ``monotone_violation`` is the largest
    fall of Y from one rung to the next.
    """

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

    Solves the reflected problem first, then each rung in turn: the
    rung's Y is compared with the previous rung's and its gaps to the
    reflected solution are taken, and only its Y is kept.  Verifies
    Y^n <= Y^{n+1} pointwise along the ladder (raising
    MonotonicityViolation beyond 1e-12, once every rung is solved) and
    records sup-norm gaps of Y, dt (x) dP gaps of (Z, V) and the L2 gap
    of the compensators at the horizon.  With an evaluated terminal every
    solve here shares Z_{N-1} and V_{N-1} (``rbsde.bsde._backward_sweep``),
    and the dt (x) dP gaps leave out such a shared, finite level, whose
    differences would be +0.0.
    """
    levels = tuple(float(n) for n in n_list)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_list must be ascending with at least two entries")

    reflected = solve_reflected_one(tree, driver, terminal, barrier)
    n = tree.num_steps
    reflected_k = reflected.lower.k[n]
    solutions: list = []
    leaf = np.empty(tree.level_size(n))   # scratch of every rung's K gap
    sup_gaps, z_gaps, v_gaps, k_gaps = [], [], [], []
    violation = 0.0
    for level in levels:
        rung = solve_penalized(tree, driver, barrier, terminal, level)
        y = rung.solution.y
        if solutions:
            violation = _worst(violation, _max_excess(solutions[-1].solution.y, y))
        sup_gaps.append(sup_diff(y, reflected.y))
        z_gaps.append(_dt_dp_gap(tree, rung.solution.z, reflected.z))
        v_gaps.append(_dt_dp_gap(tree, rung.solution.v, reflected.v))
        # both K at the horizon are stored at level n - 1: the gap is squared
        # there and weighed by the level rule, its products going into ``leaf``
        k_gaps.append(float(np.sqrt(
            tree.expectation(n, (rung.kn[n] - reflected_k) ** 2, out=leaf))))
        solutions.append(PenalizedSolution(level=rung.level, kn=None,
                                           solution=Solution(y=y, z=None, v=None)))
    if not violation <= MONOTONE_TOL:  # NaN fails too
        raise MonotonicityViolation(
            f"penalty ladder decreased by {violation:.3g} somewhere")
    return PenalizationReport(levels=levels, solutions=solutions, reflected=reflected,
                              sup_gaps=tuple(sup_gaps), z_gaps=tuple(z_gaps),
                              v_gaps=tuple(v_gaps), k_gaps=tuple(k_gaps),
                              monotone_violation=violation)
