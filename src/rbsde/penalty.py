"""Penalisation scheme: unreflected solves with the term n*(y - S)^-.

The implicit step solves the penalised equation exactly at every n, so
no stepsize restriction in n applies.  The ladder of penalty levels is
pointwise nondecreasing and dominated by the reflected solution; the
report records how the gaps close.  Rungs of data with states, and the
ladder's reflected solve, run on the tree's ``Lattice`` and are compared
per state (``rbsde.tree._level_pairs``); K at the horizon is compared on
the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import Solution, _backward_sweep, _implicit_y, _sweep_source, check_stepsize
from .errors import MonotonicityViolation
from .fixpoint import _weighted_norm
from .processes import BarrierSpec, DriverSpec, _on_grid
from .reflected import _Increments, _book, _finite, _summed, solve_reflected
from .snell import MONOTONE_TOL
from .tree import (Process, ScenarioTree, _level_pairs, _lined_up, _max_excess, _worst,
                   sup_diff)

# The penalised solves call the sweep directly, and the ladder's reflected solve
# is ``solve_reflected``; these names stay importable from this module for code
# that looks them up here (the benchmark's bench/tracing.py).
from .reflected import solve_bsde, solve_reflected_one  # noqa: F401


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
    n*dt*(S - Y)^+ is booked block by block as each block settles, and a
    level of it without mass is never allocated: ``kn`` there is its
    predecessor's array, as a solver's K is.  The sweep stores Z and V,
    which the ladder's gaps read.  Data with states run on the tree's
    ``Lattice``, and the solution and ``kn`` stay there
    (``rbsde.reflected._book``).
    """
    if not (math.isfinite(n) and n >= 0):
        raise ValueError(f"penalty weight must be finite and nonnegative, got {n}")
    check_stepsize(driver, tree)
    weight, dt = float(n), tree.dt
    grid, (xi, obstacle) = _on_grid(tree, terminal, barrier)
    flux = _Increments(grid, weight * dt)

    def settle(k, rows, rhs):
        s = obstacle.levels[k].rows(rows)
        y = _implicit_y(rhs, driver.a, dt)
        # at n = 0 the plain root stands: the penalised quotient would turn -0.0 into +0.0
        if weight != 0.0:
            penalised = np.multiply(weight * dt, s)
            penalised += rhs
            penalised /= 1.0 - driver.a * dt + weight * dt
            y = np.where(y >= s, y, penalised)
        flux.book(k, rows, s, y)
        return y

    y, z, v = _backward_sweep(tree, _sweep_source(tree, driver), xi, settle, store=True,
                              grid=grid)
    _finite(y[:-1], "the penalised solution Y")   # level N: evaluate tests a TerminalSpec
    solution = _book(tree, grid, (y, z, v, None, None), None)
    return PenalizedSolution(level=weight, solution=solution, kn=_summed(grid, flux.levels))


def _dt_dp_gap(tree: ScenarioTree, p: Process, q: Process) -> float:
    """The dt (x) dP norm of p - q, the alpha norm at alpha = 0.

    Two processes kept on one lattice are compared per state, weighed by
    state mass (``rbsde.tree._level_pairs``).
    """
    lattice, pairs = _level_pairs(p, q)
    return _weighted_norm(tree, ((a - b,) for a, b in pairs), 0.0, lattice)


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
    of the compensators at the horizon.  Data with states are solved and
    compared on the tree's ``Lattice``, K at the horizon on the nodes.
    """
    levels = tuple(float(n) for n in n_list)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_list must be ascending with at least two entries")

    reflected = solve_reflected(tree, driver, terminal, barrier)
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
        # both K at the horizon are stored at level n - 1 or above: the gap is
        # formed at the finer of the two, squared there and weighed by the
        # level rule, its products going into ``leaf``
        gap = np.subtract(*_lined_up(rung.kn[n], reflected_k)).ravel()
        k_gaps.append(float(np.sqrt(tree.expectation(n, np.square(gap, out=gap), out=leaf))))
        solutions.append(PenalizedSolution(level=rung.level, kn=None,
                                           solution=Solution(y=y, z=None, v=None)))
    if not violation <= MONOTONE_TOL:  # NaN fails too
        raise MonotonicityViolation(
            f"penalty ladder decreased by {violation:.3g} somewhere")
    return PenalizationReport(levels=levels, solutions=solutions, reflected=reflected,
                              sup_gaps=tuple(sup_gaps), z_gaps=tuple(z_gaps),
                              v_gaps=tuple(v_gaps), k_gaps=tuple(k_gaps),
                              monotone_violation=violation)
