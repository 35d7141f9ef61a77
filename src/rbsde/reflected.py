"""One-obstacle reflected solver and its Snell-envelope cross check.

The backward induction reflects after the implicit driver solve:
Y_k = max(S_k, candidate), candidate solving y = E[Y_{k+1}] + f dt, so
the compensator increment (1 - a dt)(Y_k - candidate) is nonnegative and
assigned one step ahead; the factor makes the step identity hold with
the driver evaluated at the reflected Y_k.  The jump-type part of the
compensator is extracted at the declared predictable jump times of the
obstacle via the left-limit formula, with a binding tolerance on the
preceding grid slot.  Each level is processed in cache-sized blocks of
parents and their children.  The compensators follow the level rule of
``rbsde.tree``: K_{k+1} is kept at level k, K_d only at declared levels.
"""

from __future__ import annotations

import numpy as np

from .bsde import (SolutionQuadruple, _backward_sweep, _implicit_y, _leaf_values,
                   barrier_values, check_stepsize)
from .bsde import project_level  # noqa: F401  (kept importable from this module)
from .errors import DriverNotCoefficientFree, TerminalBelowBarrier
from .processes import DriverSpec
from .snell import BIND_TOL, snell
from .tree import (Process, ScenarioTree, _accumulate, _block_rows, _children,
                   _parent_blocks, _worst, expand)

TERMINAL_SLACK = 1e-12


def _split_side(tree: ScenarioTree, y: Process, k_total: Process, obstacle, sign: int,
                bind_tol: float = BIND_TOL):
    """(K_c, K_d) of one compensator K stored by the level rule, over parent blocks.

    At a declared level the jump-type increment is (sign*(left - Y_k))^+
    on the event that the solution sat on the left limit one step
    earlier; the k - 1 slot stands in for the left limit of Y.  ``sign``
    is +1 for an obstacle below the solution and -1 for one above it.
    K_d is a whole-level array at declared levels and shared by the
    levels after them; K_c = K - K_d is a parent-level array like K,
    except at declared levels.
    """
    n = tree.num_steps
    k_d: Process = [np.zeros(1)]
    k_c: Process = [k_total[0] - k_d[0]]
    for k in range(1, n + 1):
        left = obstacle.left.get(k)
        if left is None:
            k_d.append(k_d[k - 1])
            k_c.append(k_total[k] - expand(tree, k_d[k], k - 1))
            continue
        kd = np.empty(tree.level_size(k))
        for rows in _parent_blocks(tree, k - 1):
            left_b = _children(tree, left, rows)
            binding = np.abs(y[k - 1][rows, None] - left_b) <= bind_tol
            gap = np.maximum(sign * (left_b - _children(tree, y[k], rows)), 0.0)
            np.add(_block_rows(tree, k_d[k - 1], k - 1, rows)[:, None],
                   np.where(binding, gap, 0.0), out=_children(tree, kd, rows))
        k_d.append(kd)
        k_c.append(expand(tree, k_total[k], k) - kd)
    return k_c, k_d


def solve_reflected_one(tree: ScenarioTree, driver, terminal, barrier) -> SolutionQuadruple:
    """Solve the one-obstacle problem by direct obstacle backward induction.

    Preconditions: the terminal payoff dominates the obstacle at every
    leaf and dt times the driver coefficient Lipschitz constant is below
    one.  Penalty drivers belong to the penalisation scheme, not here.
    """
    check_stepsize(driver, tree.dt)
    if getattr(driver, "penalty", None) is not None:
        raise ValueError("reflected solves take the bare driver, not a penalised one")
    obstacle = barrier_values(tree, barrier)
    xi = _leaf_values(tree, terminal)
    shortfall = float(np.min(xi - obstacle.values[tree.num_steps]))
    if shortfall < -TERMINAL_SLACK:
        raise TerminalBelowBarrier(
            f"terminal payoff dips {-shortfall:.3g} below the obstacle at a leaf")

    n = tree.num_steps
    dt = tree.dt
    # The driver is evaluated at the reflected y, so the increment closing
    # y = E[Y_next] + f(y) dt + dK is (1 - a dt)(y - candidate).
    scale = 1.0 - driver.a * dt
    inc: Process = [np.empty(tree.level_size(kk)) for kk in range(n)]

    def settle(kk, rows, rhs):
        candidate = _implicit_y(rhs, driver.a, dt)
        yk = np.maximum(obstacle.values[kk][rows], candidate)
        inc[kk][rows] = scale * (yk - candidate)
        return yk

    y, z, v, resid = _backward_sweep(tree, driver, xi, settle)
    k = _accumulate(inc)
    k_c, k_d = _split_side(tree, y, k, obstacle, +1)
    return SolutionQuadruple(y=y, z=z, v=v, k=k, k_c=k_c, k_d=k_d,
                             projection_residual=resid)


def obstacle_payoff(tree: ScenarioTree, driver, terminal, barrier):
    """Stopping payoff whose envelope represents the reflected solution.

    eta_k = sum_{j<k} g_j dt + S_k before the horizon and the same
    accumulated source plus the terminal payoff at it.  Also returns the
    matching left-limit table and the accumulated source per level.
    """
    if isinstance(driver, DriverSpec):
        if not driver.is_coefficient_free:
            raise DriverNotCoefficientFree(
                "the stopping representation needs a driver without (y, z, v) terms")
    else:
        raise DriverNotCoefficientFree("the stopping representation needs a plain driver")
    obstacle = barrier_values(tree, barrier)
    xi = _leaf_values(tree, terminal)
    n = tree.num_steps
    cum = np.concatenate(([0.0], np.cumsum(
        [driver.base_at(tree.time(k)) * tree.dt for k in range(n)])))
    payoff = [cum[k] + obstacle.values[k] for k in range(n)]
    payoff.append(cum[n] + xi)
    left = {level: cum[level] + vals for level, vals in obstacle.left.items()}
    return payoff, left, cum


def snell_representation_check(tree: ScenarioTree, solution: SolutionQuadruple,
                               driver, terminal, barrier) -> float:
    """Largest node-wise gap between the solver output and the envelope route."""
    payoff, _, cum = obstacle_payoff(tree, driver, terminal, barrier)
    envelope = snell(tree, payoff).envelope
    worst = 0.0
    for k in range(tree.num_steps + 1):
        worst = _worst(worst, float(np.max(np.abs(solution.y[k] + cum[k] - envelope[k]))))
    return worst
