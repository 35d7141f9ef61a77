"""Reflected solver for one obstacle or two, and its Snell-envelope cross check.

One backward induction solves both problems: one obstacle is the
two-obstacle problem with no upper side (U = +inf).  Each step solves
the implicit driver equation for a candidate y = E[Y_{k+1}] + f dt and
then applies each obstacle present in turn, lower first: Y_k =
max(candidate, L_k), then min(., U_k).  Each side books its compensator
increment, (1 - a dt)(L - candidate)^+ for K (K+) and (1 - a dt)
(candidate - U)^+ for K-, one step ahead; the factor makes the step
identity hold with the driver evaluated at the reflected Y_k.  The
jump-type part of each compensator is extracted at the declared
predictable jump times of its obstacle via the left-limit formula, with
a binding tolerance on the preceding grid slot.  Each level is processed
in cache-sized blocks of parents and their children.  The compensators
follow the level rule of ``rbsde.tree``: K_{k+1} is kept at level k, K_d
only at declared levels.
"""

from __future__ import annotations

import numpy as np

from .bsde import (Compensator, Solution, _backward_sweep, _implicit_y, _leaf_values,
                   _sweep_source, barrier_values, check_stepsize)
from .bsde import project_level  # noqa: F401  (kept importable from this module)
from .errors import (BarriersTouch, DriverNotCoefficientFree, TerminalBelowBarrier,
                     TerminalOutsideBarriers)
from .snell import BIND_TOL, _envelope
from .snell import snell  # noqa: F401  (kept importable from this module)
from .tree import (Process, ScenarioTree, _accumulate, _block_rows, _children,
                   _parent_blocks, _worst, expand)

TERMINAL_SLACK = 1e-12


def _split_side(tree: ScenarioTree, y: Process, k_total: Process, obstacle, sign: int,
                bind_tol: float = BIND_TOL) -> Compensator:
    """K = K_c + K_d of one compensator stored by the level rule, over parent blocks.

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
    return Compensator(k=k_total, k_c=k_c, k_d=k_d)


def _validate_obstacles(tree: ScenarioTree, xi: np.ndarray, low, up=None) -> None:
    """Terminal payoff inside [L, U] at every leaf, and L < U before the horizon."""
    n = tree.num_steps
    below = float(np.min(xi - low.values[n]))
    if up is None:
        if below < -TERMINAL_SLACK:
            raise TerminalBelowBarrier(
                f"terminal payoff dips {-below:.3g} below the obstacle at a leaf")
        return
    above = float(np.min(up.values[n] - xi))
    if below < -TERMINAL_SLACK or above < -TERMINAL_SLACK:
        raise TerminalOutsideBarriers("terminal payoff leaves the obstacle band at a leaf")
    for k in range(n):
        gap = float(np.min(up.values[k] - low.values[k]))
        if gap <= 0.0:
            raise BarriersTouch(
                f"obstacles touch at level {k} (gap {gap:.3g}); strict separation "
                "before the horizon is required")


def _obstacle_inputs(tree: ScenarioTree, terminal, lower, upper=None):
    """(L, U, xi) once the terminal lies in [L, U] and L < U; U is None for +inf."""
    low = barrier_values(tree, lower)
    up = None if upper is None else barrier_values(tree, upper)
    xi = _leaf_values(tree, terminal)
    _validate_obstacles(tree, xi, low, up)
    return low, up, xi


def _reflected_sweep(tree: ScenarioTree, source, a: float, xi: np.ndarray, low, up=None):
    """Y, Z, V and the assigned compensator increments of each side.

    ``source`` is the ``_backward_sweep`` source and ``a`` the driver's
    coefficient of y, solved for implicitly.  Returns (y, z, v, inc_p,
    inc_m); ``inc_m`` is None without an upper side.
    """
    n = tree.num_steps
    dt = tree.dt
    # The driver is evaluated at the reflected y, so the increments closing
    # y = E[Y_next] + f(y) dt + dK+ - dK- carry the factor (1 - a dt).
    scale = 1.0 - a * dt
    inc_p: Process = [np.empty(tree.level_size(k)) for k in range(n)]
    inc_m = None if up is None else [np.empty(tree.level_size(k)) for k in range(n)]

    # maximum(cand, lo) and minimum(y, hi) return the obstacle on a tie, so
    # even the sign of a zero Y is the same with or without an upper side
    def settle(k, rows, rhs):
        cand = _implicit_y(rhs, a, dt)
        lo = low.values[k][rows]
        inc_p[k][rows] = scale * np.maximum(lo - cand, 0.0)
        yk = np.maximum(cand, lo)
        if up is not None:
            hi = up.values[k][rows]
            inc_m[k][rows] = scale * np.maximum(cand - hi, 0.0)
            np.minimum(yk, hi, out=yk)
        return yk

    y, z, v = _backward_sweep(tree, source, xi, settle)
    return y, z, v, inc_p, inc_m


def _book(tree: ScenarioTree, swept, low, up=None) -> Solution:
    """Solution of a ``_reflected_sweep`` result, each side's K accumulated and split."""
    y, z, v, inc_p, inc_m = swept
    k_plus = _split_side(tree, y, _accumulate(inc_p), low, +1)
    k_minus = None if up is None else _split_side(tree, y, _accumulate(inc_m), up, -1)
    return Solution(y=y, z=z, v=v, lower=k_plus, upper=k_minus)


def solve_reflected(tree: ScenarioTree, driver, terminal, lower, upper=None) -> Solution:
    """Solve the reflected equation by direct obstacle backward induction.

    ``upper=None`` means U = +inf, the one-obstacle problem, and costs
    nothing: no upper values, increments or compensator exist for it.
    Preconditions: the terminal payoff lies in [L, U] at every leaf, the
    obstacles are strictly separated before the horizon, and dt times the
    driver's Lipschitz constant is below one.
    """
    check_stepsize(driver, tree.dt)
    low, up, xi = _obstacle_inputs(tree, terminal, lower, upper)
    swept = _reflected_sweep(tree, _sweep_source(tree, driver), driver.a, xi, low, up)
    return _book(tree, swept, low, up)


# The one-obstacle name of the same function: call sites that pass one obstacle
# use it, so the benchmark's tracer (bench/tracing.py) times them as their own layer.
solve_reflected_one = solve_reflected


def obstacle_payoff(tree: ScenarioTree, driver, terminal, barrier):
    """Stopping payoff whose envelope represents the reflected solution.

    eta_k = sum_{j<k} g_j dt + S_k before the horizon and the same
    accumulated source plus the terminal payoff at it.  Also returns the
    matching left-limit table and the accumulated source per level.
    """
    if not driver.is_coefficient_free:
        raise DriverNotCoefficientFree(
            "the stopping representation needs a driver without (y, z, v) terms")
    obstacle = barrier_values(tree, barrier)
    xi = _leaf_values(tree, terminal)
    n = tree.num_steps
    cum = np.concatenate(([0.0], np.cumsum(
        [driver.base_at(tree.time(k)) * tree.dt for k in range(n)])))
    payoff = [cum[k] + obstacle.values[k] for k in range(n)]
    payoff.append(cum[n] + xi)
    left = {level: cum[level] + vals for level, vals in obstacle.left.items()}
    return payoff, left, cum


def snell_representation_check(tree: ScenarioTree, solution: Solution,
                               driver, terminal, barrier) -> float:
    """Largest node-wise gap between the solver output and the envelope route."""
    payoff, _, cum = obstacle_payoff(tree, driver, terminal, barrier)
    envelope, _ = _envelope(tree, payoff)
    worst = 0.0
    for k in range(tree.num_steps + 1):
        worst = _worst(worst, float(np.max(np.abs(solution.y[k] + cum[k] - envelope[k]))))
    return worst
