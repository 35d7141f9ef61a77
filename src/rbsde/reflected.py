"""Backward solver for zero, one or two obstacles, and its Snell-envelope cross checks.

One backward induction solves all three: no obstacle (``solve_bsde``)
is L = -inf and U = +inf, and one obstacle is U = +inf.  Each step solves
the implicit driver equation for a candidate y = E[Y_{k+1}] + f dt and
then applies each obstacle present in turn, lower first: Y_k =
max(candidate, L_k), then min(., U_k).  Each side books its compensator
increment, (1 - a dt)(L - candidate)^+ for K (K+) and (1 - a dt)
(candidate - U)^+ for K-, one step ahead; the factor makes the step
identity hold with the driver evaluated at the reflected Y_k.  The
jump-type part of each compensator is extracted at the declared
predictable jump times of its obstacle via the left-limit formula, with
the binding tolerance ``rbsde.snell.BIND_TOL`` on the preceding grid
slot, the one the checker applies.  Each level is processed in
cache-sized blocks of parents and their children, and the obstacle
validation takes its minima over blocks too.  An obstacle block is
formed on read as base + part (``rbsde.processes.ObstacleLevel``), and
the increments are booked in place, so a step allocates no temporary
beyond its obstacle blocks; a side's increment level is allocated only
once one of its blocks has mass (``_Increments``).  The compensators
follow the level rule of ``rbsde.tree``: K_{k+1} is kept at level k,
and K_d at declared levels, each only where it moves, a level without
mass being its predecessor's array.  No solver stores K_c: a
compensator's K_c is K - K_d, formed from the stored arrays on each
read without expanding either (``rbsde.bsde.ContinuousPart``), and K's
own array where K_d is +0.0 at every node.  The envelope route's
``regularity_check`` splits the Snell envelope's K with the same
``_split_side``.

A direct solve (``solve_reflected``) of data with states, a
``TerminalSpec`` and ``BarrierSpec``s, runs on the tree's ``Lattice`` of
distinct node states: a node's state fixes its subtree, so Y_k, the
increments of K and the jump-type masses of K_d are functions of it (of
the parent's state and the branch, for a mass).  The obstacle
validation, the sweep, the finiteness test of Y, the booking and the
split run there, one row per state (a few hundred per level where the
tree has millions of nodes), and the solution stays there
(``rbsde.tree.StateLevels``): a node level of Y, K or K_d is formed on
read, K and K_d as sums along the path by ``_accumulate``.  Every step is
row by row and every state of a lattice level occurs at that level, so
each bit, each level without mass and each message is the node solve's.
The caller's own arrays (a terminal array, ``BarrierValues``) have no
states, and the sweeps that store Z and V (``_solve(store=True)``, Picard
rounds and penalised rungs) keep their node-level Z, V and ``LastStep``:
these run on the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import (Compensator, Projection, Solution, _backward_sweep, _implicit_y,
                   _project_v, _project_z, _sweep_source, check_stepsize)
from .bsde import project_level  # noqa: F401  (kept importable from this module)
from .errors import (BarriersTouch, DriverNotCoefficientFree, NonFiniteData,
                     TerminalBelowBarrier, TerminalOutsideBarriers)
from .processes import ObstacleLevel, _on_lattice, evaluate
from .snell import BIND_TOL, REGULAR_TOL, SnellResult, _envelope
from .snell import snell  # noqa: F401  (kept importable from this module)
from .tree import (_BLOCK_NODES, Process, ScenarioTree, StateLevels, _accumulate, _all_finite,
                   _children, _parent_blocks, _parent_rows, expand, sup_diff, terminal_mean)

TERMINAL_SLACK = 1e-12


def _split_side(grid, y: Process, obstacle, sign: int) -> Process:
    """The jump-type part K_d of one compensator, over parent blocks of ``grid``.

    At a declared level the jump-type increment is (sign*(left - Y_k))^+
    on the event that the solution sat on the left limit one step
    earlier; the k - 1 slot stands in for the left limit of Y.  ``sign``
    is +1 for an obstacle below the solution and -1 for one above it.  A
    declared level has mass where some increment is not ±0.0 (a NaN is
    mass); the level is formed from the first block with mass, and each
    later block's masses are added in place.

    On the tree, the result is K_d by the level rule: a whole-level array
    at declared levels with mass, their predecessor's expanded values plus
    the masses, and shared by the levels after them and by a declared
    level without mass.  K_d is +0.0 or above, or NaN, so x + (±0.0) is x,
    and a block without mass adds nothing.  On the tree's ``Lattice`` the
    result is each level's masses, a (parent rows, B) table at a declared
    level with mass, rows before the first block with mass +0.0, and None
    elsewhere: ``rbsde.tree.StateLevels`` sums them along the path with
    the node split's bits.  No K_c level is stored: the compensator's K_c
    is the ``ContinuousPart`` K - K_d, formed from K and K_d on each read.
    """
    n = grid.num_steps
    on_nodes = isinstance(grid, ScenarioTree)
    k_d: Process = [np.zeros(1) if on_nodes else None]
    with np.errstate(over="ignore"):   # as in the sweep, an overflow warns nothing
        for k in range(1, n + 1):
            left = obstacle.left_levels.get(k)
            kd = None   # until a block adds mass, the level is the one before it
            for rows in () if left is None else _parent_blocks(grid, k - 1):
                left_b = left.rows((rows, None))   # a column against the children
                binding = np.abs(y[k - 1][rows, None] - left_b) <= BIND_TOL
                gap = np.maximum(sign * (left_b - grid.children(y[k], k - 1, rows)), 0.0)
                mass = np.where(binding, gap, 0.0)
                if mass.any():
                    if kd is None:
                        kd = (expand(grid, k_d[k - 1], k) if on_nodes
                              else np.zeros(grid.level_size(k - 1) * grid.branching))
                    _children(grid, kd, rows)[...] += mass
            if on_nodes:
                k_d.append(k_d[k - 1] if kd is None else kd)
            else:
                k_d.append(None if kd is None else kd.reshape(-1, grid.branching))
    return k_d


def _own(block):
    """``block`` where it is a fresh obstacle block to write a result into, else None.

    ``ObstacleLevel.rows`` gives a fresh array, or the base alone (a float).
    """
    return block if isinstance(block, np.ndarray) else None


def _min_gap(size: int, high, low) -> float:
    """min(high - low) over blocks of the ``size`` rows of a level, NaN kept.

    ``high`` and ``low`` are each an ``ObstacleLevel`` or a whole-level
    array.  Every block is formed in two scratch blocks that the pass
    keeps, so it allocates no block; a minimum is exact, so the result is
    the whole-level one bit for bit.  Both sides are finite, so a gap
    past the float range is an infinity of its sign, which compares as
    the gap does, and warns nothing.
    """
    scratch = np.empty((2, min(size, _BLOCK_NODES)))
    worst = []
    with np.errstate(over="ignore"):
        for start in range(0, size, _BLOCK_NODES):
            rows = slice(start, min(start + _BLOCK_NODES, size))
            block = scratch[:, :rows.stop - start]
            sides = [side.rows(rows, out=out) if isinstance(side, ObstacleLevel) else side[rows]
                     for side, out in zip((high, low), block)]
            worst.append(np.min(np.subtract(*sides, out=block[0])))
    return float(np.min(worst))


def _validate_obstacles(grid, xi: np.ndarray, low, up=None) -> None:
    """Terminal payoff inside [L, U] at every leaf, and L < U before the horizon.

    ``grid`` is the tree or its ``Lattice``, with the data given on it.
    Every state of a lattice level occurs at that level and a minimum is
    exact, so each gap, and each message, is the nodes' own.
    """
    n = grid.num_steps
    leaves = grid.level_size(n)
    below = _min_gap(leaves, xi, low.levels[n])
    if up is None:
        if below < -TERMINAL_SLACK:
            raise TerminalBelowBarrier(
                f"terminal payoff dips {-below:.3g} below the obstacle at a leaf")
        return
    above = _min_gap(leaves, up.levels[n], xi)
    if below < -TERMINAL_SLACK or above < -TERMINAL_SLACK:
        raise TerminalOutsideBarriers("terminal payoff leaves the obstacle band at a leaf")
    for k in range(n):
        gap = _min_gap(grid.level_size(k), up.levels[k], low.levels[k])
        if gap <= 0.0:
            raise BarriersTouch(
                f"obstacles touch at level {k} (gap {gap:.3g}); strict separation "
                "before the horizon is required")


def _evaluated(tree: ScenarioTree, terminal, lower=None, upper=None) -> tuple:
    """(xi, L, U) from ``evaluate``; None is -inf for L, +inf for U."""
    if lower is None and upper is not None:
        raise ValueError("an upper obstacle needs a lower one")
    return evaluate(tree, terminal, lower, upper)


def _obstacle_inputs(tree: ScenarioTree, terminal, lower=None, upper=None):
    """(L, U, xi) once the terminal lies in [L, U] and L < U; None is -inf for L, +inf for U."""
    xi, low, up = _evaluated(tree, terminal, lower, upper)
    if low is not None:
        _validate_obstacles(tree, xi, low, up)
    return low, up, xi


def _finite(process: Process, name: str) -> None:
    """Raise NonFiniteData at the last level of ``process`` that is not finite."""
    for k in range(len(process) - 1, -1, -1):
        if not _all_finite(process[k]):
            raise NonFiniteData(f"{name} is not finite at level {k}; "
                                "the problem leaves the float range")


def _reflected_sweep(tree: ScenarioTree, source, a: float, xi: np.ndarray, low, up=None, *,
                     store: bool = True, grid=None):
    """Y, Z, V and the assigned compensator increments of each side.

    ``source`` is the ``_backward_sweep`` source and ``a`` the driver's
    coefficient of y, solved for implicitly.  Returns (y, z, v, inc_p,
    inc_m): each side's increment levels, None at a level without mass
    (``_Increments``), and None for a side without an obstacle; Z and V
    are None unless ``store``.  On the tree's ``Lattice`` (``grid``) the
    terminal, the obstacles and every level returned are given per state.
    """
    n = tree.num_steps
    dt = tree.dt
    # The driver is evaluated at the reflected y, so the increments closing
    # y = E[Y_next] + f(y) dt + dK+ - dK- carry the factor (1 - a dt).
    scale = 1.0 - a * dt
    grid = tree if grid is None else grid
    inc_p = None if low is None else _Increments(grid, scale)
    inc_m = None if up is None else _Increments(grid, scale)

    # maximum(cand, lo) and minimum(y, hi) return the obstacle on a tie, so
    # even the sign of a zero Y is the same with or without an upper side
    def settle(k, rows, rhs):
        cand = _implicit_y(rhs, a, dt)
        if low is None:
            return cand
        lo = low.levels[k].rows(rows)
        inc_p.book(k, rows, lo, cand)
        yk = np.maximum(cand, lo, out=_own(lo))
        if up is not None:
            hi = up.levels[k].rows(rows)
            inc_m.book(k, rows, cand, hi)
            np.minimum(yk, hi, out=yk)
        return yk

    y, z, v = _backward_sweep(tree, source, xi, settle, store=store, grid=grid)
    return y, z, v, *(None if inc is None else inc.levels for inc in (inc_p, inc_m))


class _Increments:
    """Compensator increments scale * max(high - low, 0), booked block by block.

    ``levels[k]`` is level k's increments, or None while no block of it
    has mass (a value that is not ±0.0; a NaN is mass): ``_accumulate``
    then shares K's level k + 1 with level k, which is exact.  Until a
    block has mass, each block is formed in one block-sized scratch that
    the sweep keeps.  The first block with mass allocates its level once,
    sets the rows before it to +0.0, which adds to K as their ±0.0 did,
    and later blocks are formed in place.  Blocks of a level come in
    row order (``_parent_blocks``).  Each block is the formula's bits,
    formed with no temporary.  ``grid`` is the tree or its ``Lattice``.
    """

    def __init__(self, grid, scale: float) -> None:
        self.grid, self.scale = grid, scale
        n = grid.num_steps
        self.levels: Process = [None] * n
        widest = max(grid.level_size(k) for k in range(n))
        self._scratch = np.empty(min(_parent_rows(grid) + 1, widest))   # see ``_parent_blocks``

    def book(self, k: int, rows: slice, high, low) -> np.ndarray:
        """Book the ``rows`` block of level ``k``; returns the block as booked."""
        level = self.levels[k]
        out = self._scratch[:rows.stop - rows.start] if level is None else level[rows]
        np.subtract(high, low, out=out)
        np.maximum(out, 0.0, out=out)
        out *= self.scale
        if level is None and out.any():
            level = self.levels[k] = np.empty(self.grid.level_size(k))
            level[:rows.start] = 0.0
            level[rows] = out
            out = level[rows]
        return out


def _book(tree: ScenarioTree, swept, low, up=None) -> Solution:
    """Solution of a ``_reflected_sweep`` result on the nodes, each side's K accumulated and split.

    A sweep that stored no Z or V gives the ``Projection``s of its Y.
    """
    y, z, v, inc_p, inc_m = swept
    sides = [None if obstacle is None else
             Compensator(k=_accumulate(inc), k_d=_split_side(tree, y, obstacle, sign))
             for inc, obstacle, sign in ((inc_p, low, +1), (inc_m, up, -1))]
    if z is None:
        z, v = Projection(tree, y, _project_z), Projection(tree, y, _project_v)
    return Solution(y, z, v, *sides)


def solve_reflected(tree: ScenarioTree, driver, terminal, lower=None,
                    upper=None) -> Solution:
    """Solve the reflected equation by direct obstacle backward induction.

    ``upper=None`` means U = +inf, one obstacle, and both None the
    unreflected equation; a missing side has no values, increments or
    compensator.  Preconditions: the terminal lies in [L, U] at every
    leaf, the obstacles are strictly separated before the horizon (an
    upper one needs a lower one), and dt times the driver's Lipschitz
    constant on the tree's intensities is below one.  The solution stores
    Y, K and K_d; its Z and V are ``rbsde.bsde.Projection``s of Y.
    """
    return _solve(tree, driver, terminal, lower, upper, store=False)


def _solve(tree: ScenarioTree, driver, terminal, lower=None, upper=None, *,
           store: bool) -> Solution:
    """``solve_reflected``, with Z and V stored where ``store`` asks for them.

    A solve that stores nothing, of data with states (specs, not the
    caller's own arrays), runs on the tree's ``Lattice`` and keeps its
    solution there (``_on_states``).  Every other solve runs on the nodes.
    """
    check_stepsize(driver, tree)
    data = _evaluated(tree, terminal, lower, upper)
    on_lattice = None if store else _on_lattice(tree, (terminal, lower, upper), data)
    if on_lattice is not None:
        return _on_states(tree, driver, *on_lattice)
    return _book(tree, _swept(tree, driver, tree, *data, store=store), *data[1:])


def _swept(tree: ScenarioTree, driver, grid, xi: np.ndarray, low, up, *, store: bool) -> tuple:
    """The ``_reflected_sweep`` on ``grid`` of data given on it, validated before and after.

    The obstacles are validated first (``_validate_obstacles``), and each
    level of Y but the terminal is tested for finiteness after.
    """
    if low is not None:
        _validate_obstacles(grid, xi, low, up)
    swept = _reflected_sweep(tree, _sweep_source(tree, driver), driver.a, xi, low, up,
                             store=store, grid=grid)
    _finite(swept[0][:-1], "the solution Y")   # level N: evaluate tests a TerminalSpec
    return swept


def _on_states(tree: ScenarioTree, driver, lattice, values: tuple) -> Solution:
    """A direct solve on the tree's ``Lattice``, its solution kept per state.

    The obstacles are validated, Y is swept and tested for finiteness,
    each side's increments are booked and its K_d masses split there, one
    row per state.  The solution keeps Y per state, each side's K
    increments per parent state and its K_d masses as (parent rows, B)
    tables (``rbsde.tree.StateLevels``): every node level of Y, K and K_d
    is formed on read, with the bits the node sweep, ``_accumulate`` and
    the node ``_split_side`` give, and Z and V are the ``Projection``s of
    Y.  It keeps nothing of the tree's but its shape.
    """
    y, _, _, *increments = _swept(tree, driver, lattice, *values, store=False)
    sides = [None if obstacle is None else Compensator(
                 k=StateLevels(lattice, [None, *inc], sums=True, lag=1),
                 k_d=StateLevels(lattice, _split_side(lattice, y, obstacle, sign), sums=True))
             for inc, obstacle, sign in zip(increments, values[1:], (+1, -1))]
    y = StateLevels(lattice, y)
    return Solution(y, Projection(tree, y, _project_z), Projection(tree, y, _project_v), *sides)


# The unreflected and one-obstacle names of the same function: call sites that
# pass no obstacle or one use them, so the benchmark's tracer (bench/tracing.py)
# times them as their own layers.
solve_bsde = solve_reflected_one = solve_reflected


def _source_rates(tree: ScenarioTree, driver) -> np.ndarray:
    """The envelope routes' source g(t_k) for k < N, from a coefficient-free driver."""
    if not driver.is_coefficient_free:
        raise DriverNotCoefficientFree(
            "the envelope route needs a driver without (y, z, v) terms")
    return np.asarray([driver.base_at(tree.time(k)) for k in range(tree.num_steps)])


def obstacle_payoff(tree: ScenarioTree, driver, terminal, barrier):
    """Stopping payoff whose envelope represents the reflected solution.

    eta_k = sum_{j<k} g_j dt + S_k before the horizon and the same
    accumulated source plus the terminal payoff at it.  Returns
    (payoff, cum), where ``cum[k]`` is the accumulated source of level k.
    The terminal must lie above the obstacle, as for the direct solve, and
    a payoff level that leaves the float range raises NonFiniteData.
    """
    rates = _source_rates(tree, driver)
    obstacle, _, xi = _obstacle_inputs(tree, terminal, barrier)
    n = tree.num_steps
    with np.errstate(over="ignore"):   # the data are finite, so sums can only overflow
        cum = np.concatenate(([0.0], np.cumsum(rates * tree.dt)))
        payoff = []
        for k in range(n):
            level = obstacle.levels[k].whole()
            level += cum[k]   # cum[k] + S_k, formed in the fresh level
            payoff.append(level)
        payoff.append(cum[n] + xi)
    _finite(payoff, "the stopping payoff")
    return payoff, cum


def snell_representation_check(tree: ScenarioTree, solution: Solution,
                               driver, terminal, barrier) -> float:
    """Largest node-wise gap between the solver output and the envelope route."""
    payoff, cum = obstacle_payoff(tree, driver, terminal, barrier)
    envelope, _ = _envelope(tree, payoff)
    return sup_diff((solution.y[k] + cum[k] for k in range(tree.num_steps + 1)), envelope)


@dataclass(eq=False)
class RegularityReport:
    kd_mass: float
    total_mass: float
    regular: bool


def regularity_check(tree: ScenarioTree, result: SnellResult, cum: np.ndarray,
                     barrier) -> RegularityReport:
    """E[K(T)] and E[K_d(T)] of an ``obstacle_payoff`` envelope, split as the solver splits.

    Y = R - cum and the envelope's compensator are the solver's Y and K.
    """
    y = [result.envelope[k] - cum[k] for k in range(tree.num_steps + 1)]
    _, obstacle = evaluate(tree, None, barrier)
    kd_mass = terminal_mean(tree, _split_side(tree, y, obstacle, +1))
    return RegularityReport(kd_mass=kd_mass, total_mass=terminal_mean(tree, result.compensator),
                            regular=kd_mass <= REGULAR_TOL)
