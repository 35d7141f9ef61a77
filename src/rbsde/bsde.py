"""The backward sweep kernel of every solver.

One step solves y = E[Y_next] + f(t, y, z, v) dt implicitly in y with
(z, v) obtained by projecting Y_next against the Brownian increment and
the compensated jump increments.  The projection is not an exact
martingale representation at finite dt: ``project_level`` returns the
orthogonal remainder per node as a diagnostic, which must shrink under
grid refinement.  ``Solution`` is the output type of every direct
solver.  The sweep takes the driver (which ``_driver_value`` alone
evaluates) as a ``source(k, rows, z, v)`` and a ``settle`` rule for the
implicit step: the reflected, penalised and Picard steps are rules of
``rbsde.reflected``, ``rbsde.penalty`` and ``rbsde.fixpoint``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepsizeTooLarge
from .processes import BarrierSpec, BarrierValues, TerminalSpec, eval_barrier
from .tree import Process, ScenarioTree, _children, _parent_blocks, _weigh


@dataclass(eq=False)
class Compensator:
    """Reflecting process K of one obstacle, split as K = K_c + K_d.

    K, K_c and K_d may be stored by the level rule of ``rbsde.tree``;
    ``rbsde.tree.expand`` gives any of their levels whole.
    """

    k: Process
    k_c: Process
    k_d: Process


@dataclass(eq=False)
class Solution:
    """(Y, Z, V) and the compensator of each obstacle present.

    ``lower`` is K (K+ with two obstacles), which pushes Y up onto the
    lower obstacle; ``upper`` is K-, which pushes Y down onto the upper
    one.  A side without an obstacle is None, both for the unreflected
    equation.
    """

    y: Process
    z: Process
    v: Process
    lower: Compensator | None = None
    upper: Compensator | None = None


def check_stepsize(driver, dt: float) -> None:
    c = driver.lipschitz_constant
    if not c * dt < 1.0:  # NaN fails too
        raise StepsizeTooLarge(f"dt*C_f = {c * dt:.6g} >= 1; refine the grid")


def _leaf_values(tree: ScenarioTree, terminal) -> np.ndarray:
    """Leaf values for reading only: the shared evaluation or the given array."""
    if isinstance(terminal, TerminalSpec):
        return terminal.evaluate(tree)
    values = np.asarray(terminal, dtype=float)
    if values.shape != (tree.level_size(tree.num_steps),):
        raise ValueError("terminal array must hold one value per leaf")
    return values


def barrier_values(tree: ScenarioTree, barrier) -> BarrierValues:
    if isinstance(barrier, BarrierValues):
        return barrier
    if isinstance(barrier, BarrierSpec):
        return eval_barrier(barrier, tree)
    raise TypeError("expected a BarrierSpec or pre-evaluated BarrierValues")


def _project_block(tree: ScenarioTree, table: np.ndarray):
    """(mean, z, v) of a (parents, B) block of child values."""
    mean = table @ tree.branch_prob
    z = (table @ (tree.branch_prob * tree.branch_db)) / tree.dt
    m = tree.marks.count
    if m:
        weights = tree.branch_prob[:, None] * tree.branch_comp
        scale = tree.marks.intensity_array * tree.dt
        v = (table @ weights) / scale[None, :]
    else:
        v = np.zeros((table.shape[0], 0))
    return mean, z, v


def project_level(tree: ScenarioTree, y_next: np.ndarray):
    """(z, v, residual) arrays over all nodes of the assigning level.

    The residual is the conditional L2 norm of what the projection leaves
    over: child values minus mean + z*dB + sum_i v_i*dN~_i, rebuilt as one
    product of the coefficients with the basis (1, dB, dN~).
    """
    table = np.asarray(y_next, dtype=float).reshape(-1, tree.branching)
    mean, z, v = _project_block(tree, table)
    basis = np.vstack((np.ones(tree.branching), tree.branch_db, tree.branch_comp.T))
    remainder = np.column_stack((mean, z, v)) @ basis
    remainder -= table
    np.square(remainder, out=remainder)
    resid = remainder @ tree.branch_prob
    np.sqrt(np.maximum(resid, 0.0, out=resid), out=resid)
    return z, v, resid


def _driver_value(driver, tree: ScenarioTree, level: int, y, z: np.ndarray, v: np.ndarray):
    """f(t_level, y, z, v) at nodes of one level, v weighted by the tree's marks."""
    # + 0.0 turns a -0.0 base into +0.0, so no source value is ever -0.0
    out = driver.base_at(tree.time(level)) + 0.0 + driver.a * y + driver.b * z
    lam = tree.marks.intensity_array
    if lam.size and driver.c != 0.0:
        out = out + driver.c * _weigh(v, lam)
    return out


def _sweep_source(tree: ScenarioTree, driver):
    """The ``_backward_sweep`` source of a driver: f without its implicit y part."""
    return lambda k, rows, z, v: _driver_value(driver, tree, k, 0.0, z, v)


def _implicit_y(rhs, a: float, dt: float):
    """Exact solve of y = rhs + a*dt*y; a*dt < 1 by the stepsize guard."""
    return rhs / (1.0 - a * dt)


def _backward_sweep(tree: ScenarioTree, source, xi: np.ndarray, settle):
    """Backward induction over cache-sized parent blocks of each level.

    Each block is projected once: its conditional mean feeds the implicit
    right-hand side ``E[Y_next] + source(level, rows, z, v)*dt``, where
    (z, v) are the block's projections, and ``settle(level, rows, rhs)``
    returns the block's solution values (booking any compensator
    increments on the way).  Returns (y, z, v).
    """
    n = tree.num_steps
    dt = tree.dt
    y: Process = [None] * (n + 1)
    y[n] = xi
    z: Process = [None] * n
    v: Process = [None] * n
    for k in range(n - 1, -1, -1):
        size = tree.level_size(k)
        y[k], z[k] = np.empty(size), np.empty(size)
        v[k] = np.empty((size, tree.marks.count))
        for rows in _parent_blocks(tree, k):
            mean, zb, vb = _project_block(tree, _children(tree, y[k + 1], rows))
            rhs = mean + source(k, rows, zb, vb) * dt
            y[k][rows] = settle(k, rows, rhs)
            z[k][rows], v[k][rows] = zb, vb
    return y, z, v

