"""Backward solver for the unreflected equation.

One step solves y = E[Y_next] + f(t, y, z, v) dt implicitly in y (exact,
piecewise-linear when a penalty term is present) with (z, v) obtained by
projecting Y_next against the Brownian increment and the compensated
jump increments.  The projection is not an exact martingale
representation at finite dt: the orthogonal remainder is carried as a
per-node diagnostic and must shrink under grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StepsizeTooLarge
from .processes import BarrierSpec, BarrierValues, TerminalSpec, eval_barrier
from .tree import Process, ScenarioTree, _children, _parent_blocks


@dataclass(frozen=True, eq=False)
class FrozenDriver:
    """Coefficient-free driver whose source term is a stored process.

    Used by the Picard fixed-point loop: the source at level k is
    f(t_k, y_k, z_k, v_k) of the previous iterate, one value per node.
    """

    values: tuple[np.ndarray, ...]
    a: float = field(default=0.0, init=False)
    b: float = field(default=0.0, init=False)
    c: float = field(default=0.0, init=False)
    penalty: None = field(default=None, init=False)

    @property
    def coefficient_lipschitz(self) -> float:
        return 0.0


@dataclass(eq=False)
class StepOutput:
    y: float
    z: float
    v: np.ndarray
    representation_residual: float


@dataclass(eq=False)
class SolutionQuadruple:
    """(Y, Z, V, K) with the compensator split K = K_c + K_d.

    K, K_c and K_d may be stored by the level rule of ``rbsde.tree``;
    ``rbsde.tree.expand`` gives any of their levels whole.
    """

    y: Process
    z: Process
    v: Process
    k: Process
    k_c: Process
    k_d: Process
    projection_residual: Process


def check_stepsize(driver, dt: float) -> None:
    c = driver.coefficient_lipschitz
    if c * dt >= 1.0:
        raise StepsizeTooLarge(f"dt*C_f = {c * dt:.6g} >= 1; refine the grid")


def terminal_values(tree: ScenarioTree, terminal) -> np.ndarray:
    """Caller-owned leaf values (a copy of the shared evaluation)."""
    return _leaf_values(tree, terminal).copy()


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
    """(mean, z, v, residual) of a (parents, B) block of child values.

    The residual is the conditional L2 norm of what the projection leaves
    over: child values minus mean + z*dB + sum_i v_i*dN~_i, rebuilt as one
    product of the coefficients with the basis (1, dB, dN~).
    """
    mean = table @ tree.branch_prob
    z = (table @ (tree.branch_prob * tree.branch_db)) / tree.dt
    m = tree.marks.count
    if m:
        weights = tree.branch_prob[:, None] * tree.branch_comp
        scale = tree.marks.intensity_array * tree.dt
        v = (table @ weights) / scale[None, :]
    else:
        v = np.zeros((table.shape[0], 0))
    basis = np.vstack((np.ones(tree.branching), tree.branch_db, tree.branch_comp.T))
    remainder = np.column_stack((mean, z, v)) @ basis
    remainder -= table
    np.square(remainder, out=remainder)
    resid = remainder @ tree.branch_prob
    np.sqrt(np.maximum(resid, 0.0, out=resid), out=resid)
    return mean, z, v, resid


def project_level(tree: ScenarioTree, y_next: np.ndarray):
    """(z, v, residual) arrays over all nodes of the assigning level."""
    table = np.asarray(y_next, dtype=float).reshape(-1, tree.branching)
    _, z, v, resid = _project_block(tree, table)
    return z, v, resid


def project_zv(tree: ScenarioTree, y_children) -> tuple[float, np.ndarray, float]:
    """Single-node projection of child values against the noise increments."""
    y_children = np.asarray(y_children, dtype=float)
    if y_children.shape != (tree.branching,):
        raise ValueError("need one child value per branch")
    z, v, resid = project_level(tree, y_children)
    return float(z[0]), v[0], float(resid[0])


def _source_term(driver, tree: ScenarioTree, level: int,
                 z: np.ndarray, v: np.ndarray, rows: slice = slice(None)):
    """Everything in the driver except the implicit y and penalty parts.

    ``z`` and ``v`` hold the ``rows`` nodes of the level (all by default).
    """
    if isinstance(driver, FrozenDriver):
        return np.asarray(driver.values[level], dtype=float)[rows]
    out = driver.base_at(tree.time(level)) + driver.b * z
    lam = tree.marks.intensity_array
    if lam.size and driver.c != 0.0:
        out = out + driver.c * (v @ lam)
    return out


def _implicit_y(rhs, a: float, dt: float, pen_weight: float = 0.0, pen_barrier=None):
    """Exact solve of y = rhs + a*dt*y + pen_weight*dt*(y - s)^-.

    Piecewise linear in y with a kink at y = s; both slopes are positive
    once a*dt < 1, so the case split below picks the unique root.
    """
    unconstrained = rhs / (1.0 - a * dt)
    if pen_weight == 0.0 or pen_barrier is None:
        return unconstrained
    penalised = (rhs + pen_weight * dt * pen_barrier) / (1.0 - a * dt + pen_weight * dt)
    return np.where(unconstrained >= pen_barrier, unconstrained, penalised)


def backward_step(tree: ScenarioTree, level: int, y_children, driver,
                  barrier_value: float | None = None) -> StepOutput:
    """One implicit backward step at a single node."""
    check_stepsize(driver, tree.dt)
    y_children = np.asarray(y_children, dtype=float)
    z, v, resid = project_zv(tree, y_children)
    mean = float(tree.branch_prob @ y_children)
    src = _source_term(driver, tree, level, np.asarray([z]), v[None, :])
    src = float(np.asarray(src).reshape(-1)[0])
    pen = getattr(driver, "penalty", None)
    if pen is not None:
        if barrier_value is None:
            raise ValueError("penalty drivers need the obstacle value at the node")
        y = _implicit_y(np.asarray([mean + src * tree.dt]), driver.a, tree.dt,
                        pen.weight, np.asarray([float(barrier_value)]))
    else:
        y = _implicit_y(np.asarray([mean + src * tree.dt]), driver.a, tree.dt)
    return StepOutput(y=float(y[0]), z=z, v=v, representation_residual=resid)


def _backward_sweep(tree: ScenarioTree, driver, xi: np.ndarray, settle):
    """Backward induction over cache-sized parent blocks of each level.

    Each block is projected once: its conditional mean feeds the implicit
    right-hand side ``E[Y_next] + source*dt``, and ``settle(level, rows,
    rhs)`` returns the block's solution values (booking any compensator
    increments on the way).  Returns (y, z, v, projection residual).
    """
    n = tree.num_steps
    dt = tree.dt
    y: Process = [None] * (n + 1)
    y[n] = xi
    z: Process = [None] * n
    v: Process = [None] * n
    resid: Process = [None] * n
    for k in range(n - 1, -1, -1):
        size = tree.level_size(k)
        y[k], z[k], resid[k] = np.empty(size), np.empty(size), np.empty(size)
        v[k] = np.empty((size, tree.marks.count))
        for rows in _parent_blocks(tree, k):
            mean, zb, vb, rb = _project_block(tree, _children(tree, y[k + 1], rows))
            rhs = mean + _source_term(driver, tree, k, zb, vb, rows) * dt
            y[k][rows] = settle(k, rows, rhs)
            z[k][rows], v[k][rows], resid[k][rows] = zb, vb, rb
    return y, z, v, resid


def solve_bsde(tree: ScenarioTree, driver, terminal) -> SolutionQuadruple:
    """Full backward sweep without reflection (compensator identically 0)."""
    check_stepsize(driver, tree.dt)
    pen = getattr(driver, "penalty", None)
    if pen is not None:
        pen_values = eval_barrier(pen.barrier, tree).values

        def settle(k, rows, rhs):
            return _implicit_y(rhs, driver.a, tree.dt, pen.weight, pen_values[k][rows])
    else:
        def settle(k, rows, rhs):
            return _implicit_y(rhs, driver.a, tree.dt)

    y, z, v, resid = _backward_sweep(tree, driver, terminal_values(tree, terminal), settle)
    # zero compensators, each level a root-level array by the level rule
    levels = range(tree.num_steps + 1)
    return SolutionQuadruple(y=y, z=z, v=v, k=[np.zeros(1) for _ in levels],
                             k_c=[np.zeros(1) for _ in levels],
                             k_d=[np.zeros(1) for _ in levels],
                             projection_residual=resid)
