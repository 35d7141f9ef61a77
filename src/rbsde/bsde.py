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
``rbsde.reflected``, ``rbsde.penalty`` and ``rbsde.fixpoint``.  The
sweep takes the leaf values as an array: every solver reads its terminal
and obstacles with ``rbsde.processes.evaluate``.  A solution's Y_N is
that array itself, and for a terminal ``evaluate`` made, Z_{N-1} and
V_{N-1} are read-only arrays that every sweep of it on the tree shares:
the tree keeps the terminal's last step (``rbsde.processes.LastStep``),
so only the first sweep projects it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import StepsizeTooLarge
from .processes import eval_barrier  # noqa: F401  (kept importable from this module)
from .processes import _last_step, _read_only, lipschitz_constant
from .tree import Process, ScenarioTree, _children, _parent_blocks, _weigh


class ContinuousPart(Sequence):
    """K_c = K - K_d of a solver's compensator, each level computed on read.

    Nothing is stored: a read of level j returns a fresh array, or K's own
    array where K_d is +0.0 at every node (x - (+0.0) is x for every
    float, -0.0 and NaN included), so edit a copy.  Elsewhere the coarser
    of K's and K_d's stored levels is lined up with the values of the finer
    one it holds for, so neither is expanded and the result is stored like
    the finer one.  ``rbsde.verify`` takes a block's rows of a level from
    the rows of K and K_d with the same subtraction, building no level.
    """

    def __init__(self, k: Process, k_d: Process) -> None:
        self.k, self.k_d = k, k_d

    def __len__(self) -> int:
        return len(self.k)

    def parts(self, level: int):
        """K's array where K_d is +0.0 at every node of ``level``, else the pair (K, K_d)."""
        total, jump = self.k[level], self.k_d[level]
        return (total, jump) if jump.view(np.uint64).any() else total

    def __getitem__(self, level: int) -> np.ndarray:
        parts = self.parts(level)
        if not isinstance(parts, tuple):
            return parts
        total, jump = parts
        if len(jump) <= len(total):
            return (total.reshape(len(jump), -1) - jump[:, None]).ravel()
        return (total[:, None] - jump.reshape(len(total), -1)).ravel()


@dataclass(eq=False)
class Compensator:
    """Reflecting process K of one obstacle, split as K = K_c + K_d.

    K, K_c and K_d may be stored by the level rule of ``rbsde.tree``;
    ``rbsde.tree.expand`` gives any of their levels whole.  The solvers
    keep K and K_d only, and their K_c is the ``ContinuousPart`` of the
    two, computed on each read.  K_c levels passed in (a loaded dump, an
    edited copy) are kept and read as they are.
    """

    k: Process
    k_d: Process
    k_c: Sequence | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if self.k_c is None:
            self.k_c = ContinuousPart(self.k, self.k_d)


@dataclass(eq=False)
class Solution:
    """(Y, Z, V) and the compensator of each obstacle present.

    ``lower`` is K (K+ with two obstacles), which pushes Y up onto the
    lower obstacle; ``upper`` is K-, which pushes Y down onto the upper
    one.  A side without an obstacle is None, both for the unreflected
    equation.  Y_N may be the read-only terminal array itself, and Z_{N-1}
    and V_{N-1} read-only arrays shared with every other solve of that
    terminal on the tree: edit copies.
    """

    y: Process
    z: Process
    v: Process
    lower: Compensator | None = None
    upper: Compensator | None = None


def check_stepsize(driver, tree: ScenarioTree) -> None:
    """dt times the driver's Lipschitz constant on the tree's intensities must be below one."""
    c_dt = lipschitz_constant(driver, tree.marks) * tree.dt
    if not c_dt < 1.0:  # NaN fails too
        raise StepsizeTooLarge(f"dt*C_f = {c_dt:.6g} >= 1; refine the grid")


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
    increments on the way).  Returns (y, z, v).  Values that leave the
    float range become inf or NaN without a warning: the solvers test
    each level of Y once the sweep is done (``rbsde.reflected._finite``).

    A terminal that ``rbsde.processes.evaluate`` made on the tree has its
    last step kept there (``LastStep``): the first sweep of it freezes its
    Z_{N-1} and V_{N-1} read-only and keeps them, and every later sweep
    takes them as its own levels, with no projection; the second keeps
    its blocks' conditional means, which later sweeps read.  Every block
    has the bits it would have if projected.
    """
    n = tree.num_steps
    dt = tree.dt
    y: Process = [None] * (n + 1)
    y[n] = xi
    z: Process = [None] * n
    v: Process = [None] * n
    last = _last_step(tree, xi)
    # read once, so a sweep on another thread that fills the memo changes nothing here
    shared, mean = (None, None) if last is None else (last.zv, last.mean)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            size = tree.level_size(k)
            y[k] = np.empty(size)
            if k == n - 1 and shared is not None:
                # the kept last step: no projection, and no new Z or V level
                z[k], v[k] = shared
                kept = np.empty(size) if mean is None else None
                for rows in _parent_blocks(tree, k):
                    if kept is None:
                        mb = mean[rows]
                    else:   # the second sweep keeps its conditional means
                        mb = kept[rows] = _children(tree, xi, rows) @ tree.branch_prob
                    rhs = mb + source(k, rows, z[k][rows], v[k][rows]) * dt
                    y[k][rows] = settle(k, rows, rhs)
                if kept is not None:
                    last.mean = _read_only(kept)
                continue
            z[k], v[k] = np.empty(size), np.empty((size, tree.marks.count))
            for rows in _parent_blocks(tree, k):
                mb, zb, vb = _project_block(tree, _children(tree, y[k + 1], rows))
                rhs = mb + source(k, rows, zb, vb) * dt
                y[k][rows] = settle(k, rows, rhs)
                z[k][rows], v[k][rows] = zb, vb
    if last is not None and shared is None:
        last.zv = (_read_only(z[n - 1]), _read_only(v[n - 1]))
    return y, z, v

