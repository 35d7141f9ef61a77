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
that array itself.  A direct solve stores no Z or V: its Z and V are
``Projection``s of its Y, each level formed on read.  The sweeps whose
callers read Z and V again (Picard rounds and penalised rungs) store
them, and for a terminal ``evaluate`` made, their Z_{N-1} and V_{N-1}
are read-only arrays that every such sweep of it on the tree shares: the
tree keeps the terminal's last step (``rbsde.processes.LastStep``), so
only the first storing sweep projects it.

The sweep walks a grid: the tree's nodes, or its ``Lattice`` of distinct
node states, on which ``rbsde.reflected`` runs, and keeps, every direct
solve of data with states; a ``Projection`` of such a Y reads its node
levels, formed on read.  Each operation of a step is row by row (ufuncs,
``_weigh``, the implicit step, the clamps, and a BLAS product whose row
depends on that row alone), so a state's row has the bits of each of its
nodes.  The sweep projects each block in full, and the checker projects
a slice's z in full and its v where the driver reads it.  With a = 0 the
implicit step makes no divide, which gives the bits of dividing by 1.0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import StepsizeTooLarge
from .processes import eval_barrier  # noqa: F401  (kept importable from this module)
from .processes import _last_step, _read_only, lipschitz_constant
from .tree import Process, ScenarioTree, _children, _lined_up, _parent_blocks, _weigh


class ContinuousPart(Sequence):
    """K_c = K - K_d of a solver's compensator, each level computed on read.

    Nothing is stored: a read of level j returns a fresh array, or K's own
    array where K_d is +0.0 at every node (x - (+0.0) is x for every
    float, -0.0 and NaN included), so edit a copy.  Elsewhere the coarser
    of K's and K_d's stored levels is lined up with the values of the finer
    one it holds for (``rbsde.tree._lined_up``), so neither is expanded
    and the result is stored like the finer one.  ``rbsde.verify`` takes a
    slice's rows of a level from the rows of K and K_d with the same
    subtraction, building no level.
    """

    def __init__(self, k: Process, k_d: Process) -> None:
        self.k, self.k_d = k, k_d

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, level: int) -> np.ndarray:
        total, jump = self.k[level], self.k_d[level]
        if not jump.view(np.uint64).any():
            return total
        total, jump = _lined_up(total, jump)
        return np.subtract(total, jump).ravel()


class Projection(Sequence):
    """Z or V of a direct solve: level k is the projection of Y_{k+1}, formed on read.

    Nothing is stored.  A read of level k projects Y_{k+1} over the
    ``_parent_blocks`` slices of level k; each row of a product depends on
    that row alone, so a node's z and v have the bits the sweep formed for
    it, or for its state on the tree's ``Lattice``.  Each read returns a
    fresh array, the caller's to edit;
    the levels follow Y, so edit a copy of Y, not Y itself.
    ``rbsde.verify`` projects a slice's rows from the children table it
    reads anyway, building no level.
    """

    def __init__(self, tree: ScenarioTree, y: Process, kernel) -> None:
        self.tree, self.y, self.kernel = tree, y, kernel

    def __len__(self) -> int:
        return len(self.y) - 1

    def __getitem__(self, level: int) -> np.ndarray:
        level = range(len(self))[level]   # negative levels, and IndexError past the last
        tree = self.tree
        out = None
        for rows in _parent_blocks(tree, level):
            with np.errstate(over="ignore", invalid="ignore"):
                block = self.kernel(tree, _children(tree, self.y[level + 1], rows))
            if out is None:
                out = np.empty((tree.level_size(level),) + block.shape[1:])
            out[rows] = block
        return out


@dataclass(eq=False)
class Compensator:
    """Reflecting process K of one obstacle, split as K = K_c + K_d.

    K, K_c and K_d may be stored by the level rule of ``rbsde.tree``;
    ``rbsde.tree.expand`` gives any of their levels whole.  The solvers
    keep K and K_d only, each only where it moves: a level of either at
    which the compensator adds no mass is its predecessor's own array, so
    ``k[j + 1] is k[j]`` there.  Their K_c is the ``ContinuousPart`` of the
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
    equation.  Y_N may be the read-only terminal array itself.  A direct
    solve's Z and V are ``Projection``s of its Y, formed on each read; a
    Picard round's or a penalised rung's are stored, and their Z_{N-1}
    and V_{N-1} read-only arrays shared with every other such solve of
    that terminal on the tree: edit copies.
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


def _project_z(tree: ScenarioTree, table: np.ndarray) -> np.ndarray:
    """z of a (parents, B) block of child values."""
    return (table @ (tree.branch_prob * tree.branch_db)) / tree.dt


def _project_v(tree: ScenarioTree, table: np.ndarray) -> np.ndarray:
    """v of a (parents, B) block of child values, one column per mark."""
    if not tree.marks.count:
        return np.zeros((table.shape[0], 0))
    weights = tree.branch_prob[:, None] * tree.branch_comp
    scale = tree.marks.intensity_array * tree.dt
    return (table @ weights) / scale[None, :]


def _project_block(tree: ScenarioTree, table: np.ndarray):
    """(mean, z, v) of a (parents, B) block of child values."""
    return table @ tree.branch_prob, _project_z(tree, table), _project_v(tree, table)


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


def _driver_value(driver, tree: ScenarioTree, level: int, y, z, v, base=None):
    """f(t_level, y, z, v) at rows of one level, v weighted by the tree's marks.

    ``base``, each row's g(t), stands in for g(t_level) where the rows are
    of several levels.  v may be None where the driver does not read it
    (c = 0, or no marks).
    """
    if base is None:
        base = driver.base_at(tree.time(level))
    # + 0.0 turns a -0.0 base into +0.0, so no source value is ever -0.0
    out = base + 0.0 + driver.a * y + driver.b * z
    lam = tree.marks.intensity_array
    if lam.size and driver.c != 0.0:
        out = out + driver.c * _weigh(v, lam)
    return out


def _sweep_source(tree: ScenarioTree, driver):
    """The ``_backward_sweep`` source of a driver: f without its implicit y part."""
    return lambda k, rows, z, v: _driver_value(driver, tree, k, 0.0, z, v)


def _implicit_y(rhs, a: float, dt: float):
    """Exact solve of y = rhs + a*dt*y; a*dt < 1 by the stepsize guard.

    With a = 0 it is ``rhs`` itself: ``rhs / 1.0`` is ``rhs``, NaN included.
    """
    return rhs if a == 0.0 else rhs / (1.0 - a * dt)


def _backward_sweep(tree: ScenarioTree, source, xi: np.ndarray, settle, *, store: bool = True,
                    grid=None):
    """Backward induction over cache-sized blocks of each level of ``grid``.

    ``grid`` is the tree itself (the default) or its ``Lattice`` of
    distinct states, with ``xi`` given per leaf row of it: the sweep reads
    a grid only through ``level_size``, its blocks (``_parent_blocks``)
    and ``children``.  Each block is projected once, in full: its
    conditional mean feeds the implicit right-hand side ``E[Y_next] +
    source(level, rows, z, v)*dt``, where (z, v) are the block's
    projections, and ``settle(level, rows, rhs)`` returns the block's
    solution values (booking any compensator increments on the way).
    Every operation is row by row, so a row's values depend only on its
    children's values: nodes of one state get their state's bits on
    either grid.  Returns (y, z, v); Z and V are None unless ``store``.
    Values that leave the float range become inf or NaN without a warning:
    the solvers test each level of Y once the sweep is done
    (``rbsde.reflected._finite``).

    A terminal that ``rbsde.processes.evaluate`` made on the tree has its
    last step kept there (``LastStep``), filled by storing sweeps only:
    the first freezes its Z_{N-1} and V_{N-1} read-only and keeps them,
    and every later sweep reads them in place of projecting; the second
    keeps its blocks' conditional means, which later sweeps read.  A
    storing sweep takes the kept Z_{N-1} and V_{N-1} as its own levels.
    Every block has the bits it would have if projected.
    """
    grid = tree if grid is None else grid
    n = tree.num_steps
    dt = tree.dt
    y: Process = [None] * (n + 1)
    y[n] = xi
    z: Process | None = [None] * n if store else None
    v: Process | None = [None] * n if store else None
    last = _last_step(tree, xi) if grid is tree else None
    # read once, so a sweep on another thread that fills the memo changes nothing here
    shared, mean = (None, None) if last is None else (last.zv, last.mean)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            size = grid.level_size(k)
            y[k] = np.empty(size)
            if k == n - 1 and shared is not None:
                # the kept last step: no projection, and no new Z or V level
                zk, vk = shared
                if store:
                    z[k], v[k] = shared
                # the second storing sweep keeps its conditional means
                kept = np.empty(size) if mean is None and store else None
                for rows in _parent_blocks(grid, k):
                    if mean is not None:
                        mb = mean[rows]
                    else:
                        mb = grid.children(xi, k, rows) @ tree.branch_prob
                        if kept is not None:
                            kept[rows] = mb
                    rhs = mb + source(k, rows, zk[rows], vk[rows]) * dt
                    y[k][rows] = settle(k, rows, rhs)
                if kept is not None:
                    last.mean = _read_only(kept)
                continue
            if store:
                z[k], v[k] = np.empty(size), np.empty((size, tree.marks.count))
            for rows in _parent_blocks(grid, k):
                mb, zb, vb = _project_block(tree, grid.children(y[k + 1], k, rows))
                rhs = mb + source(k, rows, zb, vb) * dt
                y[k][rows] = settle(k, rows, rhs)
                if store:
                    z[k][rows], v[k][rows] = zb, vb
    if store and last is not None and shared is None:
        last.zv = (_read_only(z[n - 1]), _read_only(v[n - 1]))
    return y, z, v
