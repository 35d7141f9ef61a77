"""Solution-condition checker and structural probes.

Every clause of the reflected equations becomes a residual: the
projected dynamics identity, obstacle dominance, the minimality sums for
the continuous-type compensator mass, the left-limit jump formulas, and
compensator monotonicity.  One ``_check_block`` takes every clause of a
slice of parents with their children, on either grid.

A direct solve's solution as it came, kept per state on the ``Lattice``
of this very tree (``rbsde.tree.StateLevels``), is checked there, one
row per state, when the data have states too (``_StateReads``): the
states of levels 0 .. N - 1 are stacked into one level, so a few slices
take every clause.  The clauses read the increments the solve booked, K's
per parent state and K_d's per parent state and branch, and K_c's as
their difference, not differences of cumulative K; the obstacles and
left limits per state come from ``rbsde.processes._on_lattice``, and
P(parent) is the states' masses.  Every formula is taken in full, and
each row's products are BLAS's on row-major tables, which give a row the
same bits wherever it sits in a table of two rows or more (``_by_row``;
no slice has one row, ``rbsde.tree._parent_blocks``).  So the pointwise residuals are those of the same
formulas on the nodes, and the left-limit integral, summed by state
mass, is theirs to rounding.  Any other solution (a loaded dump, a copy,
a mutant, a Picard or penalised solve, a solve of the caller's own
arrays) is read on the nodes.

On the nodes all clauses come from one pass over the
cache-sized parent slices of each level, in which each increment of K,
K_c and K_d is taken once from the cumulative processes of the solution;
the leaf clauses are taken in the slices of the last parent level, so no
clause forms a whole-level temporary.  Only the clauses that weigh mass
by node probability read them: a depth-first walk of the node
probabilities (``rbsde.tree._node_blocks``), each row built once, goes
down to the parent level of the last declared jump level and no deeper,
and a slice below it with continuous-type mass reads its rows of
``tree.atom_prob``, the same chain.  A solver stores no K_c
(``rbsde.bsde.ContinuousPart``): a slice's rows of it are the rows of K
minus those of K_d, so the checker builds no whole level of it, while
stored K_c levels (a loaded dump, a hand-built mutant) are read as they
are and the split clause tests them.  Nor does a direct solve store Z
or V (``rbsde.bsde.Projection``): where they are the projections of the
solution's own Y, a slice's rows of them are projected from the
children table it reads anyway, row by row as the sweep projected them,
so they have the sweep's bits and no Z or V level is built; explicit Z and
V levels (a loaded dump, a copy, a mutant) are read as stored.  On a
solution without continuous-type mass off its obstacles the checker
reads no ``tree.atom_prob`` level, and each slice's and each side's
arrays are freed with it.

On the nodes the checker skips work only where the skipped operations
have known bits, so every report is the one the full passes give:

- An increment whose level k + 1 is stored at level k or above is a
  (parents, 1) column: its minima and maxima are those of the (parents,
  B) table it stands for, and a coarser level k is subtracted by a
  broadcast over its groups, not a repeat.  A table is formed only for a
  product with ``branch_prob``, so each product reads the table it always
  read.
- Where K_d is +0.0 at every node, K_c is K's own array: x - (+0.0) is x
  for every float.  The split K - K_c - K_d is then x - x, which is +0.0
  or NaN, NaN exactly where x is not finite, so finite K increments give
  0.0; and the K increments serve as K_c's.  Where K or K_d at k + 1 is
  its level k array itself (a level without mass), each of its
  increments is x - x, which one finiteness test gives: 0.0, or NaN for
  the whole slice where the full pass has NaN at some parents, and every
  residual it reaches is NaN either way.  A Y_N that is the terminal
  array itself gives Y_N - ξ = x - x, which is 0.0 with no pass:
  ``evaluate`` has rejected a ξ that is not finite.
- Where Z and V are the projections of the solution's own Y, a slice
  forms only those its dynamics reads, by ``rbsde.bsde._step_projections``,
  decided from the driver and the
  slice's children table alone; stored Z and V levels are all read.
- BLAS adds each product into a zeroed result, so increments or masses
  that are all ±0.0 weigh to +0.0 against ``branch_prob``, and a
  parent's +0.0 term adds +0.0.  So the dynamics adds 0.0 for such K
  increments, and such a continuous-type mass gives a 0.0 integral term,
  with no table and no product.  ±0.0 K increments times a finite slack
  are ±0.0, so that mass is not formed.  A NaN or an infinity is not
  ±0.0, so non-finite data takes the full path.

The compensators are read through the level-rule readers of
``rbsde.tree``, so compact solver output and whole-level solutions (a
loaded dump, a hand-built mutant) go through the same checker, which
takes one obstacle or two as the solver does.  A clause passes at a
residual of at most ``CHECK_TOL``, or of at most ``ROUNDING_TOL`` times
the size of the data (its square for a product of a mass and a slack)
where that is larger: data near the largest float round past any
absolute bound, and the node check's differences of cumulative K and the
per-state check's booked increments round apart, so without it one
solution could pass on one grid and fail on the other.  Below a size of
about 10 every bound is ``CHECK_TOL``.  The jump clauses apply the
left-limit formula with ``BIND_TOL``, the very constant the solver's
split reads, so solver and checker share one convention; neither
tolerance is an argument.  The probes re-solve problems along
independent routes (uniqueness) and run the penalty ladder
``DEFAULT_LADDER`` against the jump-type mass (regularity dichotomy),
calling a problem regular by ``rbsde.snell.REGULAR_TOL`` as the
envelope route's ``regularity_check`` does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bsde import (Compensator, ContinuousPart, Projection, Solution, _driver_value,
                   _project_v, _project_z, _step_projections)
from .fixpoint import picard_solve, random_triple
from .penalty import solve_penalized, sweep
from .processes import BarrierValues, ProblemSpec, _on_lattice, evaluate
from .reflected import _own, _solve, _source_rates, obstacle_payoff
from .snell import BIND_TOL, REGULAR_TOL, _envelope
from .snell import snell  # noqa: F401  (kept importable from this module)
from .tree import (Process, ScenarioTree, StateLevels, _block_rows, _children, _node_blocks,
                   _parent_blocks, _parent_rows, _prob_step, _ratio, _self_gap, _worst,
                   sup_diff, terminal_mean)
from .twobarrier import _closure, _mean_mass, picard_snell_solve

# The probe's direct route stores its Z and V (``_solve``); these solver names stay
# importable from this module for code that looks them up here (the benchmark's
# bench/tracing.py).
from .reflected import solve_bsde, solve_reflected_one  # noqa: F401
from .twobarrier import solve_double_obstacle  # noqa: F401

CHECK_TOL = 1e-10
# The rounding a residual may carry, relative to the size of the data
# (``_data_size``): 4,096 ulps.  Below a size of about 110 (10.5 for the
# clauses of a product of two sizes) ``CHECK_TOL`` is the larger bound.
ROUNDING_TOL = 2.0 ** -40
EXACT_PENALTY_LEVEL = 1e13
# The tables that ``_by_branch`` takes a column at a time: at least this
# many rows, and at most this many columns.
_COLUMN_ROWS = 2048
_COLUMN_WIDTH = 8
DEFAULT_LADDER = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class ClauseCheck:
    passed: bool
    residual: float
    note: str = ""


@dataclass
class CheckReport:
    tolerance: float
    clauses: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses.values())

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "passed": self.passed,
            "clauses": {name: {"passed": c.passed, "residual": c.residual, "note": c.note}
                        for name, c in self.clauses.items()},
        }


@dataclass(eq=False)
class _Side:
    """One obstacle with its compensator K = K_c + K_d and the clause residuals.

    ``sign`` is +1 for an obstacle below the solution and -1 for one
    above it, so that ``sign*(Y - obstacle)`` is the slack.  On the nodes
    ``k_c`` holds K_c's stored levels, or for the compensator's own
    ``ContinuousPart`` its ``parts``: the (K, K_d) pair of a level, or None
    where K_d is +0.0 at every node and K_c is K's own array
    (``_NodeReads``).
    """

    obstacle: BarrierValues
    compensator: Compensator
    sign: int
    contain: float = 0.0
    skorokhod: float = 0.0
    jump: float = 0.0
    monotone: float = 0.0
    split: float = 0.0
    left_integral: float = 0.0
    terms: list = field(default_factory=list)   # the left-limit integral's, per level
    k_c: list | None = None   # K_c's levels as ``_stored`` takes them, None for K's own

    def __post_init__(self) -> None:
        if self.compensator is None:
            name = "lower" if self.sign > 0 else "upper"
            raise ValueError(f"the solution has no {name} compensator to check "
                             f"against the {name} obstacle")


def _own_part(comp: Compensator) -> bool:
    """Whether K_c is the compensator's own ``ContinuousPart`` K - K_d."""
    k_c = comp.k_c
    return isinstance(k_c, ContinuousPart) and k_c.k is comp.k and k_c.k_d is comp.k_d


def _abs_max(values: np.ndarray) -> float:
    """max |values| from two reductions, without an |values| temporary."""
    return _worst(float(values.max()), -float(values.min()))


def _stored(tree: ScenarioTree, values, level: int, rows: slice) -> tuple[np.ndarray, int]:
    """``(values, ratio)``: the stored values the ``rows`` of ``level`` read, ``ratio`` rows each.

    An operation of the rows with one of these values is an operation with
    the value broadcast over its group of ``ratio`` rows: the same bits,
    and no repeat.  A slice that cuts such a group (64-parent slices of a
    B = 6 tree) gives its rows from ``_block_rows``, ratio 1.  A (K, K_d)
    pair gives K - K_d at the finer of the two, the subtraction that forms
    its whole level (``ContinuousPart``).
    """
    if isinstance(values, tuple):
        return _difference(*_stored(tree, values[0], level, rows),
                           *_stored(tree, values[1], level, rows))
    ratio = _ratio(tree, values, level)
    start, stop, _ = rows.indices(tree.level_size(level))
    if start % ratio or stop % ratio:
        return _block_rows(tree, values, level, rows), 1
    return values[start // ratio:stop // ratio], ratio


def _difference(a: np.ndarray, a_ratio: int, b: np.ndarray,
                b_ratio: int) -> tuple[np.ndarray, int]:
    """``a - b`` of two ``_stored`` reads of the same rows, at the finer ratio of the two.

    Each value of the coarser read meets a group of the finer one's, as a
    (groups, 1) column against a (groups, group) table (``_by_branch``).
    """
    if a_ratio == b_ratio:
        return a - b, a_ratio
    ratio = min(a_ratio, b_ratio)
    group = max(a_ratio, b_ratio) // ratio
    table = np.empty((len(a if a_ratio == ratio else b) // group, group))
    a, b = (x.reshape(-1, group) if r == ratio else x[:, None]
            for x, r in ((a, a_ratio), (b, b_ratio)))
    return _by_branch(np.subtract, a, b, table).ravel(), ratio


def _by_branch(op, a, b, out: np.ndarray) -> np.ndarray:
    """``op(a, b, out=out)`` on a (rows, B) ``out``, one column of it at a time.

    ``a`` and ``b`` are (rows, B) tables, (rows, 1) columns or scalars.  A
    column broadcast over the few columns of a row-major table, or tables
    of two layouts, make numpy's inner loop run along a row, at several
    times the cost of the operation; one call per column runs it down the
    rows.  A table of fewer than ``_COLUMN_ROWS`` rows or more than
    ``_COLUMN_WIDTH`` columns takes one call, which then costs less.  Each
    element is the same single operation either way.
    """
    if len(out) < _COLUMN_ROWS or out.shape[1] > _COLUMN_WIDTH:
        return op(a, b, out=out)
    columns = (x.T if np.ndim(x) == 2 and x.shape[1] > 1
               else itertools.repeat(x[:, 0] if np.ndim(x) == 2 else x) for x in (a, b))
    for dest, x, y in zip(out.T, *columns):
        op(x, y, out=dest)
    return out


def _expand(values: np.ndarray, ratio: int) -> np.ndarray:
    """The rows of a ``_stored`` read."""
    return values if ratio == 1 else np.repeat(values, ratio)


def _table(tree: ScenarioTree, increments: np.ndarray) -> np.ndarray:
    """The Fortran-order (parents, B) table of a (parents, 1) column or a table.

    Products with ``branch_prob`` read a table, so their bits do not
    depend on how the increments were stored.
    """
    if increments.shape[1] == tree.branching and increments.flags.f_contiguous:
        return increments
    out = np.empty((len(increments), tree.branching), order="F")
    out[...] = increments
    return out


def _check_levels(grid, tree: ScenarioTree, sol, driver, xi: np.ndarray,
                  sides) -> tuple[float, float]:
    """Every clause residual over the parent slices of ``grid``: the tree or its ``Lattice``.

    ``_check_block`` takes the clauses of each slice, of one level's nodes
    (``_NodeReads``) or of the lattice's states of every level at once
    (``_StateReads``).  The left-limit integral adds its terms level by
    level, each level's slices left to right, as a pass per level would;
    the other residuals are NaN-keeping maxima, which the order of the
    slices does not change.  Fills the per-side residuals; returns the
    dynamics residual and, for two sides, the worst simultaneous jump-type
    mass.
    """
    for side in sides:
        side.terms = [[] for _ in range(tree.num_steps)]
    reads = (_NodeReads(tree, sol, driver, xi, sides) if grid is tree
             else _StateReads(grid, tree, sol, driver, xi, sides))
    dyn = 0.0
    simultaneous = 0.0
    for k, rows, parent_prob in reads.slices:
        block_dyn, block_simultaneous = _check_block(reads, tree, driver, sides, k, rows,
                                                     parent_prob)
        dyn = _worst(dyn, block_dyn)
        simultaneous = _worst(simultaneous, block_simultaneous)
    for side in sides:
        for term in itertools.chain.from_iterable(side.terms):
            side.left_integral += term
    return dyn, simultaneous


class _NodeReads:
    """What ``_check_block`` reads of a parent slice ``(k, rows)`` of the tree's nodes.

    ``y`` is Y's levels, ``zv`` a slice's Z and V (``_slice_zv``) and
    ``slices`` the slices with their node probabilities (``_slices``).
    Each side's residuals at the root are taken here.  A compensator whose
    levels are formed on read (``StateLevels``) is read once, whole, with
    its levels shared where it adds no mass.  The node route skips
    operations whose bits are known (``known``).
    """

    known = True

    def __init__(self, tree: ScenarioTree, sol, driver, xi: np.ndarray, sides) -> None:
        for side in sides:
            comp = side.compensator
            own = _own_part(comp)
            if isinstance(comp.k, StateLevels) or isinstance(comp.k_d, StateLevels):
                comp = side.compensator = Compensator(k=list(comp.k), k_d=list(comp.k_d),
                                                      k_c=None if own else comp.k_c)
            k_c = comp.k_c
            if own:
                k_c = [part if isinstance(part, tuple) else None
                       for part in map(k_c.parts, range(len(k_c)))]
            side.k_c = k_c
            side.monotone = float(np.max(np.abs(comp.k[0])))
            root_c = comp.k[0] if k_c[0] is None else _expand(*_stored(tree, k_c[0], 0,
                                                                        slice(0, 1)))
            side.split = float(np.max(np.abs(comp.k[0] - root_c - comp.k_d[0])))
        declared = max((level for side in sides for level in side.obstacle.left_levels),
                       default=0)
        self.grid, self.tree, self.xi = tree, tree, xi
        self.y = [np.asarray(level, dtype=float) for level in sol.y]
        self.zv = _slice_zv(tree, sol, driver)
        self.slices = _slices(tree, declared)

    def base(self, k: int, rows: slice) -> None:
        return None   # the driver's g(t_k)

    def terminal(self, k: int, rows: slice):
        """``(slice rows, their children's ξ)`` at level N - 1, else None.

        A Y_N that is the terminal array itself (a solver's) gives Y_N - ξ
        = x - x, which is 0.0: ``evaluate`` rejected a ξ that is not finite.
        """
        if k < self.tree.num_steps - 1 or self.y[k + 1] is self.xi:
            return None
        return slice(None), _children(self.tree, self.xi, rows)

    def increments(self, side: _Side, k: int, rows: slice) -> tuple:
        return _side_increments(self.tree, side, k, rows)

    def obstacle(self, side: _Side, k: int, rows: slice):
        return side.obstacle.levels[k].rows(rows)

    def leaf(self, side: _Side, k: int, rows: slice):
        """``(slice rows, the obstacle at their children)`` at level N - 1, else None."""
        n, branching = self.tree.num_steps, self.tree.branching
        if k < n - 1:
            return None
        leaf = side.obstacle.levels[n].rows(slice(rows.start * branching,
                                                  rows.stop * branching))
        return slice(None), leaf.reshape(-1, branching) if isinstance(leaf, np.ndarray) else leaf

    def lefts(self, side: _Side, k: int, rows: slice, out: np.ndarray) -> tuple:
        """``(slice rows, left limit column)`` of a declared level k + 1, in ``out``."""
        left = side.obstacle.left_levels.get(k + 1)
        return () if left is None else ((slice(None), left.rows((rows, None), out=out)),)

    def weigh(self, k: int, rows: slice, mass: np.ndarray,
              parent_prob: np.ndarray | None) -> float:
        return _integral_term(self.tree, k, rows, mass, parent_prob)


class _Stacked:
    """The parent states of levels 0 .. N - 1 of a ``Lattice`` as one level, a grid of the check.

    Row ``start[k] + s`` is state s of level k, and ``codes`` gives its
    children's rows in the states of levels 1 .. N, stacked the same way.
    """

    def __init__(self, lattice) -> None:
        n = lattice.num_steps
        self.branching = lattice.branching
        self.sizes = [lattice.level_size(k) for k in range(n + 1)]
        self.start = np.cumsum([0] + self.sizes)
        shift = np.repeat(self.start[1:n + 1] - self.start[1], self.sizes[:n])
        self.codes = np.concatenate(lattice.child) + shift[:, None]

    def level_size(self, level: int) -> int:
        return len(self.codes)

    def children(self, values_next: np.ndarray, level: int, rows: slice) -> np.ndarray:
        return values_next[self.codes[rows]]


def _by_row(tree: ScenarioTree, values: np.ndarray) -> np.ndarray:
    """``values @ branch_prob`` of a row-major (rows, B) table of ``values``, a column or a table.

    BLAS gives a row of a row-major table of two rows or more the same
    bits wherever the row sits, as the sweep's products rely on; of a
    column-major table, bits that depend on the row's place and the
    table's length.  A row-major table is taken as it is.
    """
    if values.shape[1] != tree.branching or not values.flags.c_contiguous:
        table = np.empty((len(values), tree.branching))
        table[...] = values
        values = table
    return values @ tree.branch_prob


def _within(part: slice, rows: slice):
    """``(rows of part within the slice rows, the same rows within part)``, or None."""
    lo, hi = max(part.start, rows.start), min(part.stop, rows.stop)
    if lo >= hi:
        return None
    return slice(lo - rows.start, hi - rows.start), slice(lo - part.start, hi - part.start)


class _StateReads:
    """What ``_check_block`` reads of a slice of every level's states on the tree's ``Lattice``.

    The states of levels 0 .. N - 1 are stacked into one level
    (``_Stacked``), and each value per state with them: Y, the driver's
    g(t) at its level, each side's obstacle, its booked K increments
    (+0.0 at a level without any) and K_d masses (+0.0 off the levels
    with mass).  The leaves' parents, and each declared level's parents
    with its left limit per state, are row ranges of the stack.  z is
    projected in full from each slice's children, and v where the driver
    reads it.  K_0 and K_d,0 are +0.0 by construction, so the root adds
    no residual.  P(parent) is the states' masses, summed forward over
    ``Lattice.child`` by ``np.bincount``, whose sums run in input order: no
    BLAS product, whose bits would depend on the thread count.  Every
    formula is taken in full (``known`` False).
    """

    known = False

    def __init__(self, lattice, tree: ScenarioTree, sol, driver, xi: np.ndarray,
                 sides) -> None:
        n, branching = tree.num_steps, tree.branching
        self.grid = stack = _Stacked(lattice)
        self.tree = tree
        self._reads_v = driver.c != 0.0 and tree.marks.count > 0
        sizes = stack.sizes[:n]
        values = sol.y.values
        self.y = [np.concatenate(values[:n]), np.concatenate(values[1:])]
        self._base = np.repeat([driver.base_at(tree.time(k)) for k in range(n)], sizes)
        last = slice(stack.start[n - 1], stack.start[n])
        self._xi = last, xi[lattice.child[n - 1]]
        self._sides = {}
        total = len(stack.codes)
        for side in sides:
            comp, obstacle = side.compensator, side.obstacle
            leaf = obstacle.levels[n]
            leaf = (leaf.base if leaf.part is None
                    else np.add(leaf.base, leaf.part[lattice.child[n - 1]]))
            lefts = [(slice(stack.start[level - 1], stack.start[level]),
                      obstacle.left_levels[level].whole()[:, None])
                     for level in obstacle.jump_levels]
            # base + part, as ``ObstacleLevel.rows`` forms it
            levels = np.repeat([level.base for level in obstacle.levels[:n]], sizes)
            parts = [level.part for level in obstacle.levels[:n]]
            whole = all(part is not None for part in parts)
            if whole:
                levels += np.concatenate(parts)
            # +0.0 masses for every row where no level has K_d mass
            has_mass = any(mass is not None for mass in comp.k_d.values)
            booked = np.zeros(total)
            masses = np.zeros((total, branching)) if has_mass else np.float64(0.0)
            for k in range(n):
                rows = slice(stack.start[k], stack.start[k + 1])
                if parts[k] is not None and not whole:
                    levels[rows] += parts[k]
                for out, values in ((booked, comp.k.values[k + 1]),
                                    (masses, comp.k_d.values[k + 1])):
                    if values is not None:
                        out[rows] = values
            self._sides[id(side)] = {"obstacle": levels, "booked": booked, "masses": masses,
                                     "leaf": (last, leaf), "lefts": lefts}
        prob, masses = np.ones(1), []
        for k in range(n):
            masses.append(prob)
            prob = np.bincount(lattice.child[k].ravel(), np.outer(prob, tree.branch_prob).ravel(),
                               minlength=stack.sizes[k + 1])
        prob = np.concatenate(masses)
        self.slices = [(0, rows, prob[rows]) for rows in _parent_blocks(stack, 0)]

    def zv(self, k: int, rows: slice, y_child: np.ndarray) -> tuple:
        """z in full, and v where the driver reads it (``_driver_value``)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (_project_z(self.tree, y_child),
                    _project_v(self.tree, y_child) if self._reads_v else None)

    def base(self, k: int, rows: slice) -> np.ndarray:
        """The driver's g(t) at each row's level."""
        return self._base[rows]

    def _part(self, part: slice, values, rows: slice):
        within = _within(part, rows)
        if within is None:
            return None
        sub, own = within
        return sub, values if np.ndim(values) == 0 else values[own]

    def terminal(self, k: int, rows: slice):
        return self._part(*self._xi, rows)

    def increments(self, side: _Side, k: int, rows: slice) -> tuple:
        """K's booked increments, a column per parent, and K_d's masses: see ``_side_increments``."""
        stacked = self._sides[id(side)]
        d_k, d_kd = stacked["booked"][rows, None], _rows(stacked["masses"], rows)
        d_kc = np.subtract(d_k, d_kd)
        split = _abs_max(np.subtract(np.subtract(d_k, d_kc), d_kd))
        # the largest increment serves only the node route's shortcuts
        return split, float(d_k.min()), None, d_k, d_kc, d_kd

    def obstacle(self, side: _Side, k: int, rows: slice) -> np.ndarray:
        return np.array(self._sides[id(side)]["obstacle"][rows])

    def weigh(self, k: int, rows: slice, mass: np.ndarray, parent_prob: np.ndarray) -> float:
        """A term of a left-limit integral, as ``_integral_term`` takes it (``_by_row``)."""
        return float(np.add.reduce(parent_prob * _by_row(self.tree, mass)))

    def leaf(self, side: _Side, k: int, rows: slice):
        found = self._part(*self._sides[id(side)]["leaf"], rows)
        if found is None or np.ndim(found[1]) == 0:
            return found
        return found[0], np.array(found[1])   # a fresh block, as on the nodes

    def lefts(self, side: _Side, k: int, rows: slice, out: np.ndarray) -> list:
        return [found for part, left in self._sides[id(side)]["lefts"]
                if (found := self._part(part, left, rows)) is not None]


def _per_state(tree: ScenarioTree, sol, specs: tuple, data: tuple, count: int):
    """``_on_lattice`` of the check's data where ``sol`` is kept on this tree's lattice, else None.

    The solution must be a direct solve's as it came: Y, and K and K_d of
    each of the first ``count`` sides, per state on the ``Lattice`` of this
    very tree, K_c their ``ContinuousPart`` and Z and V the ``Projection``s
    of Y; and the data must have states.  Anything else, an edited or
    stored level included, is read on the nodes.
    """
    if not isinstance(sol.y, StateLevels):
        return None
    on_lattice = _on_lattice(tree, specs, data)
    if on_lattice is None:
        return None
    lattice = on_lattice[0]
    comps = (sol.lower, sol.upper)[:count]
    kept = [sol.y] + [p for comp in comps if comp is not None for p in (comp.k, comp.k_d)]
    if not (all(isinstance(p, StateLevels) and p.lattice is lattice for p in kept)
            and all(comp is None or _own_part(comp) for comp in comps)
            and all(isinstance(p, Projection) and p.y is sol.y and p.tree is tree
                    and p.kernel is kernel
                    for p, kernel in ((sol.z, _project_z), (sol.v, _project_v)))):
        return None
    return on_lattice


def _slices(tree: ScenarioTree, declared: int):
    """``(k, rows, parent_prob)`` of every ``_parent_blocks`` slice of levels 0 to N - 1.

    Only a slice with continuous-type mass or a declared left limit at
    k + 1 reads its node probabilities, so their chain is walked
    (``_node_blocks``) only down to level ``declared - 1``, the parent level
    of the last declared level.  Below it ``parent_prob`` is None: a slice
    with mass takes its rows of ``tree.atom_prob``, the same chain's bits.
    """
    width = _parent_rows(tree)
    if declared:
        for k, block, prob in _node_blocks(tree, declared - 1, (np.ones(1),), _prob_step):
            for lo in range(0, len(prob), width):
                yield (k, slice(block.start + lo, min(block.start + lo + width, block.stop)),
                       prob[lo:lo + width])
    for k in range(declared, tree.num_steps):
        for rows in _parent_blocks(tree, k):
            yield k, rows, None


def _slice_zv(tree: ScenarioTree, sol, driver):
    """``zv(k, rows, y_child)``: a slice's rows of Z_k and V_k, y_child its children's Y.

    Z and V that are the ``Projection``s of the solution's own Y are
    projected from y_child, the table the slice reads anyway: each row of
    a product depends on that row alone, so the rows have the bits a read
    of the level gives, and no Z or V level is formed; by
    ``rbsde.bsde._step_projections``, a z or v whose term the driver fixes
    comes back None.  Other Z and V levels (a loaded
    dump, a copy, a mutant) are read as stored, by the full formula.
    """
    z, v = sol.z, sol.v
    if all(isinstance(p, Projection) and p.y is sol.y and p.tree is tree and p.kernel is kernel
           for p, kernel in ((z, _project_z), (v, _project_v))):
        rule = _step_projections(tree, driver)
        return lambda k, rows, y_child: rule(y_child)
    z, v = ([np.asarray(level, dtype=float) for level in levels] for levels in (z, v))
    return lambda k, rows, y_child: (z[k][rows], v[k][rows])


def _check_block(reads, tree: ScenarioTree, driver, sides, k: int, rows: slice,
                 parent_prob: np.ndarray | None) -> tuple[float, float]:
    """The clauses of one parent slice ``(k, rows)`` of ``reads.grid``, of probabilities ``parent_prob``.

    ``reads`` gives the slice's values on its grid (``_NodeReads`` or
    ``_StateReads``), and its children through ``reads.grid.children``;
    ``parent_prob`` None leaves the node probabilities to a clause that
    reads them (``_slices``).  Only the node route skips operations whose
    bits are known.  Returns its dynamics and simultaneous residuals.  The
    slice's arrays, and each side's, are local to one call, so none
    outlives its slice.
    """
    known = reads.known
    prob = tree.branch_prob
    y_par = reads.y[k][rows]
    y_child = reads.grid.children(reads.y[k + 1], k, rows)
    f_val = _driver_value(driver, tree, k, y_par, *reads.zv(k, rows, y_child),
                          base=reads.base(k, rows))
    dyn = 0.0
    terminal = reads.terminal(k, rows)
    if terminal is not None:
        leaves, xi = terminal
        dyn = _abs_max(np.subtract(y_child[leaves], xi))
    increments = [_check_side(reads, tree, side, k, rows, y_par, y_child, parent_prob)
                  for side in sides]
    rhs = y_child @ prob
    rhs += np.multiply(f_val, tree.dt, out=f_val)
    # K increments that are all ±0.0 weigh to +0.0 (BLAS adds each product
    # into a zeroed result), so no table and no product is formed
    if known and all(zero for _, _, zero in increments):
        rhs += 0.0
    else:
        # K+ - K- for two sides, K alone for one
        compensator = (increments[0][0] if len(sides) == 1
                       else increments[0][0] - increments[1][0])
        if not known:
            rhs += _by_row(tree, compensator)
        else:
            # a 0-d increment here is NaN (K shared and not finite): NaN at each parent
            rhs += _table(tree, compensator) @ prob if compensator.ndim else compensator
    dyn = _worst(dyn, _abs_max(np.subtract(y_par, rhs, out=rhs)))
    simultaneous = 0.0
    if len(sides) == 2:
        simultaneous = float(np.minimum(increments[0][1], increments[1][1]).max())
    return dyn, simultaneous


def _subtract(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a - b`` of (parents, 1) columns and (parents, B) tables.

    A table is taken a column at a time (``_by_branch``), into ``out`` or
    a fresh Fortran-order table.
    """
    if out is None:
        out = np.empty((len(a), max(a.shape[1], b.shape[1])), order="F")
    return _by_branch(np.subtract, a, b, out)


def _later(tree: ScenarioTree, values: np.ndarray, k: int, rows: slice) -> np.ndarray:
    """Level k + 1 of ``values`` below a slice of level ``k``.

    A (parents, 1) column where it is stored at level k or above, so read
    once per parent; else the (parents, B) view of the children.
    """
    if len(values) <= tree.level_size(k):
        return _block_rows(tree, values, k, rows)[:, None]
    return _children(tree, values, rows)


def _minus(tree: ScenarioTree, a: np.ndarray, values, k: int, rows: slice,
           own: bool = False) -> np.ndarray:
    """``a``, a ``_later`` read, minus ``values`` below a slice of level ``k``.

    ``values`` is an array stored by the level rule, or a (K, K_d) pair.
    Stored at level k or above, it is read once per parent, and a column
    subtracts each stored value from its group by broadcast (``_stored``);
    whole at level k + 1 it is read per child.  A table result is a
    Fortran-order table, which fixes the summation order of the products
    taken from it, or ``a`` itself where ``own`` gives it up.
    """
    if isinstance(values, tuple) or len(values) <= tree.level_size(k):
        parents = _stored(tree, values, k, rows)
        if a.shape[1] == 1:
            return _difference(a[:, 0], 1, *parents)[0][:, None]
        later = _expand(*parents)[:, None]
    else:
        later = _children(tree, values, rows)
    return _subtract(a, later, a if own and a.shape[1] >= later.shape[1] else None)


def _integral_term(tree: ScenarioTree, k: int, rows: slice, mass: np.ndarray,
                   parent_prob: np.ndarray | None) -> float:
    """One slice's term of a left-limit integral: each child's ``mass`` weighted by
    P(parent) * branch probability, a BLAS product over the (parents, B) table.

    ``parent_prob`` None takes P(parent) from ``tree.atom_prob`` (``_slices``).
    """
    if parent_prob is None:
        parent_prob = tree.atom_prob[k][rows]
    return float(np.add.reduce(parent_prob * (mass @ tree.branch_prob)))


def _side_increments(tree: ScenarioTree, side: _Side, k: int, rows: slice) -> tuple:
    """The K, K_c and K_d increments of one slice of level ``k``, and the split residual.

    Each increment is a (parents, 1) column where its level k + 1 is stored
    at level k or above, else a (parents, B) table (``_later``).  Where K_c
    is K's own array at both levels, the K increments serve as K_c's, and
    where K or K_d at k + 1 is its level k array itself each of its
    increments is x - x, which one finiteness test gives: a 0-d 0.0, or
    NaN (``_increment``).  Returns the split residual, the least and
    largest K increment, and the K, K_c and K_d increments.
    """
    comp = side.compensator
    total = _later(tree, comp.k[k + 1], k, rows)
    d_k = _increment(tree, comp.k, k, rows, total)
    low, high = float(d_k.min()), float(d_k.max())
    jump = comp.k_d[k + 1]
    cont = side.k_c[k + 1]
    if cont is None:
        # K - K_c - K_d is K - K - (+0.0): 0.0, or NaN where K is not
        # finite, which finite K increments rule out
        cont = total
        split = 0.0 if math.isfinite(high - low) else _self_gap(total)
    else:
        cont = (_minus(tree, total, jump, k, rows) if isinstance(cont, tuple)
                else _later(tree, cont, k, rows))
        split = _abs_max(_minus(tree, _subtract(total, cont), jump, k, rows, own=True))
    if cont is total and side.k_c[k] is None:
        d_kc = d_k
    else:
        earlier = comp.k[k] if side.k_c[k] is None else side.k_c[k]
        d_kc = _minus(tree, cont, earlier, k, rows)
    del total, cont   # each read of level k + 1 is freed once its increments are taken
    return split, low, high, d_k, d_kc, _increment(tree, comp.k_d, k, rows)


def _increment(tree: ScenarioTree, process: Process, k: int, rows: slice,
               later: np.ndarray | None = None) -> np.ndarray:
    """Level k + 1 minus level k of ``process`` below a slice of level ``k``.

    Where level k + 1 is level k's own array, each increment is x - x,
    which one finiteness test gives: a 0-d 0.0, or NaN.  Else a (parents,
    1) column or (parents, B) table (``_minus``); ``later`` is the
    ``_later`` read of level k + 1 where the caller has it.
    """
    if process[k + 1] is process[k]:
        return np.float64(_self_gap(_stored(tree, process[k], k, rows)[0]))
    if later is None:
        later = _later(tree, process[k + 1], k, rows)
    return _minus(tree, later, process[k], k, rows)


def _rows(values, rows):
    """``values[rows]``, or ``values`` itself where it is one number for every row."""
    return values if np.ndim(values) == 0 else values[rows]


def _check_side(reads, tree: ScenarioTree, side: _Side, k: int, rows: slice,
                y_par: np.ndarray, y_child: np.ndarray, parent_prob: np.ndarray | None) -> tuple:
    """One side's clauses on one parent slice.

    Returns its K and K_d increments, and whether every K increment is
    known to be ±0.0 (on the node route only).
    """
    known = reads.known
    split, low, high, d_k, d_kc, d_kd = reads.increments(side, k, rows)
    side.split = _worst(side.split, split)
    side.monotone = _worst(side.monotone, -low)
    zero = known and low == 0.0 == high
    # the obstacle's blocks are fresh arrays (or its base alone): each
    # clause is formed in the block that reads the obstacle
    obstacle = reads.obstacle(side, k, rows)
    slack = np.subtract(y_par, obstacle, out=_own(obstacle))
    if side.sign < 0:
        np.negative(slack, out=slack)
    slack_low, slack_high = float(slack.min()), float(slack.max())
    side.contain = _worst(side.contain, -slack_low)
    leaf = reads.leaf(side, k, rows)
    if leaf is not None:
        leaves, leaf = leaf
        # the largest sign*(leaf - Y_N) without forming it: max(x) for +1, -min(x) for -1
        excess = np.subtract(leaf, y_child[leaves], out=_own(leaf))
        side.contain = _worst(side.contain, float(excess.max()) if side.sign > 0
                              else -float(excess.min()))
        del leaf, excess
    # The continuous-type mass d_kc * slack and the left-limit minimality
    # integral, weighting each child by P(parent) * branch probability:
    # continuous-type mass pairs with the slack at the assigning slot,
    # jump-type mass (below) with the left limit against the previous-slot
    # solution.  ±0.0 increments times a finite slack are ±0.0, mass that
    # is all ±0.0 weighs to +0.0 (BLAS adds into a zeroed result), and so
    # does each parent's term: then no mass, table or product is formed
    if d_kc is d_k and zero and math.isfinite(slack_high - slack_low):
        side.terms[k].append(0.0)
    else:
        # a 0-d d_kc (K shared with level k) meets the slack as a column
        shape = np.broadcast_shapes(d_kc.shape, (len(slack), 1))
        mass_c = np.multiply(d_kc, slack[:, None],
                             out=np.empty(shape, order="F") if d_kc is d_k else d_kc)
        skorokhod = _abs_max(mass_c)
        side.skorokhod = _worst(side.skorokhod, skorokhod)
        if known:
            side.terms[k].append(0.0 if skorokhod == 0.0 else
                                 reads.weigh(k, rows, _table(tree, mass_c), parent_prob))
        else:
            side.terms[k].append(reads.weigh(k, rows, mass_c, parent_prob))
        del mass_c
    lefts = reads.lefts(side, k, rows, slack[:, None])
    if not lefts:
        side.jump = _worst(side.jump, _abs_max(d_kd))
        return d_k, d_kd, zero
    # The left limit and the gap to it are columns per parent, on the node
    # route the left limit in the spent slack block.  One row-major block
    # takes the formula and then gap * d_kd, which the product reads.  The
    # formula is +0.0 off the binding parents, and off the rows without a
    # left limit: +0.0 is the all-zero bit pattern, so and-ing each row's
    # bits with all ones or all zeros keeps or clears it exactly, as a
    # masked copy would.
    formula = np.empty(y_child.shape) if known else np.zeros(y_child.shape)
    gaps = []
    for parents, left in lefts:
        gap = np.subtract(y_par[parents, None], left)
        gap *= side.sign
        keep = np.negative(np.abs(gap) <= BIND_TOL, dtype=np.int64)
        part = formula[parents]
        _by_branch(np.subtract, left, y_child[parents], part)
        if side.sign < 0:
            np.negative(part, out=part)
        np.maximum(part, 0.0, out=part)
        _by_branch(np.bitwise_and, part.view(np.int64), keep, part.view(np.int64))
        gaps.append(gap)
    side.jump = _worst(side.jump, _abs_max(_by_branch(np.subtract, d_kd, formula, formula)))
    for (parents, _), gap in zip(lefts, gaps):
        part = _by_branch(np.multiply, gap, _rows(d_kd, parents), formula[parents])
        side.terms[k].append(reads.weigh(k, rows, part, _rows(parent_prob, parents)))
    return d_k, d_kd, zero


# Clause names and notes by obstacle count: the containment clause, one
# Skorokhod and one jump-formula clause per side (lower side first), and
# the notes of the monotonicity and left-limit clauses.
_CLAUSE_NAMES = {
    1: (("barrier_dominance", "Y >= S"),
        (("skorokhod_c", "continuous-type mass only where Y touches S"),),
        (("jump_formula_d", "jump-type mass matches the left-limit formula"),),
        "K nondecreasing from zero, split adds up", "left-limit minimality integral"),
    2: (("containment", "L <= Y <= U"),
        (("skorokhod_lower_c", "K+ c-mass only on L"),
         ("skorokhod_upper_c", "K- c-mass only on U")),
        (("jump_formula_lower", "K+ jump formula"), ("jump_formula_upper", "K- jump formula")),
        "K+- nondecreasing from zero, splits add up", "left-limit minimality integrals"),
}


def check_solution(tree: ScenarioTree, sol: Solution, driver, terminal, lower,
                   upper=None) -> CheckReport:
    """Check every clause of the reflected equation on a solution.

    ``upper=None`` checks the one-obstacle equation (U = +inf) against
    ``sol.lower``; with an upper obstacle ``sol.upper`` is checked too.
    """
    data = evaluate(tree, terminal, lower, upper)
    on_lattice = _per_state(tree, sol, (terminal, lower, upper), data, 1 + (upper is not None))
    grid, (xi, low, up) = (tree, data) if on_lattice is None else on_lattice
    sides = [_Side(low, sol.lower, +1)]
    if up is not None:
        sides.append(_Side(up, sol.upper, -1))
    dyn, simultaneous = _check_levels(grid, tree, sol, driver, xi, sides)
    contain, skorokhod, jump, monotone_note, left_note = _CLAUSE_NAMES[len(sides)]
    size = _data_size(tree, driver, xi, sides)

    def clause(residual: float, note: str, size: float = size) -> ClauseCheck:
        return ClauseCheck(residual <= max(CHECK_TOL, ROUNDING_TOL * size), residual, note)

    clauses = {
        "dynamics": clause(dyn, "projected step identity and terminal"),
        contain[0]: clause(_worst(0.0, *(s.contain for s in sides)), contain[1]),
    }
    # the mass times the slack, and the left-limit integral, are products of two sizes
    for (name, note), side in zip(skorokhod, sides):
        clauses[name] = clause(side.skorokhod, note, size * size)
    for (name, note), side in zip(jump, sides):
        clauses[name] = clause(side.jump, note)
    clauses["compensator_monotone"] = clause(
        _worst(*(s.monotone for s in sides), *(s.split for s in sides)), monotone_note)
    if upper is not None:
        clauses["no_simultaneous_jumps"] = clause(_worst(0.0, simultaneous),
                                                  "K+d and K-d never fire together")
    clauses["left_limit_skorokhod"] = clause(
        _worst(*(abs(s.left_integral) for s in sides)), left_note, size * size)
    return CheckReport(tolerance=CHECK_TOL, clauses=clauses)


def _data_size(tree: ScenarioTree, driver, xi: np.ndarray, sides) -> float:
    """The size of a problem's data: the largest |value| of ξ, of the driver's g(t_k), of
    each obstacle level and of each left limit.

    A maximum of the data alone, which a solution cannot move, and the
    same on either grid: a state's values are its nodes'.
    """
    levels = [level for side in sides
              for level in (*side.obstacle.levels, *side.obstacle.left_levels.values())]
    return max(_abs_max(xi), *(abs(driver.base_at(tree.time(k)))
                               for k in range(tree.num_steps)),
               *map(_level_size, levels))


def _level_size(level) -> float:
    """max |base + part| of an ``ObstacleLevel``: its span's, rounding being monotone."""
    if level.part is None:
        return abs(level.base)
    if level.span is None:   # the caller's own levels
        return _abs_max(level.whole())
    return max(abs(level.base + x) for x in level.span)


# The one- and two-obstacle names of the same checker, for the call sites of
# each kind and the benchmark's tracer (bench/tracing.py).
check_solution_one = check_solution_two = check_solution


def uniqueness_probe(problem: ProblemSpec, n_restarts: int = 2) -> float:
    """Solve along independent routes; return the worst pairwise Y gap.

    The routes are the direct solve, a penalised rung with one obstacle, and
    Picard from random starts or, for a coefficient-free driver, an envelope.
    The direct solve stores its Z and V, as the sweeps of the routes after it
    do, so it keeps the terminal's last step that they then share
    (``rbsde.processes.LastStep``) and none of them projects it again.
    """
    if n_restarts < 2:
        raise ValueError("need at least two restarts")
    tree = problem.build_tree()
    driver, terminal, obstacles = problem.driver, problem.terminal, problem.obstacles
    routes: list[Process] = [_solve(tree, driver, terminal, *obstacles, store=True).y]
    if len(obstacles) == 1:
        routes.append(solve_penalized(tree, driver, *obstacles, terminal,
                                      EXACT_PENALTY_LEVEL).solution.y)
    if not driver.is_coefficient_free:
        for i in range(n_restarts - 1):
            initial = random_triple(tree, np.random.default_rng(911 + 13 * i))
            routes.append(picard_solve(tree, driver, terminal, problem.kind, problem.barrier,
                                       problem.lower, problem.upper, initial=initial)[0].y)
    elif not obstacles:
        routes.append(_mean_mass(tree, _source_rates(tree, driver),
                                 _closure(tree, evaluate(tree, terminal)[0])))
    elif len(obstacles) == 1:
        payoff, cum = obstacle_payoff(tree, driver, terminal, *obstacles)
        envelope, _ = _envelope(tree, payoff)
        routes.append([envelope[k] - cum[k] for k in range(tree.num_steps + 1)])
    else:
        routes.append(picard_snell_solve(tree, driver, terminal, *obstacles)[0].y)
    return _worst(0.0, *(sup_diff(p, q) for p, q in itertools.combinations(routes, 2)))


@dataclass(eq=False)
class RegularityProbeReport:
    levels: tuple[float, ...]
    kd_mass: float
    y_gaps: tuple[float, ...]
    z_gaps: tuple[float, ...]
    v_gaps: tuple[float, ...]
    gaps_at_jumps: tuple[float, ...]
    verdict: str


def regularity_probe(problem: ProblemSpec) -> RegularityProbeReport:
    """The penalty ladder ``DEFAULT_LADDER`` against the jump-type compensator mass.

    A vanishing jump-type mass should co-occur with uniformly closing Y
    gaps; positive mass pins the gap to the declared jump times while
    the (Z, V) gaps may vanish regardless.
    """
    if problem.kind != "one_barrier":
        raise ValueError("the regularity probe takes a one-obstacle problem")
    tree = problem.build_tree()
    report = sweep(tree, problem.driver, problem.barrier, problem.terminal, DEFAULT_LADDER)
    reflected = report.reflected
    kd_mass = terminal_mean(tree, reflected.lower.k_d)

    # non-uniformity shows at the slot announcing each jump
    _, obstacle = evaluate(tree, None, problem.barrier)
    slots = [level - 1 for level in obstacle.jump_levels]
    gaps_at_jumps = [sup_diff([rung.solution.y[k] for k in slots],
                              [reflected.y[k] for k in slots]) for rung in report.solutions]

    verdict = "irregular" if kd_mass > REGULAR_TOL else "regular"
    return RegularityProbeReport(levels=report.levels, kd_mass=kd_mass,
                                 y_gaps=report.sup_gaps, z_gaps=report.z_gaps,
                                 v_gaps=report.v_gaps,
                                 gaps_at_jumps=tuple(gaps_at_jumps), verdict=verdict)
