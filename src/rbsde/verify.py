"""Solution-condition checker and structural probes.

Every clause of the reflected equations becomes a residual: the
projected dynamics identity, the representation of Z and V, obstacle
dominance, the minimality sums for the continuous-type compensator mass,
the left-limit jump formulas, and compensator monotonicity.  One
``_check_block`` takes every clause of a slice of parents with their
children, on either grid, by the same full formulas.

A solution as a solve of data with states handed it out (direct, or
Picard from zero), kept per state on the ``Lattice`` of this very tree
(``rbsde.tree.StateLevels``), is checked there, one row per state, when
the data have states too (``_StateReads``): the
states of levels 0 .. N - 1 are stacked into one level, so a few slices
take every clause.  The clauses read the increments the solve booked, K's
per parent state and K_d's per parent state and branch, and K_c's as
their difference, not differences of cumulative K; the terminal, the
obstacles and the left limits per state come from the evaluation's own
tables (``rbsde.processes._on_lattice``), so the check forms no node
level of the data, and P(parent) is the states' masses.  Each row's products are BLAS's on
row-major tables, which give a row the same bits wherever it sits in a
table of two rows or more (no slice has one row,
``rbsde.tree._parent_blocks``).  So the pointwise residuals are those of
the same formulas on the nodes, and the left-limit integral, summed by
state mass, is theirs to rounding.  Any other solution (a loaded dump, a
copy, a mutant, a Picard solve from a given start, a solve of the
caller's own arrays) is read on the nodes (``_NodeReads``).

On the nodes all clauses come from one pass over the cache-sized parent
slices of each level, with the node probabilities of each slice walked
depth first (``rbsde.tree._node_blocks``), each row built once; the leaf
clauses are taken in the slices of the last parent level, so no clause
forms a whole-level temporary and no ``tree.atom_prob`` level is read.
The compensators are read through the level-rule readers of
``rbsde.tree``, so compact solver output and whole-level solutions go
through the same checker: level k of K, K_c and K_d as a (parents, 1)
column, and level k + 1 as a column where it is stored at level k or
above, else as the (parents, B) table of the children (``_later``); each
increment is the difference of the two, by broadcasting.  A solver
stores no K_c (``rbsde.bsde.ContinuousPart``): a slice's rows of it are
the rows of K minus those of K_d, so the checker builds no level of it,
while stored K_c levels (a loaded dump, a hand-built mutant) are read as
they are and the split clause tests them.  Nor does a direct solve store
Z or V (``rbsde.bsde.Projection``): where they are the projections of
the solution's own Y, a slice's rows of them are projected from the
children table it reads anyway, so they have the bits a read of the
level gives and no Z or V level is built (``_zv``); the representation
clause then holds by construction.  Stored Z and V levels are read as
they are, and the representation clause compares them with their
definition.  Products with ``branch_prob`` take a column-major table on
the nodes and a row-major one on the states (``_table``), the layouts
that give each grid its report bits.

A clause passes at a residual of at most ``CHECK_TOL``, or of at most
``ROUNDING_TOL`` times the size of the data (its square for a product of
a mass and a slack) where that is larger: data near the largest float
round past any absolute bound, and the node check's differences of
cumulative K and the per-state check's booked increments round apart, so
without it one solution could pass on one grid and fail on the other.
Below a size of about 10 every bound is ``CHECK_TOL``.  The jump clauses
apply the left-limit formula with ``BIND_TOL``, the very constant the
solver's split reads, so solver and checker share one convention;
neither tolerance is an argument.  The probes re-solve problems along
independent routes (uniqueness) and run the penalty ladder
``DEFAULT_LADDER`` against the jump-type mass (regularity dichotomy),
calling a problem regular by ``rbsde.snell.REGULAR_TOL`` as the
envelope route's ``regularity_check`` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bsde import (Compensator, ContinuousPart, Projection, Solution, _driver_value, _project_v,
                   _project_z)
from .fixpoint import picard_solve, random_triple
from .penalty import solve_penalized, sweep
from .processes import BarrierValues, ProblemSpec, _on_lattice, evaluate
from .reflected import _own, _source_rates, obstacle_payoff, solve_reflected
from .snell import BIND_TOL, REGULAR_TOL, _envelope
from .snell import snell  # noqa: F401  (kept importable from this module)
from .tree import (Process, ScenarioTree, StateLevels, _block_rows, _children, _node_blocks,
                   _parent_blocks, _parent_rows, _prob_step, _worst, sup_diff, terminal_mean)
from .twobarrier import _closure, _mean_mass, picard_snell_solve

# The probe's direct route is ``solve_reflected``; these solver names stay
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
    ``k_c`` holds K_c's stored levels, or None where K_c is the
    compensator's own ``ContinuousPart``, K - K_d (``_NodeReads``).
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
    k_c: list | None = None   # K_c's stored levels, None for K - K_d

    def __post_init__(self) -> None:
        if self.compensator is None:
            name = "lower" if self.sign > 0 else "upper"
            raise ValueError(f"the solution has no {name} compensator to check "
                             f"against the {name} obstacle")


def _own_part(comp: Compensator) -> bool:
    """Whether K_c is the compensator's own ``ContinuousPart`` K - K_d."""
    k_c = comp.k_c
    return isinstance(k_c, ContinuousPart) and k_c.k is comp.k and k_c.k_d is comp.k_d


def _projected(tree: ScenarioTree, sol) -> bool:
    """Whether Z and V are the ``Projection``s of the solution's own Y on this tree."""
    return all(isinstance(p, Projection) and p.y is sol.y and p.tree is tree
               and p.kernel is kernel for p, kernel in ((sol.z, _project_z), (sol.v, _project_v)))


def _abs_max(values: np.ndarray) -> float:
    """max |values| from two reductions, without an |values| temporary."""
    return _worst(float(values.max()), -float(values.min()))


def _table(tree: ScenarioTree, values: np.ndarray, order: str) -> np.ndarray:
    """The (parents, B) table of a (parents, 1) column or a table, in ``order``: "F" or "C".

    Products with ``branch_prob`` read a table of one layout on each grid,
    so their bits do not depend on how the values were formed.  BLAS gives
    a row of a row-major table of two rows or more the same bits wherever
    the row sits, as the sweep's products rely on, so the states take
    "C"; the nodes take "F".  A table of the layout is taken as it is.
    """
    if values.shape[1] == tree.branching and values.flags[order + "_CONTIGUOUS"]:
        return values
    out = np.empty((len(values), tree.branching), order=order)
    out[...] = values
    return out


def _check_levels(grid, tree: ScenarioTree, sol, driver, xi: np.ndarray,
                  sides) -> tuple[float, float, float]:
    """Every clause residual over the parent slices of ``grid``: the tree or its ``Lattice``.

    ``_check_block`` takes the clauses of each slice, of one level's nodes
    (``_NodeReads``) or of the lattice's states of every level at once
    (``_StateReads``).  The left-limit integral adds its terms level by
    level, each level's slices left to right, as a pass per level would;
    the other residuals are NaN-keeping maxima, which the order of the
    slices does not change.  Fills the per-side residuals; returns the
    dynamics and representation residuals and, for two sides, the worst
    simultaneous jump-type mass.
    """
    for side in sides:
        side.terms = [[] for _ in range(tree.num_steps)]
    reads = (_NodeReads(tree, sol, driver, xi, sides) if grid is tree
             else _StateReads(grid, tree, sol, driver, xi, sides))
    worst = [0.0, 0.0, 0.0]
    for k, rows, parent_prob in reads.slices:
        block = _check_block(reads, tree, driver, sides, k, rows, parent_prob)
        worst = [_worst(a, b) for a, b in zip(worst, block)]
    for side in sides:
        for term in itertools.chain.from_iterable(side.terms):
            side.left_integral += term
    return tuple(worst)


def _zv(tree: ScenarioTree, sol, driver):
    """``zv(k, rows, y_child)``: a slice's rows of Z_k and V_k, and whether they are projected.

    ``y_child`` is the slice's children's Y.  Z and V that are the
    ``Projection``s of the solution's own Y are projected from it in full,
    z always and v where ``_driver_value`` reads it (c != 0, with marks),
    as fresh arrays: each row of a product depends on that row alone, so
    the rows have the bits a read of the level gives, and no Z or V level
    is formed.  Other Z and V levels (a loaded dump, a copy, a mutant, a
    Picard or penalised solve) are read as stored.
    """
    if _projected(tree, sol):
        reads_v = driver.c != 0.0 and tree.marks.count > 0

        def projected(k, rows, y_child):
            with np.errstate(over="ignore", invalid="ignore"):
                return (_project_z(tree, y_child),
                        _project_v(tree, y_child) if reads_v else None, True)
        return projected
    z, v = ([np.asarray(level, dtype=float) for level in levels] for levels in (sol.z, sol.v))
    return lambda k, rows, y_child: (z[k][rows], v[k][rows], False)


def _represented(tree: ScenarioTree, y_child: np.ndarray, z: np.ndarray, v,
                 projected: bool) -> float:
    """The largest gap of a slice's Z and V to their definition from Y_{k+1}.

    Z_k = E[Y_{k+1} dB_k | F_k] / dt and V_{k,i} = E[Y_{k+1} dN~_{k,i} | F_k]
    / (lam_i dt): each conditional moment weighs the children table against
    ``branch_db`` or ``branch_comp`` by ``branch_prob``, in the product a
    sweep takes, so a solver's stored Z and V give 0.0 at every finite row.
    Projected z and v (``_zv``) are that definition itself: their gap is
    x - x, 0.0 or NaN where one is not finite, as a stored copy gives,
    taken in place.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if projected:
            return _worst(0.0, *(_abs_max(np.subtract(x, x, out=x)) for x in (z, v)
                                 if x is not None and x.size))
        moment = (y_child @ (tree.branch_prob * tree.branch_db)) / tree.dt
        residual = _abs_max(np.subtract(z, moment, out=moment))
        if tree.marks.count:
            moment = ((y_child @ (tree.branch_prob[:, None] * tree.branch_comp))
                      / (tree.marks.intensity_array * tree.dt))
            residual = _worst(residual, _abs_max(np.subtract(v, moment, out=moment)))
    return residual


class _NodeReads:
    """What ``_check_block`` reads of a parent slice ``(k, rows)`` of the tree's nodes.

    ``y`` is Y's levels, ``zv`` a slice's Z and V (``_zv``) and ``slices``
    every ``_parent_blocks`` slice of levels 0 .. N - 1 with its node
    probabilities (``_node_slices``).  Each side's residuals at the root
    are taken here.  A compensator whose levels are formed on read
    (``StateLevels``) is read once, whole, with its levels shared where it
    adds no mass.
    """

    order = "F"

    def __init__(self, tree: ScenarioTree, sol, driver, xi: np.ndarray, sides) -> None:
        for side in sides:
            comp = side.compensator
            own = _own_part(comp)
            if isinstance(comp.k, StateLevels) or isinstance(comp.k_d, StateLevels):
                comp = side.compensator = Compensator(k=list(comp.k), k_d=list(comp.k_d),
                                                      k_c=None if own else comp.k_c)
            side.k_c = None if own else comp.k_c
            root = [np.asarray(comp.k[0], dtype=float), np.asarray(comp.k_d[0], dtype=float)]
            root_c = (root[0] - root[1] if own
                      else _block_rows(tree, np.asarray(comp.k_c[0], dtype=float), 0, slice(0, 1)))
            side.monotone = float(np.max(np.abs(root[0])))
            side.split = float(np.max(np.abs(root[0] - root_c - root[1])))
        self.grid, self.tree, self.xi = tree, tree, xi
        self.y = [np.asarray(level, dtype=float) for level in sol.y]
        self.zv = _zv(tree, sol, driver)
        self.slices = _node_slices(tree)

    def base(self, k: int, rows: slice) -> None:
        return None   # the driver's g(t_k)

    def terminal(self, k: int, rows: slice):
        """``(slice rows, their children's ξ)`` at level N - 1, else None."""
        if k < self.tree.num_steps - 1:
            return None
        return slice(None), _children(self.tree, self.xi, rows)

    def increments(self, side: _Side, k: int, rows: slice) -> tuple:
        """The split residual, the least K increment, and K's, K_c's and K_d's increments.

        Levels k and k + 1 of each process are read by the level rule
        (``_levels``), and K_c's, where the solver stores none, as K's
        minus K_d's.
        """
        comp, tree = side.compensator, self.tree
        total, jump = (_levels(tree, process, k, rows) for process in (comp.k, comp.k_d))
        cont = ([np.subtract(a, b) for a, b in zip(total, jump)] if side.k_c is None
                else _levels(tree, side.k_c, k, rows))
        d_k = np.subtract(total[1], total[0])
        split = _abs_max(np.subtract(np.subtract(total[1], cont[1]), jump[1]))
        return (split, float(d_k.min()), d_k, np.subtract(cont[1], cont[0]),
                np.subtract(jump[1], jump[0]))

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


def _levels(tree: ScenarioTree, process: Process, k: int, rows: slice) -> tuple:
    """Levels k and k + 1 of a process below a slice of level ``k``.

    Level k is a (parents, 1) column, level k + 1 a column or the (parents,
    B) table of the children (``_later``), each read by the level rule.
    """
    return _block_rows(tree, process[k], k, rows)[:, None], _later(tree, process[k + 1], k, rows)


def _later(tree: ScenarioTree, values: np.ndarray, k: int, rows: slice) -> np.ndarray:
    """Level k + 1 of ``values`` below a slice of level ``k``.

    A (parents, 1) column where it is stored at level k or above, so read
    once per parent; else the (parents, B) view of the children.
    """
    if len(values) <= tree.level_size(k):
        return _block_rows(tree, values, k, rows)[:, None]
    return _children(tree, values, rows)


def _node_slices(tree: ScenarioTree):
    """``(k, rows, parent_prob)`` of every ``_parent_blocks`` slice of levels 0 to N - 1.

    The node probabilities are walked depth first (``_node_blocks``), as
    ``tree.atom_prob`` chains them, so each has its bits and no level of it
    is built; a level's slices come left to right.
    """
    width = _parent_rows(tree)
    for k, block, prob in _node_blocks(tree, tree.num_steps - 1, (np.ones(1),), _prob_step):
        for lo in range(0, len(prob), width):
            yield (k, slice(block.start + lo, min(block.start + lo + width, block.stop)),
                   prob[lo:lo + width])


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
    with its left limit per state, are row ranges of the stack.  Z and V
    are the projections of Y (``_zv``).  K_0 and K_d,0 are +0.0 by
    construction, so the root adds no residual.  P(parent) is the states'
    masses (``rbsde.tree.Lattice.masses``).
    """

    order = "C"

    def __init__(self, lattice, tree: ScenarioTree, sol, driver, xi: np.ndarray,
                 sides) -> None:
        n, branching = tree.num_steps, tree.branching
        self.grid = stack = _Stacked(lattice)
        self.tree = tree
        self.zv = _zv(tree, sol, driver)
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
        prob = np.concatenate(lattice.masses[:n])
        self.slices = [(0, rows, prob[rows]) for rows in _parent_blocks(stack, 0)]

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
        """K's booked increments, a column per parent, and K_d's masses: see ``_NodeReads``."""
        stacked = self._sides[id(side)]
        d_k, d_kd = stacked["booked"][rows, None], _rows(stacked["masses"], rows)
        d_kc = np.subtract(d_k, d_kd)
        split = _abs_max(np.subtract(np.subtract(d_k, d_kc), d_kd))
        return split, float(d_k.min()), d_k, d_kc, d_kd

    def obstacle(self, side: _Side, k: int, rows: slice) -> np.ndarray:
        return np.array(self._sides[id(side)]["obstacle"][rows])

    def leaf(self, side: _Side, k: int, rows: slice):
        found = self._part(*self._sides[id(side)]["leaf"], rows)
        if found is None or np.ndim(found[1]) == 0:
            return found
        return found[0], np.array(found[1])   # a fresh block, as on the nodes

    def lefts(self, side: _Side, k: int, rows: slice, out: np.ndarray) -> list:
        return [found for part, left in self._sides[id(side)]["lefts"]
                if (found := self._part(part, left, rows)) is not None]


def _per_state(tree: ScenarioTree, sol, specs: tuple, count: int):
    """``_on_lattice`` of the check's data where ``sol`` is kept on this tree's lattice, else None.

    The solution must be as a lattice solve handed it out: Y, and K and
    K_d of each of the first ``count`` sides, per state on the ``Lattice``
    of this very tree, K_c their ``ContinuousPart`` and Z and V the
    ``Projection``s of Y; and the data must have states.  Anything else, an edited or
    stored level included, is read on the nodes.
    """
    if not isinstance(sol.y, StateLevels):
        return None
    on_lattice = _on_lattice(tree, *specs)
    if on_lattice is None:
        return None
    lattice = on_lattice[0]
    comps = (sol.lower, sol.upper)[:count]
    kept = [sol.y] + [p for comp in comps if comp is not None for p in (comp.k, comp.k_d)]
    if not (all(isinstance(p, StateLevels) and p.lattice is lattice for p in kept)
            and all(comp is None or _own_part(comp) for comp in comps)
            and _projected(tree, sol)):
        return None
    return on_lattice


def _check_block(reads, tree: ScenarioTree, driver, sides, k: int, rows: slice,
                 parent_prob: np.ndarray) -> tuple[float, float, float]:
    """The clauses of one parent slice ``(k, rows)`` of ``reads.grid``, of probabilities ``parent_prob``.

    ``reads`` gives the slice's values on its grid (``_NodeReads`` or
    ``_StateReads``), and its children through ``reads.grid.children``.
    Returns its dynamics, representation and simultaneous residuals.  The
    slice's arrays, and each side's, are local to one call, so none
    outlives its slice.
    """
    prob = tree.branch_prob
    y_par = reads.y[k][rows]
    y_child = reads.grid.children(reads.y[k + 1], k, rows)
    z, v, projected = reads.zv(k, rows, y_child)
    f_val = _driver_value(driver, tree, k, y_par, z, v, base=reads.base(k, rows))
    represented = _represented(tree, y_child, z, v, projected)
    del z, v
    dyn = 0.0
    terminal = reads.terminal(k, rows)
    if terminal is not None:
        leaves, xi = terminal
        dyn = _abs_max(np.subtract(y_child[leaves], xi))
    increments = [_check_side(reads, tree, side, k, rows, y_par, y_child, parent_prob)
                  for side in sides]
    rhs = y_child @ prob
    rhs += np.multiply(f_val, tree.dt, out=f_val)
    # K+ - K- for two sides, K alone for one
    compensator = (increments[0][0] if len(sides) == 1
                   else increments[0][0] - increments[1][0])
    rhs += _table(tree, compensator, reads.order) @ prob
    dyn = _worst(dyn, _abs_max(np.subtract(y_par, rhs, out=rhs)))
    simultaneous = 0.0
    if len(sides) == 2:
        simultaneous = float(np.minimum(increments[0][1], increments[1][1]).max())
    return dyn, represented, simultaneous


def _integral_term(tree: ScenarioTree, mass: np.ndarray, parent_prob: np.ndarray) -> float:
    """One slice's term of a left-limit integral: each child's ``mass`` weighted by
    P(parent) * branch probability, a BLAS product over the (parents, B) table.
    """
    return float(np.add.reduce(parent_prob * (mass @ tree.branch_prob)))


def _rows(values, rows):
    """``values[rows]``, or ``values`` itself where it is one number for every row."""
    return values if np.ndim(values) == 0 else values[rows]


def _check_side(reads, tree: ScenarioTree, side: _Side, k: int, rows: slice,
                y_par: np.ndarray, y_child: np.ndarray, parent_prob: np.ndarray) -> tuple:
    """One side's clauses on one parent slice; returns its K and K_d increments."""
    split, low, d_k, d_kc, d_kd = reads.increments(side, k, rows)
    side.split = _worst(side.split, split)
    side.monotone = _worst(side.monotone, -low)
    # the obstacle's blocks are fresh arrays (or its base alone): each
    # clause is formed in the block that reads the obstacle
    obstacle = reads.obstacle(side, k, rows)
    slack = np.subtract(y_par, obstacle, out=_own(obstacle))
    if side.sign < 0:
        np.negative(slack, out=slack)
    side.contain = _worst(side.contain, -float(slack.min()))
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
    # solution.
    mass_c = np.multiply(d_kc, slack[:, None], out=d_kc)
    side.skorokhod = _worst(side.skorokhod, _abs_max(mass_c))
    side.terms[k].append(_integral_term(tree, _table(tree, mass_c, reads.order), parent_prob))
    del mass_c
    lefts = reads.lefts(side, k, rows, slack[:, None])
    if not lefts:
        side.jump = _worst(side.jump, _abs_max(d_kd))
        return d_k, d_kd
    # The left limit and the gap to it are columns per parent, on the node
    # route the left limit in the spent slack block.  One row-major block
    # takes the formula and then gap * d_kd, which the product reads.  The
    # formula is +0.0 off the binding parents, and off the rows without a
    # left limit: +0.0 is the all-zero bit pattern, so and-ing each row's
    # bits with all ones or all zeros keeps or clears it exactly, as a
    # masked copy would.
    formula = np.zeros(y_child.shape)
    gaps = []
    for parents, left in lefts:
        gap = np.subtract(y_par[parents, None], left)
        gap *= side.sign
        keep = np.negative(np.abs(gap) <= BIND_TOL, dtype=np.int64)
        part = formula[parents]
        np.subtract(left, y_child[parents], out=part)
        if side.sign < 0:
            np.negative(part, out=part)
        np.maximum(part, 0.0, out=part)
        np.bitwise_and(part.view(np.int64), keep, out=part.view(np.int64))
        gaps.append(gap)
    side.jump = _worst(side.jump, _abs_max(np.subtract(d_kd, formula, out=formula)))
    for (parents, _), gap in zip(lefts, gaps):
        part = np.multiply(gap, _rows(d_kd, parents), out=formula[parents])
        side.terms[k].append(_integral_term(tree, part, _rows(parent_prob, parents)))
    return d_k, d_kd


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
    on_lattice = _per_state(tree, sol, (terminal, lower, upper), 1 + (upper is not None))
    grid, (xi, low, up) = ((tree, evaluate(tree, terminal, lower, upper)) if on_lattice is None
                           else on_lattice)
    sides = [_Side(low, sol.lower, +1)]
    if up is not None:
        sides.append(_Side(up, sol.upper, -1))
    dyn, represented, simultaneous = _check_levels(grid, tree, sol, driver, xi, sides)
    contain, skorokhod, jump, monotone_note, left_note = _CLAUSE_NAMES[len(sides)]
    size = _data_size(tree, driver, xi, sides)

    def clause(residual: float, note: str, size: float = size) -> ClauseCheck:
        return ClauseCheck(residual <= max(CHECK_TOL, ROUNDING_TOL * size), residual, note)

    clauses = {
        "dynamics": clause(dyn, "projected step identity and terminal"),
        "representation": clause(represented, "Z and V are the projections of the next Y"),
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
    The direct solve and the rung run on the tree's ``Lattice``, and their
    gap is taken per state; a random start is given per node, so Picard
    from it runs on the nodes, as the envelopes do, and projects ξ on
    every round.
    """
    if n_restarts < 2:
        raise ValueError("need at least two restarts")
    tree = problem.build_tree()
    driver, terminal, obstacles = problem.driver, problem.terminal, problem.obstacles
    routes: list[Process] = [solve_reflected(tree, driver, terminal, *obstacles).y]
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

    # non-uniformity shows at the slot announcing each jump, read per state
    _, (_, obstacle) = _on_lattice(tree, None, problem.barrier)
    slots = [level - 1 for level in obstacle.jump_levels]
    gaps_at_jumps = [sup_diff([rung.solution.y.states(k) for k in slots],
                              [reflected.y.states(k) for k in slots])
                     for rung in report.solutions]

    verdict = "irregular" if kd_mass > REGULAR_TOL else "regular"
    return RegularityProbeReport(levels=report.levels, kd_mass=kd_mass,
                                 y_gaps=report.sup_gaps, z_gaps=report.z_gaps,
                                 v_gaps=report.v_gaps,
                                 gaps_at_jumps=tuple(gaps_at_jumps), verdict=verdict)
