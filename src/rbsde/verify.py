"""Solution-condition checker and structural probes.

Every clause of the reflected equations becomes a residual: the
projected dynamics identity, obstacle dominance, the minimality sums for
the continuous-type compensator mass, the left-limit jump formulas, and
compensator monotonicity.  All clauses come from one depth-first walk
of the node probabilities (``rbsde.tree._node_blocks``), each row built
once, over cache-sized parent slices, in which each increment of K, K_c
and K_d is taken once from the cumulative processes of the solution; the
leaf clauses are taken in the slices of the last parent level, so no
clause forms a whole-level temporary.  A solver stores no K_c
(``rbsde.bsde.ContinuousPart``): a slice's rows of it are the rows of K
minus those of K_d, so the checker builds no whole level of it, while
stored K_c levels (a loaded dump, a hand-built mutant) are read as they
are and the split clause tests them.  Nor does a direct solve store Z
or V (``rbsde.bsde.Projection``): where they are the projections of the
solution's own Y, a slice's rows of them are projected from the
children table it reads anyway, over the slices the sweep projected, so
they have the sweep's bits and no Z or V level is built; explicit Z and
V levels (a loaded dump, a copy, a mutant) are read as stored.  The
checker reads no ``tree.atom_prob`` level, and each slice's and each
side's arrays are freed with it.

The checker skips work only where the skipped operations have known
bits, so every report is the one the full passes give:

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
  array itself gives Y_N - ξ the same way.
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
residual of at most ``CHECK_TOL``, and the jump clauses apply the
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

from .bsde import Compensator, ContinuousPart, Projection, Solution, _driver_value
from .fixpoint import picard_solve, random_triple
from .penalty import solve_penalized, sweep
from .processes import BarrierValues, ProblemSpec, evaluate
from .reflected import _own, _solve, _source_rates, obstacle_payoff
from .snell import BIND_TOL, REGULAR_TOL, _envelope
from .snell import snell  # noqa: F401  (kept importable from this module)
from .tree import (Process, ScenarioTree, _block_rows, _children,
                   _node_blocks, _parent_rows, _prob_step, _ratio, _self_gap, _worst, sup_diff,
                   terminal_mean)
from .twobarrier import _closure, _mean_mass, picard_snell_solve

# The probe's direct route stores its Z and V (``_solve``); these solver names stay
# importable from this module for code that looks them up here (the benchmark's
# bench/tracing.py).
from .reflected import solve_bsde, solve_reflected_one  # noqa: F401
from .twobarrier import solve_double_obstacle  # noqa: F401

CHECK_TOL = 1e-10
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
    above it, so that ``sign*(Y - obstacle)`` is the slack.  ``k_c`` holds
    K_c's stored levels, or for the compensator's own ``ContinuousPart``
    its ``parts``: the (K, K_d) pair of a level, or None where K_d is +0.0
    at every node and K_c is K's own array.
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
    k_c: list = field(init=False)   # K_c's levels as ``_stored`` takes them, None for K's own

    def __post_init__(self) -> None:
        comp = self.compensator
        if comp is None:
            name = "lower" if self.sign > 0 else "upper"
            raise ValueError(f"the solution has no {name} compensator to check "
                             f"against the {name} obstacle")
        k_c = comp.k_c
        if isinstance(k_c, ContinuousPart) and k_c.k is comp.k and k_c.k_d is comp.k_d:
            k_c = [part if isinstance(part, tuple) else None
                   for part in map(k_c.parts, range(len(k_c)))]
        self.k_c = k_c


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


def _check_levels(tree: ScenarioTree, sol, driver, xi: np.ndarray,
                  sides) -> tuple[float, float]:
    """Every clause residual in one walk of the node probabilities to level N - 1.

    Each block of ``_node_blocks`` is cut into ``_parent_blocks`` slices,
    whose clauses ``_check_block`` takes.  The left-limit integral adds its
    terms level by level, as a pass per level would; the other residuals
    are NaN-keeping maxima, which the walk's order does not change.  Fills
    the per-side residuals; returns the dynamics residual and, for two
    sides, the worst simultaneous jump-type mass.
    """
    y = [np.asarray(level, dtype=float) for level in sol.y]
    zv = _slice_zv(tree, sol)
    dyn = 0.0
    simultaneous = 0.0
    for side in sides:
        comp = side.compensator
        side.monotone = float(np.max(np.abs(comp.k[0])))
        root_c = comp.k[0] if side.k_c[0] is None else _expand(
            *_stored(tree, side.k_c[0], 0, slice(0, 1)))
        side.split = float(np.max(np.abs(comp.k[0] - root_c - comp.k_d[0])))
        side.terms = [[] for _ in range(tree.num_steps)]
    width = _parent_rows(tree)
    for k, block, prob in _node_blocks(tree, tree.num_steps - 1, (np.ones(1),), _prob_step):
        for lo in range(0, len(prob), width):
            rows = slice(block.start + lo, min(block.start + lo + width, block.stop))
            block_dyn, block_simultaneous = _check_block(tree, y, zv, driver, xi, sides, k,
                                                         rows, prob[lo:lo + width])
            dyn = _worst(dyn, block_dyn)
            simultaneous = _worst(simultaneous, block_simultaneous)
    for side in sides:
        for term in itertools.chain.from_iterable(side.terms):
            side.left_integral += term
    return dyn, simultaneous


def _slice_zv(tree: ScenarioTree, sol):
    """``zv(k, rows, y_child)``: a slice's rows of Z_k and V_k, y_child its children's Y.

    Z and V that are the ``Projection``s of the solution's own Y are
    projected from y_child, the table the slice reads anyway: the slices
    are the ``_parent_blocks`` slices a read of a level projects, so the
    rows have its bits, and no Z or V level is formed.  Other Z and V
    levels (a loaded dump, a copy, a mutant) are read as stored.
    """
    z, v = sol.z, sol.v
    if all(isinstance(p, Projection) and p.y is sol.y and p.tree is tree for p in (z, v)):
        return lambda k, rows, y_child: (z.block(y_child), v.block(y_child))
    z, v = ([np.asarray(level, dtype=float) for level in levels] for levels in (z, v))
    return lambda k, rows, y_child: (z[k][rows], v[k][rows])


def _check_block(tree: ScenarioTree, y: Process, zv, driver, xi: np.ndarray,
                 sides, k: int, rows: slice,
                 parent_prob: np.ndarray) -> tuple[float, float]:
    """The clauses of one parent slice of level ``k``, of node probabilities ``parent_prob``.

    ``zv`` gives the slice's Z and V rows (``_slice_zv``).  Returns its
    dynamics and simultaneous residuals.  The slice's arrays, and each
    side's, are local to one call, so none outlives its slice.
    """
    prob = tree.branch_prob
    y_par = y[k][rows]
    y_child = _children(tree, y[k + 1], rows)
    f_val = _driver_value(driver, tree, k, y_par, *zv(k, rows, y_child))
    dyn = 0.0
    if k == tree.num_steps - 1:
        # a Y_N that is the terminal array itself (a solver's) gives Y_N - ξ = x - x
        dyn = (_self_gap(y_child) if y[k + 1] is xi
               else _abs_max(np.subtract(y_child, _children(tree, xi, rows))))
    increments = [_check_side(tree, side, k, rows, y_par, y_child, parent_prob)
                  for side in sides]
    rhs = y_child @ prob
    rhs += np.multiply(f_val, tree.dt, out=f_val)
    # K increments that are all ±0.0 weigh to +0.0 (BLAS adds each product
    # into a zeroed result), so no table and no product is formed
    if not all(zero for _, _, zero in increments):
        # K+ - K- for two sides, K alone for one
        compensator = (increments[0][0] if len(sides) == 1
                       else increments[0][0] - increments[1][0])
        # a 0-d increment here is NaN (K shared and not finite): NaN at each parent
        rhs += _table(tree, compensator) @ prob if compensator.ndim else compensator
    else:
        rhs += 0.0
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


def _integral_term(mass: np.ndarray, prob: np.ndarray, parent_prob: np.ndarray) -> float:
    """One slice's term of a left-limit integral: each child's ``mass`` weighted by
    P(parent) * branch probability, a BLAS product over the (parents, B) table."""
    return float(np.add.reduce(parent_prob * (mass @ prob)))


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


def _check_side(tree: ScenarioTree, side: _Side, k: int, rows: slice, y_par: np.ndarray,
                y_child: np.ndarray, parent_prob: np.ndarray) -> tuple:
    """One side's clauses on one parent slice.

    Returns its K and K_d increments, and whether every K increment is ±0.0.
    """
    n = tree.num_steps
    prob = tree.branch_prob
    split, low, high, d_k, d_kc, d_kd = _side_increments(tree, side, k, rows)
    side.split = _worst(side.split, split)
    side.monotone = _worst(side.monotone, -low)
    zero = low == 0.0 == high
    # the obstacle's blocks are fresh arrays (or its base alone): each
    # clause is formed in the block that reads the obstacle
    obstacle = side.obstacle.levels[k].rows(rows)
    slack = np.subtract(y_par, obstacle, out=_own(obstacle))
    if side.sign < 0:
        np.negative(slack, out=slack)
    slack_low, slack_high = float(slack.min()), float(slack.max())
    side.contain = _worst(side.contain, -slack_low)
    if k == n - 1:
        branching = tree.branching
        leaf = side.obstacle.levels[n].rows(slice(rows.start * branching,
                                                  rows.stop * branching))
        if isinstance(leaf, np.ndarray):
            leaf = leaf.reshape(-1, branching)
        # the largest sign*(leaf - Y_N) without forming it: max(x) for +1, -min(x) for -1
        excess = np.subtract(leaf, y_child, out=_own(leaf))
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
        side.terms[k].append(0.0 if skorokhod == 0.0 else
                             _integral_term(_table(tree, mass_c), prob, parent_prob))
        del mass_c
    left = side.obstacle.left_levels.get(k + 1)
    if left is None:
        side.jump = _worst(side.jump, _abs_max(d_kd))
        return d_k, d_kd, zero
    # The left limit and the gap to it are columns per parent, the left
    # limit in the spent slack block.  One row-major block takes the
    # formula and then gap * d_kd, which the product reads.  The formula is
    # +0.0 off the binding parents: +0.0 is the all-zero bit pattern, so
    # and-ing each row's bits with all ones or all zeros keeps or clears it
    # exactly, as a masked copy would.
    left = left.rows((rows, None), out=slack[:, None])
    gap = np.subtract(y_par[:, None], left)
    gap *= side.sign
    keep = np.negative(np.abs(gap) <= BIND_TOL, dtype=np.int64)
    formula = _by_branch(np.subtract, left, y_child, np.empty(y_child.shape))
    if side.sign < 0:
        np.negative(formula, out=formula)
    np.maximum(formula, 0.0, out=formula)
    _by_branch(np.bitwise_and, formula.view(np.int64), keep, formula.view(np.int64))
    side.jump = _worst(side.jump, _abs_max(_by_branch(np.subtract, d_kd, formula, formula)))
    side.terms[k].append(_integral_term(_by_branch(np.multiply, gap, d_kd, formula), prob,
                                        parent_prob))
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
    xi, low, up = evaluate(tree, terminal, lower, upper)
    sides = [_Side(low, sol.lower, +1)]
    if up is not None:
        sides.append(_Side(up, sol.upper, -1))
    dyn, simultaneous = _check_levels(tree, sol, driver, xi, sides)
    contain, skorokhod, jump, monotone_note, left_note = _CLAUSE_NAMES[len(sides)]

    def clause(residual: float, note: str) -> ClauseCheck:
        return ClauseCheck(residual <= CHECK_TOL, residual, note)

    clauses = {
        "dynamics": clause(dyn, "projected step identity and terminal"),
        contain[0]: clause(_worst(0.0, *(s.contain for s in sides)), contain[1]),
    }
    for (name, note), side in zip(skorokhod, sides):
        clauses[name] = clause(side.skorokhod, note)
    for (name, note), side in zip(jump, sides):
        clauses[name] = clause(side.jump, note)
    clauses["compensator_monotone"] = clause(
        _worst(*(s.monotone for s in sides), *(s.split for s in sides)), monotone_note)
    if upper is not None:
        clauses["no_simultaneous_jumps"] = clause(_worst(0.0, simultaneous),
                                                  "K+d and K-d never fire together")
    clauses["left_limit_skorokhod"] = clause(
        _worst(*(abs(s.left_integral) for s in sides)), left_note)
    return CheckReport(tolerance=CHECK_TOL, clauses=clauses)


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
