"""Solution-condition checker and structural probes.

Every clause of the reflected equations becomes a residual: the
projected dynamics identity, obstacle dominance, the minimality sums for
the continuous-type compensator mass, the left-limit jump formulas, and
compensator monotonicity.  All clauses come from one pass per level
over cache-sized parent blocks, in which each increment of K, K_c and
K_d is taken once from the cumulative processes stored in the solution;
the leaf clauses are taken in the blocks of the last level, so no clause
forms a whole-level temporary.  Node probabilities are taken per block
from the block's ancestors, so a check builds no level of
``tree.atom_prob``, and each block's and each side's arrays are freed
with it.
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
from dataclasses import dataclass

import numpy as np

from .bsde import Compensator, Solution, _driver_value
from .fixpoint import picard_solve, random_triple
from .penalty import solve_penalized, sweep
from .processes import BarrierValues, ProblemSpec, evaluate
from .reflected import _source_rates, obstacle_payoff, solve_bsde, solve_reflected_one
from .snell import BIND_TOL, REGULAR_TOL, _envelope
from .snell import snell  # noqa: F401  (kept importable from this module)
from .tree import (Process, ScenarioTree, _block_atom_prob, _block_children, _block_rows,
                   _children, _parent_blocks, _worst, sup_diff, terminal_mean)
from .twobarrier import _closure, _mean_mass, picard_snell_solve, solve_double_obstacle

CHECK_TOL = 1e-10
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
    above it, so that ``sign*(Y - obstacle)`` is the slack.
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


def _abs_max(values: np.ndarray) -> float:
    """max |values| from two reductions, without an |values| temporary."""
    return _worst(float(np.max(values)), -float(np.min(values)))


def _block_increments(tree: ScenarioTree, process: Process, level: int,
                      rows: slice) -> np.ndarray:
    """Increments from the ``rows`` nodes of ``level`` to their children.

    A next level stored at ``level`` or earlier gives one increment per
    parent, as a (parents, 1) column.  A whole next level gives the
    (parents, B) table, laid out parent-fastest (Fortran order), which
    numpy builds several times faster than the row-major broadcast and
    which fixes the summation order of the products taken from it.
    """
    parents = _block_rows(tree, process[level], level, rows)
    later = process[level + 1]
    if len(later) <= tree.level_size(level):
        return (_block_rows(tree, later, level, rows) - parents)[:, None]
    out = np.empty((len(parents), tree.branching), order="F")
    np.subtract(_children(tree, later, rows), parents[:, None], out=out)
    return out


def _table(tree: ScenarioTree, increments: np.ndarray) -> np.ndarray:
    """The Fortran-order (parents, B) table of ``_block_increments`` output.

    Products with ``branch_prob`` read a table, so their bits do not
    depend on how the increments were stored.
    """
    if increments.shape[1] == tree.branching:
        return increments
    out = np.empty((len(increments), tree.branching), order="F")
    out[...] = increments
    return out


def _split_residual(tree: ScenarioTree, comp: Compensator, k: int, rows: slice) -> float:
    """max |K - K_c - K_d| at level ``k + 1`` below one parent block.

    The split compares stored values: once per parent when no part of it
    is a whole next level.
    """
    parts = (comp.k[k + 1], comp.k_c[k + 1], comp.k_d[k + 1])
    read = _block_rows if max(map(len, parts)) <= tree.level_size(k) else _block_children
    split = np.subtract(read(tree, parts[0], k, rows), read(tree, parts[1], k, rows))
    split -= read(tree, parts[2], k, rows)
    return _abs_max(split)


def _check_levels(tree: ScenarioTree, sol, driver, xi: np.ndarray,
                  sides) -> tuple[float, float]:
    """Every clause residual in one pass per level over parent blocks.

    Each increment of K, K_c and K_d is taken once per block, as the
    children minus their parent, and feeds every clause that reads it;
    K_d's increment stays one per parent where it is stored at the parent
    level.  The leaf clauses (terminal value, containment at the horizon)
    are taken in the blocks of the last level, against the children they
    already read.  Fills the per-side residuals; returns the dynamics
    residual and, for two sides, the worst simultaneous jump-type mass.
    """
    y = [np.asarray(level, dtype=float) for level in sol.y]
    dyn = 0.0
    simultaneous = 0.0
    for side in sides:
        comp = side.compensator
        side.monotone = float(np.max(np.abs(comp.k[0])))
        side.split = float(np.max(np.abs(comp.k[0] - comp.k_c[0] - comp.k_d[0])))
    for k in range(tree.num_steps):
        z_level = np.asarray(sol.z[k], dtype=float)
        v_level = np.asarray(sol.v[k], dtype=float)
        for rows in _parent_blocks(tree, k):
            f_val = _driver_value(driver, tree, k, y[k][rows], z_level[rows], v_level[rows])
            block_dyn, block_simultaneous = _check_block(tree, y, f_val, xi, sides, k, rows)
            dyn = _worst(dyn, block_dyn)
            simultaneous = _worst(simultaneous, block_simultaneous)
    return dyn, simultaneous


def _check_block(tree: ScenarioTree, y: Process, f_val: np.ndarray, xi: np.ndarray,
                 sides, k: int, rows: slice) -> tuple[float, float]:
    """The clauses of one parent block of level ``k``: its dynamics and simultaneous residuals.

    The block's arrays, and each side's, are local to one call, so none
    outlives its block or side.
    """
    prob = tree.branch_prob
    y_par = y[k][rows]
    y_child = _children(tree, y[k + 1], rows)
    parent_prob = _block_atom_prob(tree, k, rows)
    dyn = 0.0
    if k == tree.num_steps - 1:
        dyn = float(np.max(np.abs(y_child - _children(tree, xi, rows))))
    increments = [_check_side(tree, side, k, rows, y_par, y_child, parent_prob)
                  for side in sides]
    # K+ - K- for two sides, K alone for one
    compensator = (increments[0][0] if len(sides) == 1
                   else increments[0][0] - increments[1][0])
    rhs = y_child @ prob + f_val * tree.dt + compensator @ prob
    dyn = _worst(dyn, float(np.max(np.abs(y_par - rhs))))
    simultaneous = 0.0
    if len(sides) == 2:
        simultaneous = float(np.max(np.minimum(increments[0][1], increments[1][1])))
    return dyn, simultaneous


def _check_side(tree: ScenarioTree, side: _Side, k: int, rows: slice, y_par: np.ndarray,
                y_child: np.ndarray, parent_prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One side's clauses on one parent block; returns its K and K_d increment tables."""
    n = tree.num_steps
    prob = tree.branch_prob
    comp = side.compensator
    side.split = _worst(side.split, _split_residual(tree, comp, k, rows))
    d_k = _table(tree, _block_increments(tree, comp.k, k, rows))
    d_kc = _table(tree, _block_increments(tree, comp.k_c, k, rows))
    d_kd = _block_increments(tree, comp.k_d, k, rows)
    slack = side.sign * (y_par - side.obstacle.values[k][rows])
    side.contain = _worst(side.contain, -float(np.min(slack)))
    if k == n - 1:
        leaf = _children(tree, side.obstacle.values[n], rows)
        side.contain = _worst(side.contain, float(np.max(side.sign * (leaf - y_child))))
    mass_c = np.multiply(d_kc, slack[:, None], out=d_kc)
    side.skorokhod = _worst(side.skorokhod, _abs_max(mass_c))
    # left-limit minimality integral, weighting each child by
    # P(parent) * branch probability: continuous-type mass pairs
    # with the slack at the assigning slot, jump-type mass (below)
    # with the left limit against the previous-slot solution
    side.left_integral += float(np.add.reduce(parent_prob * (mass_c @ prob)))
    side.monotone = _worst(side.monotone, -float(np.min(d_k)))
    left = side.obstacle.left.get(k + 1)
    if left is None:
        side.jump = _worst(side.jump, _abs_max(d_kd))
        return d_k, d_kd
    # in place, with the float operations of the whole-block formulas: the
    # gap takes the spent mass_c block, and one C-order block takes the
    # formula and then gap * d_kd
    left = _block_children(tree, left, k, rows)
    gap = np.subtract(y_par[:, None], left, out=mass_c)
    gap *= side.sign
    work = np.empty(gap.shape)
    binding = np.abs(gap, out=work) <= BIND_TOL
    formula = np.subtract(left, y_child, out=work)
    formula *= side.sign
    np.maximum(formula, 0.0, out=formula)
    np.copyto(formula, 0.0, where=~binding)
    side.jump = _worst(side.jump, _abs_max(np.subtract(d_kd, formula, out=work)))
    weighted = np.multiply(gap, d_kd, out=work) @ prob
    side.left_integral += float(np.add.reduce(parent_prob * weighted))
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
    """
    if n_restarts < 2:
        raise ValueError("need at least two restarts")
    tree = problem.build_tree()
    driver, terminal, obstacles = problem.driver, problem.terminal, problem.obstacles
    direct = (solve_bsde, solve_reflected_one, solve_double_obstacle)[len(obstacles)]
    routes: list[Process] = [direct(tree, driver, terminal, *obstacles).y]
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

    @property
    def zv_gaps_vanish(self) -> bool:
        return (self.z_gaps[-1] <= REGULAR_TOL) and (self.v_gaps[-1] <= REGULAR_TOL)


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
