"""Shared corpus generators and fault-injection helpers."""

from __future__ import annotations

import numpy as np

from rbsde import (BarrierSpec, DriverSpec, MarkSet, ProblemSpec, TerminalSpec,
                   build_tree, solve_reflected)
from rbsde.processes import linear_obstacle, linear_payoff
from rbsde.tree import copy_process, expand


def step_function(pairs):
    """Right-continuous step function from (time, value) pairs."""
    times = [t for t, _ in pairs]
    values = [v for _, v in pairs]

    def g(t: float) -> float:
        idx = 0
        for j, start in enumerate(times):
            if start <= t + 1e-12:
                idx = j
        return values[idx]

    return g


def random_marks(rng, max_marks: int) -> MarkSet:
    m = int(rng.integers(0, max_marks + 1))
    if m == 0:
        return MarkSet()
    sizes = tuple(float(s) for s in np.sort(rng.uniform(0.5, 2.0, m)) + 0.01 * np.arange(m))
    intensities = tuple(float(x) for x in rng.uniform(0.2, 0.8, m))
    return MarkSet(sizes=sizes, intensities=intensities)


def random_step_driver(rng, num_steps: int, marks: MarkSet, scale: float = 0.6) -> DriverSpec:
    n_pieces = int(rng.integers(1, 4))
    cuts = sorted({0.0} | {float(rng.integers(1, num_steps)) / num_steps
                           for _ in range(n_pieces - 1)})
    pairs = [(t, float(rng.uniform(-scale, scale))) for t in cuts]
    return DriverSpec(base=step_function(pairs), marks=marks)


def random_one_barrier(rng, max_steps: int = 6, max_marks: int = 1) -> ProblemSpec:
    """Coefficient-free one-obstacle problem with a frequently binding obstacle."""
    num_steps = int(rng.integers(2, max_steps + 1))
    marks = random_marks(rng, max_marks)
    driver = random_step_driver(rng, num_steps, marks)

    n_pieces = int(rng.integers(1, 4))
    cuts = sorted({0.0} | {float(rng.integers(1, num_steps)) / num_steps
                           for _ in range(n_pieces - 1)})
    # bias the early pieces high so the obstacle actually binds
    values = [float(rng.uniform(0.2, 1.2))]
    values += [float(rng.uniform(-1.2, 0.6)) for _ in cuts[1:]]
    pieces = tuple(zip(cuts, values))
    w_coeff = float(rng.uniform(-0.4, 0.4))
    count_coeffs = tuple(float(x) for x in rng.uniform(-0.4, 0.4, marks.count))
    stochastic = linear_obstacle(0.0, w_coeff, count_coeffs) \
        if (w_coeff or count_coeffs) else None
    barrier = BarrierSpec(pieces=pieces, stochastic=stochastic)

    bump0 = float(rng.uniform(0.0, 0.4))
    bump1 = float(rng.uniform(-0.3, 0.3))

    def payoff(w, counts):
        det = barrier.deterministic_at(1.0)
        sto = 0.0 if stochastic is None else stochastic(1.0, w, counts)
        return det + sto + bump0 + np.maximum(bump1 * w, 0.0)

    return ProblemSpec(num_steps=num_steps, marks=marks, driver=driver,
                       terminal=TerminalSpec(payoff=payoff), barrier=barrier)


def random_offsets(rng, num_steps: int, lo: float, hi: float):
    n_pieces = int(rng.integers(1, 4))
    cuts = sorted({0.0} | {float(rng.integers(1, num_steps)) / num_steps
                           for _ in range(n_pieces - 1)})
    return tuple((t, float(rng.uniform(lo, hi))) for t in cuts)


def random_two_barrier(rng, max_steps: int = 5, max_marks: int = 1) -> ProblemSpec:
    """Two-obstacle problem whose band brackets a terminal martingale.

    The band is E[xi | F] offset by piecewise-constant margins of at
    least 0.15 a side, so the built-in martingale witness certifies it
    and the (strong) deterministic source drives the solution onto both
    obstacles.
    """
    num_steps = int(rng.integers(2, max_steps + 1))
    marks = random_marks(rng, max_marks)
    driver = random_step_driver(rng, num_steps, marks, scale=2.5)

    alpha = float(rng.uniform(-0.5, 0.5))
    beta = float(rng.uniform(-0.6, 0.6))
    gammas = tuple(float(x) for x in rng.uniform(-0.5, 0.5, marks.count))
    lam = marks.intensity_array
    terminal = TerminalSpec(payoff=linear_payoff(
        alpha - float(np.sum(np.asarray(gammas) * lam)), beta, gammas))
    mean_fn = linear_obstacle(alpha, beta, gammas, compensate=marks)

    lower = BarrierSpec(pieces=tuple((t, -v) for t, v in
                                     random_offsets(rng, num_steps, 0.15, 0.45)),
                        stochastic=mean_fn)
    upper = BarrierSpec(pieces=random_offsets(rng, num_steps, 0.15, 0.45),
                        stochastic=mean_fn)
    return ProblemSpec(num_steps=num_steps, marks=marks, driver=driver,
                       terminal=terminal, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# hand-built problems for the fault-injection suite


def counterexample_pieces(tree_steps: int = 4, b_coeff: float = 0.0):
    """One-obstacle problem with the known closed-form solution."""
    tree = build_tree(tree_steps)
    driver = DriverSpec(b=b_coeff)
    terminal = TerminalSpec(constant=0.5)
    barrier = BarrierSpec(pieces=((0.0, 1.0), (0.5, 0.0)))
    return tree, driver, terminal, barrier


def binding_pieces(tree_steps: int = 4, b_coeff: float = 0.5):
    """Problem whose solution sits on the obstacle at every node.

    With xi = w_1 and driver b*z the solution is Y = w + b*(1 - t),
    Z = 1, K = 0; the obstacle is chosen equal to it.
    """
    tree = build_tree(tree_steps)
    driver = DriverSpec(b=b_coeff)
    terminal = TerminalSpec(payoff=lambda w, counts: w)
    barrier = BarrierSpec(stochastic=lambda t, w, counts: w + b_coeff * (1.0 - t))
    return tree, driver, terminal, barrier


def _whole(tree, process):
    """Own copies of every level, expanded to whole levels for in-place edits."""
    return [np.array(expand(tree, np.asarray(level, dtype=float), k))
            for k, level in enumerate(process)]


def clone_solution(tree, sol):
    """Whole-level copy of a solution, safe for the mutants to edit.

    The solvers store compensators by the level rule of ``rbsde.tree``, where
    an edit to one stored value would reach every node sharing it; the copy
    expands each level first, so an edit moves exactly the nodes it names.
    """
    from rbsde import Compensator, Solution

    def whole_side(side):
        return None if side is None else Compensator(
            k=_whole(tree, side.k), k_c=_whole(tree, side.k_c), k_d=_whole(tree, side.k_d))

    return Solution(y=_whole(tree, sol.y), z=copy_process(sol.z), v=copy_process(sol.v),
                    lower=whole_side(sol.lower), upper=whole_side(sol.upper))


def process_of(sol, name):
    """A solution process by its output name: y, z, v, k, k_c, k_plus, k_minus_d, ..."""
    if name in ("y", "z", "v"):
        return getattr(sol, name)
    side = sol.upper if name.startswith("k_minus") else sol.lower
    return getattr(side, {"c": "k_c", "d": "k_d"}.get(name.rsplit("_", 1)[-1], "k"))


def one_barrier_mutants():
    """Mutant builders, one per clause of the one-obstacle checker.

    Each entry is (clause_name, tree, driver, terminal, barrier, mutant):
    the mutant fails exactly its clause and no other.
    """
    entries = []

    # dynamics: bump Y at a node with slack and no compensator nearby
    tree, driver, terminal, barrier = counterexample_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    sol.y[3][0] += 1e-6
    entries.append(("dynamics", tree, driver, terminal, barrier, sol))

    # barrier dominance: dip the root below an everywhere-binding obstacle,
    # compensating the dynamics through the z-coefficient of the driver
    tree, driver, terminal, barrier = binding_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    sol.y[0][0] -= 1e-6
    sol.z[0][0] -= 1e-6 / (driver.b * tree.dt)
    entries.append(("barrier_dominance", tree, driver, terminal, barrier, sol))

    # continuous-type Skorokhod: inject c-mass deep in the tree where the
    # obstacle is slack, repairing the dynamics along the ancestor chain;
    # the injection is sized so the probability-weighted left-limit
    # integral stays below tolerance while the per-node product does not
    tree = build_tree(6)
    driver = DriverSpec()
    terminal = TerminalSpec(payoff=lambda w, counts: w)
    barrier = BarrierSpec(pieces=((0.0, -10.0),))
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    level, node = 5, 0
    slack = float(sol.y[level][node] + 10.0)
    delta = 1e-9 / slack
    for lvl in range(level + 1, tree.num_steps + 1):
        lo = node * tree.branching ** (lvl - level)
        hi = (node + 1) * tree.branching ** (lvl - level)
        sol.lower.k[lvl][lo:hi] += delta
        sol.lower.k_c[lvl][lo:hi] += delta
    bump = delta
    for lvl in range(level, -1, -1):
        idx = node // tree.branching ** (level - lvl)
        sol.y[lvl][idx] += bump
        bump *= float(tree.branch_prob[idx % tree.branching]) if lvl else 1.0
    entries.append(("skorokhod_c", tree, driver, terminal, barrier, sol))

    # jump formula: move mass between the c and d parts at the declared jump
    tree, driver, terminal, barrier = counterexample_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    for lvl in range(2, tree.num_steps + 1):
        sol.lower.k_d[lvl] -= 0.2
        sol.lower.k_c[lvl] += 0.2
    entries.append(("jump_formula_d", tree, driver, terminal, barrier, sol))

    # compensator start: shift the whole compensator away from zero
    tree, driver, terminal, barrier = counterexample_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    for lvl in range(tree.num_steps + 1):
        sol.lower.k[lvl] += 0.1
        sol.lower.k_c[lvl] += 0.1
    entries.append(("compensator_monotone", tree, driver, terminal, barrier, sol))

    # left-limit integral: sit the pre-jump solution a whisker above the
    # left limit (inside the binding tolerance, outside the integral's)
    tree, driver, terminal, barrier = counterexample_pieces(b_coeff=0.5)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    eps = 5e-10
    sol.y[1] += eps
    sol.z[1] += eps / (driver.b * tree.dt)
    sol.z[0] -= eps / (driver.b * tree.dt)
    entries.append(("left_limit_skorokhod", tree, driver, terminal, barrier, sol))

    return entries


def _cascade_bump(tree, sol, level, node, delta):
    bump = delta
    for lvl in range(level, -1, -1):
        idx = node // tree.branching ** (level - lvl)
        sol.y[lvl][idx] += bump
        bump *= float(tree.branch_prob[idx % tree.branching]) if lvl else 1.0


def _transplant_pieces(tree_steps: int = 4, b_coeff: float = 0.0, mirrored: bool = False):
    """Two-obstacle transplant of the closed-form problem (one side active)."""
    tree = build_tree(tree_steps)
    driver = DriverSpec(b=b_coeff)
    if mirrored:
        terminal = TerminalSpec(constant=-0.5)
        lower = BarrierSpec(pieces=((0.0, -10.0),))
        upper = BarrierSpec(pieces=((0.0, -1.0), (0.5, 10.0)))
    else:
        terminal = TerminalSpec(constant=0.5)
        lower = BarrierSpec(pieces=((0.0, 1.0), (0.5, -10.0)))
        upper = BarrierSpec(pieces=((0.0, 10.0),))
    return tree, driver, terminal, lower, upper


def two_barrier_mutants():
    """Isolated mutant builders for the two-obstacle checker clauses."""
    entries = []

    # dynamics
    tree, driver, terminal, lower, upper = _transplant_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    sol.y[3][0] += 1e-6
    entries.append(("dynamics", tree, driver, terminal, lower, upper, sol))

    # containment: everywhere-binding lower obstacle, dip the root below it
    tree, driver, terminal, barrier = binding_pieces()
    upper = BarrierSpec(stochastic=lambda t, w, counts: w + 0.5 * (1.0 - t) + 1.0)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier, upper))
    sol.y[0][0] -= 1e-6
    sol.z[0][0] -= 1e-6 / (driver.b * tree.dt)
    entries.append(("containment", tree, driver, terminal, barrier, upper, sol))

    # continuous-type Skorokhod, lower side
    tree = build_tree(6)
    driver = DriverSpec()
    terminal = TerminalSpec(payoff=lambda w, counts: w)
    lower = BarrierSpec(pieces=((0.0, -10.0),))
    upper = BarrierSpec(pieces=((0.0, 10.0),))
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    delta = 1e-9 / float(sol.y[5][0] + 10.0)
    for lvl in range(6, tree.num_steps + 1):
        span = tree.branching ** (lvl - 5)
        sol.lower.k[lvl][:span] += delta
        sol.lower.k_c[lvl][:span] += delta
    _cascade_bump(tree, sol, 5, 0, delta)
    entries.append(("skorokhod_lower_c", tree, driver, terminal, lower, upper, sol))

    # continuous-type Skorokhod, upper side (solution cascades down)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    delta = 1e-9 / float(10.0 - sol.y[5][0])
    for lvl in range(6, tree.num_steps + 1):
        span = tree.branching ** (lvl - 5)
        sol.upper.k[lvl][:span] += delta
        sol.upper.k_c[lvl][:span] += delta
    _cascade_bump(tree, sol, 5, 0, -delta)
    entries.append(("skorokhod_upper_c", tree, driver, terminal, lower, upper, sol))

    # declared-jump formulas, each side on its own transplant
    tree, driver, terminal, lower, upper = _transplant_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    for lvl in range(2, tree.num_steps + 1):
        sol.lower.k_d[lvl] -= 0.2
        sol.lower.k_c[lvl] += 0.2
    entries.append(("jump_formula_lower", tree, driver, terminal, lower, upper, sol))

    tree, driver, terminal, lower, upper = _transplant_pieces(mirrored=True)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    for lvl in range(2, tree.num_steps + 1):
        sol.upper.k_d[lvl] -= 0.2
        sol.upper.k_c[lvl] += 0.2
    entries.append(("jump_formula_upper", tree, driver, terminal, lower, upper, sol))

    # compensator start
    tree, driver, terminal, lower, upper = _transplant_pieces()
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    for lvl in range(tree.num_steps + 1):
        sol.lower.k[lvl] += 0.1
        sol.lower.k_c[lvl] += 0.1
    entries.append(("compensator_monotone", tree, driver, terminal, lower, upper, sol))

    # left-limit integral, binding-tolerance whisker
    tree, driver, terminal, lower, upper = _transplant_pieces(b_coeff=0.5)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    eps = 5e-10
    sol.y[1] += eps
    sol.z[1] += eps / (driver.b * tree.dt)
    sol.z[0] -= eps / (driver.b * tree.dt)
    entries.append(("left_limit_skorokhod", tree, driver, terminal, lower, upper, sol))

    return entries
