"""Shared corpus generators and fault-injection helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from rbsde import (BarrierSpec, DriverSpec, MarkSet, ProblemSpec, TerminalSpec,
                   build_tree, solve_reflected)
from rbsde.processes import linear_obstacle, linear_payoff
from rbsde.tree import copy_process, expand


def distinct_states(w, counts) -> int:
    """The number of distinct node states ``(w, counts)`` of a level, ``w`` keyed by its bits.

    Counted from the level's own rows, sorted, not from the evaluation's
    state tables: the number of rows the evaluation calls a function on.
    """
    keys = np.column_stack((w.view(np.int64), counts.astype(np.int64)))
    keys = keys[np.lexsort(keys.T[::-1])]
    return 1 + int(np.count_nonzero(np.any(keys[1:] != keys[:-1], axis=1)))


def on_nodes(tree, values, level: int) -> np.ndarray:
    """Values per distinct state of ``level`` (the tree's kept state table) at each node.

    Each node's state is looked up by the bits of its ``w`` and its counts
    (``oracles.state_rows``), not by the solver's walk of state codes.
    """
    from oracles import state_rows
    return np.asarray(values)[state_rows(tree, level)]


# ---------------------------------------------------------------------------
# problems of data with states, for the lattice route


def _signed(lo, hi):
    return st.builds(lambda x, s: x * s, st.floats(lo, hi), st.sampled_from((-1.0, 1.0)))


def _coefficient():
    return st.one_of(st.just(0.0), _signed(0.05, 0.3))


def _side(draw, steps, scale, center, stochastic, sign):
    """An obstacle ``sign`` * a step function from ``center``, its form, or its value alone.

    Breakpoints may fall on the horizon, which declares a jump at level N,
    and the jumps may be declared outright instead, with their own offsets.
    A step of the wrong sign puts the side across the terminal or the
    other side somewhere.
    """
    cuts = sorted({0.0} | {draw(st.integers(1, steps)) / steps
                           for _ in range(draw(st.integers(0, 2)))})
    crossed = draw(st.sampled_from((None, None, *range(len(cuts)))))
    pieces = tuple((t, center.intercept * (not stochastic)
                    + sign * scale * draw(st.floats(-0.3, -0.05) if i == crossed
                                          else st.floats(0.05, 0.6)))
                   for i, t in enumerate(cuts))
    jumps = None
    if draw(st.booleans()):
        times = {draw(st.integers(1, steps)) / steps for _ in range(draw(st.integers(0, 2)))}
        jumps = tuple((t, scale * draw(st.floats(-0.3, 0.3))) for t in sorted(times))
    return BarrierSpec(pieces=pieces, stochastic=center if stochastic else None, jumps=jumps)


@st.composite
def state_problems(draw):
    """(tree, driver, terminal, obstacles) of data with states: zero, one or two sides.

    The sides lie around E[xi | F], stochastic or steps, and may cross the
    terminal or each other.  The data are scaled by 2^k up to near the
    largest float, so that some solves leave the float range.
    """
    m = draw(st.sampled_from((1, 0, 2)))
    steps = draw(st.integers(1, 6 - m // 2))   # 7,776 leaves at most
    marks = MarkSet(sizes=tuple(float(i + 1) for i in range(m)),
                    intensities=tuple(draw(st.floats(0.1, 0.45)) for _ in range(m)))
    # at 2^1023 the data are near the largest float, and sums of them leave it
    scale = 2.0 ** draw(st.sampled_from((0, 1023, 3, 1023, -4, 1021, 8)))
    # |a| + |b| + |c| sqrt(sum lam) < 1 at dt = 1 keeps every grid solvable
    driver = DriverSpec(base=scale * draw(_signed(0.5, 1.9)), a=draw(_coefficient()),
                        b=draw(_coefficient()), c=draw(_coefficient()))
    alpha, beta = draw(_signed(0.2, 0.5)), draw(_signed(0.3, 0.6))
    gammas = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(m))
    if draw(st.booleans()):
        # E[xi | F_t] of this payoff is the compensated form
        shift = float(np.sum(np.asarray(gammas) * marks.intensity_array))
        terminal = TerminalSpec(payoff=linear_payoff(scale * (alpha - shift), scale * beta,
                                                     tuple(scale * g for g in gammas)))
        center = linear_obstacle(scale * alpha, scale * beta,
                                 tuple(scale * g for g in gammas), compensate=marks)
        stochastic = True
    else:
        terminal = TerminalSpec(constant=scale * alpha)
        center = linear_obstacle(scale * alpha)
        stochastic = draw(st.booleans())
    sides = draw(st.sampled_from((1, 2, 0)))
    obstacles = tuple(_side(draw, steps, scale, center, stochastic, sign)
                      for sign in (-1.0, 1.0)[:sides])
    return build_tree(steps, marks), driver, terminal, obstacles


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


def random_two_barrier(rng, max_steps: int = 5, max_marks: int = 1,
                       both_sides: bool = False) -> ProblemSpec:
    """Two-obstacle problem whose band brackets a terminal martingale.

    The band is E[xi | F] offset by piecewise-constant margins of
    0.15 to 0.45 a side, so the built-in martingale witness certifies it
    and the (strong) deterministic source drives the solution onto the
    obstacles.  ``both_sides`` makes it meet both: the source of the last
    two steps pushes down, then up, each step by 1 to 1.5, more than the
    widest band, so Y = L at every node of level N - 2 and Y = U at
    every node of level N - 1.
    """
    num_steps = int(rng.integers(2, max_steps + 1))
    marks = random_marks(rng, max_marks)
    driver = random_step_driver(rng, num_steps, marks, scale=2.5)
    if both_sides:
        early = driver.base
        down, up = (float(x) * num_steps for x in rng.uniform(1.0, 1.5, 2))
        tail = step_function([(0.0, -down), ((num_steps - 1) / num_steps, up)])
        cut = (num_steps - 2) / num_steps
        driver = DriverSpec(base=lambda t: early(t) if t < cut - 1e-12 else tail(t),
                            marks=marks)

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


def node_levels(tree, sol):
    """A direct solve's solution with each level read once, which the checker reads on the nodes.

    Y, K and K_d are read whole, each once, a level without mass being
    its predecessor's array as the node solve stores it, and Z and V stay
    the ``Projection``s of that Y.  So the node checker takes every
    shortcut it takes on a node solve; ``clone_solution`` expands every
    level and stores Z and V, which leaves those shortcuts out.  The
    levels are the caller's own writeable copies, shared alike.
    """
    from rbsde import Compensator, Solution
    from rbsde.bsde import Projection

    def own(process):
        copies = {}   # each read-only level copied once, so shared levels stay shared
        return [copies.setdefault(id(level), np.array(level)) for level in process]

    def listed(side):
        return None if side is None else Compensator(k=own(side.k), k_d=own(side.k_d))

    y = own(sol.y)
    return Solution(y=y, z=Projection(tree, y, sol.z.kernel), v=Projection(tree, y, sol.v.kernel),
                    lower=listed(sol.lower), upper=listed(sol.upper))


def _reproject(tree, sol):
    """Store in ``sol`` the Z and V of its own Y, as a solve would after an edit of Y.

    A mutant that edits Y and keeps the Z and V of the solve fails the
    representation clause too; this keeps a mutant's Z and V the
    projections of the Y it has.
    """
    from rbsde.bsde import Projection, _project_v, _project_z
    sol.z, sol.v = (copy_process(Projection(tree, sol.y, kernel))
                    for kernel in (_project_z, _project_v))


def _root_push_pieces(delta: float, upper: bool = False):
    """A problem whose solution is pushed up by ``delta`` at the root and nowhere else.

    The obstacle is 0.5 + delta at t = 0 and 0.5 from t = 1/4 on, with no
    declared jump, and the terminal is 0.5: Y = 0.5 below the root, and K
    books ``delta`` of continuous-type mass at the root, where Y touches
    the obstacle.  ``upper`` adds an upper obstacle far above.
    """
    tree = build_tree(4)
    def stochastic(t, w, counts):
        return 0.0 * w + delta * max(0.0, 1.0 - 4.0 * t)

    barrier = BarrierSpec(pieces=((0.0, 0.5),), stochastic=stochastic)
    sides = (barrier, BarrierSpec(pieces=((0.0, 10.0),))) if upper else (barrier,)
    return (tree, DriverSpec(), TerminalSpec(constant=0.5)) + sides


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
    _reproject(tree, sol)
    entries.append(("dynamics", tree, driver, terminal, barrier, sol))

    # barrier dominance: take the root's push off both Y and K, which puts
    # Y_0 below the obstacle with the dynamics kept
    tree, driver, terminal, barrier = _root_push_pieces(1e-6)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, barrier))
    _drop_the_root_push(tree, sol, 1e-6)
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
    _reproject(tree, sol)
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
    _lift_before_the_jump(tree, sol, sol.lower, 5e-10)
    entries.append(("left_limit_skorokhod", tree, driver, terminal, barrier, sol))

    return entries


def _drop_the_root_push(tree, sol, delta):
    """Take the root's push of ``delta`` (``_root_push_pieces``) off Y_0 and the lower K."""
    sol.y[0][0] -= delta
    for lvl in range(1, tree.num_steps + 1):
        sol.lower.k[lvl] -= delta
        sol.lower.k_c[lvl] -= delta


def _lift_before_the_jump(tree, sol, side, eps):
    """Lift Y at levels 0 and 1 by ``eps``, booked as continuous-type mass at level 1.

    On the closed-form problem Y sits on the obstacle at levels 0 and 1
    and K_d books the drop at t = 1/2: the lift keeps the dynamics (E[Y_1]
    rises with Y_0, K's level-1 increment with Y_1), puts Y_1 ``eps`` above
    the left limit, and adds mass ``eps`` times a slack of ``eps``.  Z and V
    are projected again from the lifted Y.
    """
    for lvl in (0, 1):
        sol.y[lvl] += eps
    for lvl in range(2, tree.num_steps + 1):
        side.k[lvl] += eps
        side.k_c[lvl] += eps
    _reproject(tree, sol)


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
    _reproject(tree, sol)
    entries.append(("dynamics", tree, driver, terminal, lower, upper, sol))

    # containment: take the root's push off both Y and K+
    tree, driver, terminal, lower, upper = _root_push_pieces(1e-6, upper=True)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    _drop_the_root_push(tree, sol, 1e-6)
    entries.append(("containment", tree, driver, terminal, lower, upper, sol))

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
    _reproject(tree, sol)
    entries.append(("skorokhod_lower_c", tree, driver, terminal, lower, upper, sol))

    # continuous-type Skorokhod, upper side (solution cascades down)
    sol = clone_solution(tree, solve_reflected(tree, driver, terminal, lower, upper))
    delta = 1e-9 / float(10.0 - sol.y[5][0])
    for lvl in range(6, tree.num_steps + 1):
        span = tree.branching ** (lvl - 5)
        sol.upper.k[lvl][:span] += delta
        sol.upper.k_c[lvl][:span] += delta
    _cascade_bump(tree, sol, 5, 0, -delta)
    _reproject(tree, sol)
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
    _lift_before_the_jump(tree, sol, sol.lower, 5e-10)
    entries.append(("left_limit_skorokhod", tree, driver, terminal, lower, upper, sol))

    return entries


def representation_mutants():
    """Mutants of Z or V alone, each failing exactly the representation clause.

    Each entry is (name, tree, driver, terminal, obstacles, mutant).  The
    driver reads neither Z nor V (b = c = 0), so no other clause sees the
    edit.  The problem has two marks of unlike sizes and intensities, so
    V's two columns differ, and the terminal is not linear in w, so Z
    moves from level to level.
    """
    marks = MarkSet(sizes=(1.0, -0.5), intensities=(0.4, 0.2))
    tree = build_tree(4, marks)
    driver = DriverSpec(base=0.3, marks=marks)
    terminal = TerminalSpec(payoff=lambda w, counts: np.abs(w) + counts @ np.array([0.3, -0.4]))
    barrier = BarrierSpec(pieces=((0.0, 0.6), (0.5, -2.0)))
    upper = BarrierSpec(pieces=((0.0, 5.0),))
    edits = {
        "z scaled": lambda sol: [level * 3.0 for level in sol.z],
        "v columns swapped": lambda sol: [level[:, ::-1].copy() for level in sol.v],
        # each node reads its parent's Z: Z one level late
        "z one level late": lambda sol: [sol.z[0]] + [expand(tree, sol.z[k - 1], k)
                                                      for k in range(1, tree.num_steps)],
        "v sign flipped": lambda sol: [-level for level in sol.v],
    }
    entries = []
    for obstacles in ((barrier,), (barrier, upper)):
        for name, edit in edits.items():
            sol = clone_solution(tree, solve_reflected(tree, driver, terminal, *obstacles))
            if name.startswith("z"):
                sol.z = edit(sol)
            else:
                sol.v = edit(sol)
            entries.append((name, tree, driver, terminal, obstacles, sol))
    return entries
