"""Oracles and helpers that only the tests read, cross-checking the solvers on small trees.

Tests import them as they import ``conftest``: ``from oracles import ...``.
The stopping oracles walk the tree node by node or enumerate every
stopping rule, so they refuse trees past ``MAX_ORACLE_DEPTH`` and
``MAX_ORACLE_LEAVES``.  ``saddle_replies`` values the Dynkin game behind
the two-obstacle solution, and ``per_state_check`` takes each clause of
the check on the nodes from a direct solve's booked increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from rbsde.errors import RbsdeError
from rbsde.fixpoint import _weighted_norm
from rbsde.processes import BarrierValues, ObstacleLevel, evaluate
from rbsde.reflected import _source_rates
from rbsde.snell import MONOTONE_TOL, SnellResult, _envelope, stop_flags
from rbsde.tree import Process, ScenarioTree, _max_excess, _worst, expand
from rbsde.twobarrier import MokobodskiWitness

MAX_ORACLE_DEPTH = 6
MAX_ORACLE_LEAVES = 4096
MAX_ENUM_RULES = 1 << 16


class TooLargeToEnumerate(RbsdeError):
    """Subtree too deep or too wide for the stopping-time oracle."""


class NotMonotone(RbsdeError):
    """Inputs expected to be pointwise nondecreasing are not."""


def _check_oracle_size(tree: ScenarioTree, level: int) -> None:
    depth = tree.num_steps - level
    if depth > MAX_ORACLE_DEPTH or tree.branching ** depth > MAX_ORACLE_LEAVES:
        raise TooLargeToEnumerate(
            f"subtree of depth {depth} with branching {tree.branching} "
            "is too large for the stopping oracle")


def brute_force_values(tree: ScenarioTree, payoff: Process) -> Process:
    """Stop-vs-continue oracle value at every node, in one traversal."""
    _check_oracle_size(tree, 0)
    probs = [float(p) for p in tree.branch_prob]
    branching = tree.branching
    pay = [np.asarray(p, dtype=float) for p in payoff]
    last = tree.num_steps
    out = [np.zeros(tree.level_size(k)) for k in range(last + 1)]

    def best(k: int, idx: int) -> float:
        here = float(pay[k][idx])
        if k == last:
            out[k][idx] = here
            return here
        cont = 0.0
        base = idx * branching
        for b in range(branching):
            cont += probs[b] * best(k + 1, base + b)
        value = here if here >= cont else cont
        out[k][idx] = value
        return value

    best(0, 0)
    return out


def enumerate_stopping_values(tree: ScenarioTree, payoff: Process,
                              level: int = 0, node: int = 0) -> np.ndarray:
    """Values E[payoff at tau | node] of every stopping rule of the subtree.

    True exhaustive enumeration (one stop/continue bit per interior node),
    so it only runs on tiny subtrees.  The maximum of the returned array
    is the optimal stopping value; every entry is dominated by it.
    """
    _check_oracle_size(tree, level)
    branching = tree.branching
    last = tree.num_steps
    interior = []
    frontier = [(level, node)]
    while frontier:
        k, idx = frontier.pop()
        if k == last:
            continue
        interior.append((k, idx))
        frontier.extend((k + 1, idx * branching + b) for b in range(branching))
    if 2 ** len(interior) > MAX_ENUM_RULES:
        raise TooLargeToEnumerate(
            f"{len(interior)} interior nodes give too many stopping rules")

    probs = [float(p) for p in tree.branch_prob]
    pay = [np.asarray(p, dtype=float) for p in payoff]
    values = []
    for bits in product((True, False), repeat=len(interior)):
        rule = dict(zip(interior, bits))

        def value(k: int, idx: int) -> float:
            if k == last or rule[(k, idx)]:
                return float(pay[k][idx])
            base = idx * branching
            return sum(probs[b] * value(k + 1, base + b) for b in range(branching))

        values.append(value(level, node))
    return np.asarray(values)


def stopped_envelope_residual(tree: ScenarioTree, result: SnellResult) -> float:
    """Martingale defect of the envelope stopped at the optimal time (NaN kept)."""
    n = tree.num_steps
    flags = stop_flags(tree, result)
    frozen = result.envelope[0].copy()
    flag = flags[0].copy()
    worst = 0.0
    for k in range(n):
        nxt_env = result.envelope[k + 1]
        flag = expand(tree, flag, k + 1)
        frozen_next = np.where(flag, expand(tree, frozen, k + 1), nxt_env)
        worst = _worst(worst, float(np.max(np.abs(tree.cond_exp(frozen_next) - frozen))))
        flag = flag | flags[k + 1]
        frozen = frozen_next
    return worst


@dataclass(eq=False)
class MonotoneLimitReport:
    envelope_violation: float
    final_dominates: float
    passed: bool


def monotone_limit_check(tree: ScenarioTree, payoffs: list[Process]) -> MonotoneLimitReport:
    """Envelopes of a nondecreasing payoff ladder must be nondecreasing."""
    if len(payoffs) < 2:
        raise ValueError("need at least two payoffs")
    if any(_max_excess(lo, hi) > MONOTONE_TOL for lo, hi in zip(payoffs, payoffs[1:])):
        raise NotMonotone("payoff ladder is not pointwise nondecreasing")
    envelopes = [_envelope(tree, p)[0] for p in payoffs]
    # NaN is kept: a NaN payoff is reported as a NaN violation, not raised above
    violation = _worst(0.0, *(_max_excess(lo, hi) for lo, hi in zip(envelopes, envelopes[1:])))
    final_gap = _worst(0.0, *(_max_excess(env, envelopes[-1]) for env in envelopes[:-1]))
    passed = violation <= MONOTONE_TOL and final_gap <= MONOTONE_TOL
    return MonotoneLimitReport(envelope_violation=violation,
                               final_dominates=final_gap, passed=passed)


def alpha_norm(tree: ScenarioTree, triple, alpha: float) -> float:
    """Exponentially weighted norm of an (Y, Z, V) triple.

    Discrete form: sqrt(sum_{k<N} e^{alpha t_k} E[Y_k^2 + Z_k^2 +
    sum_i lam_i V_{k,i}^2] dt), left-endpoint weights on the grid: the
    kernel of the Picard distance, applied to the triple itself.
    """
    levels = (tuple(np.array(part, dtype=float) for part in level) for level in zip(*triple))
    return _weighted_norm(tree, levels, alpha)


def constant_witness(tree: ScenarioTree, plus: float, minus: float = 0.0) -> MokobodskiWitness:
    """The witness pair (plus, minus), constant over the tree."""
    if plus < 0 or minus < 0:
        raise ValueError("witness constants must be nonnegative")
    return MokobodskiWitness(h=tree.constant(plus), h_prime=tree.constant(minus))


def whole_obstacle(levels, left) -> BarrierValues:
    """An obstacle from whole levels and whole left limits ``{L: parent values}``.

    Each array is its own part over a base of -0.0, which adds no bits.
    """
    def level(values):
        values = np.asarray(values, dtype=float)
        return ObstacleLevel(-0.0, values, len(values))
    return BarrierValues(tuple(map(level, levels)), {k: level(v) for k, v in left.items()},
                         tuple(sorted(left)))


def saddle_replies(tree: ScenarioTree, driver, terminal, lower, upper,
                   y: Process) -> tuple[Process, Process]:
    """Each player's best reply to the other's first touch of ``y``, less the source.

    With a coefficient-free driver, the two-obstacle Y is the value of a
    Dynkin game: the maximiser stops on L, the minimiser on U, and the
    payoff collects the source sum_{j<k} g_j dt on the way.  Freeze the
    minimiser at tau* = first k with Y = U; the maximiser's
    max-or-continue recursion then values the game.  Freeze the
    maximiser at sigma* = first k with Y = L, and the minimiser's
    min-or-continue recursion does.  When (sigma*, tau*) is a saddle
    point both values equal Y plus the accumulated source at every node;
    each is returned with that source taken off, to compare with ``y``.
    """
    n = tree.num_steps
    xi, low, up = evaluate(tree, terminal, lower, upper)
    cum = np.concatenate(([0.0], np.cumsum(_source_rates(tree, driver) * tree.dt)))

    def reply(frozen, own, better):
        value = [None] * (n + 1)
        value[n] = xi + cum[n]
        for k in range(n - 1, -1, -1):
            mine, theirs = own.levels[k].whole(), frozen.levels[k].whole()
            stop = better(mine + cum[k], tree.cond_exp(value[k + 1]))
            value[k] = np.where(y[k] == theirs, theirs + cum[k], stop)
        return [value[k] - cum[k] for k in range(n + 1)]

    return reply(up, low, np.maximum), reply(low, up, np.minimum)


def state_rows(tree: ScenarioTree, level: int) -> np.ndarray:
    """Each node's row in the tree's kept state table of ``level``.

    Each node's state is looked up by the bits of its ``w`` and its counts,
    built by ``tree.states()``, not by the solver's walk of state codes.
    """
    from rbsde.processes import _states
    w, counts = _states(tree).tables[level]
    rows = {(x, *c): i for i, (x, c) in enumerate(zip(w.view(np.int64).tolist(),
                                                      counts.astype(np.int64).tolist()))}
    w, counts = list(tree.states())[level]
    return np.asarray([rows[(x, *c)] for x, c in zip(w.view(np.int64).tolist(),
                                                     counts.astype(np.int64).tolist())],
                      dtype=np.intp)


@dataclass
class StateCheck:
    """``per_state_check``'s result: each clause's residual but the left-limit integral's,
    and that integral's exact value and the sum of its terms' sizes."""

    residuals: dict
    left_integral: float
    left_size: float


def per_state_check(tree: ScenarioTree, sol, driver, terminal, lower,
                    upper=None) -> StateCheck:
    """Every clause of the check, on the nodes of every level at once, from a per-state solution.

    Y is read on the nodes, and each side's K increments and K_d masses are
    the ones the solve booked per state, gathered to the nodes by each
    node's state (``state_rows``): no difference of cumulative K is taken.
    The increments of K_c are K's less K_d's.  Each formula is the
    checker's in full, on the nodes of levels 0 .. N - 1 taken as one
    table, each row with its children, as the checker takes the states;
    the left-limit integral adds each child's term P(node) * p_b * mass
    exactly (``math.fsum``).
    """
    from rbsde.bsde import _driver_value, _project_v, _project_z
    from rbsde.snell import BIND_TOL

    xi, low, up = evaluate(tree, terminal, lower, upper)
    n, branching, prob = tree.num_steps, tree.branching, tree.branch_prob
    y = list(sol.y)
    sizes = [tree.level_size(k) for k in range(n)]
    leaves = slice(sum(sizes[:-1]), sum(sizes))   # the rows of level N - 1
    rows = [state_rows(tree, k) for k in range(n)]
    y_par = np.concatenate(y[:n])
    y_child = np.concatenate([level.reshape(-1, branching) for level in y[1:]])
    base = np.repeat([driver.base_at(tree.time(k)) for k in range(n)], sizes)
    weights = np.concatenate([tree.atom_prob[k] for k in range(n)])[:, None] * prob
    with np.errstate(over="ignore", invalid="ignore"):
        z, v = _project_z(tree, y_child), _project_v(tree, y_child)
        # Z and V are Y's projections: z - z, and v - v where the driver reads v,
        # NaN where one is not finite
        read = (z, v) if driver.c != 0.0 else (z,)
        represented = _worst(0.0, *(float(np.abs(x - x).max()) for x in read if x.size))
        f = _driver_value(driver, tree, 0, y_par, z, v, base=base)
        rhs = y_child @ prob + f * tree.dt
        sides = [(low, sol.lower, 1.0)] + ([] if up is None else [(up, sol.upper, -1.0)])
        residuals, booked, terms = {}, [], []
        for obstacle, comp, sign in sides:
            d_k = np.concatenate([np.zeros(size) if inc is None else inc[at] for size, inc, at
                                  in zip(sizes, comp.k.values[1:], rows)])[:, None]
            d_kd = np.concatenate([np.zeros((size, branching)) if mass is None else mass[at]
                                   for size, mass, at in zip(sizes, comp.k_d.values[1:], rows)])
            d_kc = d_k - d_kd
            booked.append((d_k, d_kd))
            slack = sign * (y_par - np.concatenate([obstacle.levels[k].whole()
                                                    for k in range(n)]))
            leaf = obstacle.levels[n].whole().reshape(-1, branching)
            mass_c = d_kc * slack[:, None]
            formula, side_terms = np.zeros(y_child.shape), (weights * mass_c).ravel().tolist()
            for level in obstacle.jump_levels:
                parents = slice(sum(sizes[:level - 1]), sum(sizes[:level]))
                left = obstacle.left_levels[level].whole()[:, None]
                gap = sign * (y_par[parents, None] - left)
                formula[parents] = np.where(np.abs(gap) <= BIND_TOL,
                                            np.maximum(sign * (left - y_child[parents]), 0.0),
                                            0.0)
                side_terms += (weights[parents] * (gap * d_kd[parents])).ravel().tolist()
            terms.append(side_terms)
            residuals[sign] = {
                "contain": _worst(0.0, -float(slack.min()),
                                  float((sign * (leaf - y_child[leaves])).max())),
                "skorokhod": _worst(0.0, float(np.abs(mass_c).max())),
                "jump": _worst(0.0, float(np.abs(d_kd - formula).max())),
                "monotone": _worst(0.0, -float(d_k.min()),
                                   float(np.abs(d_k - d_kc - d_kd).max()))}
        compensator = booked[0][0] if len(sides) == 1 else booked[0][0] - booked[1][0]
        rhs += np.ascontiguousarray(np.broadcast_to(compensator, y_child.shape)) @ prob
        dyn = _worst(0.0, float(np.abs(y_par - rhs).max()),
                     float(np.abs(y_child[leaves] - xi.reshape(-1, branching)).max()))
    names = (("barrier_dominance", ("skorokhod_c",), ("jump_formula_d",)) if len(sides) == 1
             else ("containment", ("skorokhod_lower_c", "skorokhod_upper_c"),
                   ("jump_formula_lower", "jump_formula_upper")))
    sided = [residuals[sign] for _, _, sign in sides]
    out = {"dynamics": dyn, "representation": represented,
           names[0]: _worst(0.0, *(r["contain"] for r in sided))}
    out.update(zip(names[1], (r["skorokhod"] for r in sided)))
    out.update(zip(names[2], (r["jump"] for r in sided)))
    out["compensator_monotone"] = _worst(*(r["monotone"] for r in sided))
    if len(sides) == 2:
        out["no_simultaneous_jumps"] = _worst(0.0, float(np.minimum(booked[0][1],
                                                                    booked[1][1]).max()))
    integrals = [math.fsum(side) for side in terms]
    return StateCheck(out, _worst(*map(abs, integrals)),
                      max(math.fsum(map(abs, side)) for side in terms))
