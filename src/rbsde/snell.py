"""Snell envelopes on the tree: computation, decomposition, stopping.

The envelope recursion R_k = max(eta_k, E[R_{k+1} | F_k]) produces the
smallest supermartingale dominating the payoff, together with its
martingale / compensator split (increments assigned one step ahead) and
the earliest optimal stopping rule.  A deliberately naive recursive
stop-versus-continue oracle cross-checks the vectorised sweep on small
subtrees, and a full enumeration over stopping rules backs both on tiny
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NotMonotone, TooLargeToEnumerate
from .tree import Process, ScenarioTree, _accumulate, _worst, copy_process, expand

BIND_TOL = 1e-9

MAX_ORACLE_DEPTH = 6
MAX_ORACLE_LEAVES = 4096
MAX_ENUM_RULES = 1 << 16


@dataclass(eq=False)
class SnellResult:
    """Envelope with its Doob-Meyer split.

    ``compensator`` is adapted with zero start; its increment realised at
    level k+1 is assigned at level k (``increments[k]``), hence known one
    step ahead.  ``stop`` flags the nodes where immediate stopping is
    optimal (envelope equals payoff; always true at the last level).
    """

    envelope: Process
    martingale: Process
    compensator: Process
    increments: Process
    stop: list


def snell(tree: ScenarioTree, payoff: Process) -> SnellResult:
    """Smallest supermartingale dominating ``payoff`` on the tree."""
    n = tree.num_steps
    env, inc = _envelope(tree, [*payoff[:n], np.array(payoff[n], dtype=float)])
    comp = [expand(tree, level, k)
            for k, level in enumerate(_accumulate(copy_process(inc)))]
    mart = [env[k] + comp[k] for k in range(n + 1)]
    stop = [env[k] <= np.asarray(payoff[k], dtype=float) for k in range(n + 1)]
    stop[n] = np.ones(tree.level_size(n), dtype=bool)
    return SnellResult(envelope=env, martingale=mart, compensator=comp,
                       increments=inc, stop=stop)


def _envelope(tree: ScenarioTree, payoff: Process):
    """Envelope levels and their assigned compensator increments, nothing else.

    The envelope's last level is ``payoff[n]`` itself, not a copy.
    """
    n = tree.num_steps
    env: Process = [None] * (n + 1)
    env[n] = np.asarray(payoff[n], dtype=float)
    inc: Process = [None] * n
    for k in range(n - 1, -1, -1):
        cont = tree.cond_exp(env[k + 1])
        env[k] = np.maximum(np.asarray(payoff[k], dtype=float), cont)
        inc[k] = env[k] - cont
    return env, inc


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


@dataclass(eq=False)
class OptimalStop:
    """Compensator-based optimal stopping rule from a given level.

    Stops at the first level whose assigned compensator increment is
    positive (the envelope is about to lose mass), and at the horizon
    otherwise; the envelope equals the payoff at every stopping node.
    """

    from_level: int
    leaf_level: np.ndarray   # stopping level along each terminal path
    value: np.ndarray        # E[payoff at the stop | node] per node at from_level


STOP_TOL = 1e-14


def stop_flags(tree: ScenarioTree, result: SnellResult,
               stop_tol: float = STOP_TOL) -> list:
    """Per-node flags of the rule 'stop when the compensator is about to grow'."""
    flags = [inc > stop_tol for inc in result.increments]
    flags.append(np.ones(tree.level_size(tree.num_steps), dtype=bool))
    return flags


def optimal_stopping_time(tree: ScenarioTree, result: SnellResult,
                          payoff: Process, from_level: int = 0) -> OptimalStop:
    n = tree.num_steps
    flags = stop_flags(tree, result)
    lv = np.full(tree.level_size(from_level), -1, dtype=int)
    for k in range(from_level, n + 1):
        if k > from_level:
            lv = np.repeat(lv, tree.branching)
        hit = (lv < 0) & flags[k]
        lv[hit] = k
    value = np.asarray(payoff[n], dtype=float).copy()
    for k in range(n - 1, from_level - 1, -1):
        cont = tree.cond_exp(value)
        value = np.where(flags[k], np.asarray(payoff[k], dtype=float), cont)
    return OptimalStop(from_level=from_level, leaf_level=lv, value=value)


def stopped_envelope_residual(tree: ScenarioTree, result: SnellResult,
                              from_level: int = 0) -> float:
    """Martingale defect of the envelope stopped at the optimal time."""
    n = tree.num_steps
    flags = stop_flags(tree, result)
    frozen = result.envelope[from_level].copy()
    flag = flags[from_level].copy()
    worst = 0.0
    for k in range(from_level, n):
        nxt_env = result.envelope[k + 1]
        frozen_next = np.where(np.repeat(flag, tree.branching),
                               np.repeat(frozen, tree.branching), nxt_env)
        worst = max(worst, float(np.max(np.abs(tree.cond_exp(frozen_next) - frozen))))
        flag = np.repeat(flag, tree.branching) | flags[k + 1]
        frozen = frozen_next
    return worst


@dataclass(eq=False)
class MonotoneLimitReport:
    envelope_violation: float
    final_dominates: float
    passed: bool


def monotone_limit_check(tree: ScenarioTree, payoffs: list[Process],
                         tol: float = 1e-12) -> MonotoneLimitReport:
    """Envelopes of a nondecreasing payoff ladder must be nondecreasing."""
    if len(payoffs) < 2:
        raise ValueError("need at least two payoffs")
    for lo, hi in zip(payoffs, payoffs[1:]):
        for a, b in zip(lo, hi):
            if np.any(np.asarray(b) < np.asarray(a) - tol):
                raise NotMonotone("payoff ladder is not pointwise nondecreasing")
    envelopes = [_envelope(tree, p)[0] for p in payoffs]
    violation = 0.0
    for lo, hi in zip(envelopes, envelopes[1:]):
        for a, b in zip(lo, hi):
            violation = _worst(violation, float(np.max(a - b)))
    final_gap = 0.0
    for env in envelopes[:-1]:
        for a, b in zip(env, envelopes[-1]):
            final_gap = _worst(final_gap, float(np.max(a - b)))
    passed = violation <= tol and final_gap <= tol
    return MonotoneLimitReport(envelope_violation=violation,
                               final_dominates=final_gap, passed=passed)


@dataclass(eq=False)
class RegularityReport:
    kd_mass: float
    total_mass: float
    kd_increments: dict
    regular: bool


def regularity_check(tree: ScenarioTree, result: SnellResult,
                     left_payoff: dict[int, np.ndarray],
                     bind_tol: float = BIND_TOL) -> RegularityReport:
    """Split the compensator mass at declared predictable jump times.

    The jump-type increment at a declared level k is
    (eta_left - R_k)^+ on the event that the envelope was binding one
    step earlier; everything else counts as continuous-type.  Regular
    means no jump-type mass.
    """
    kd_inc: dict[int, np.ndarray] = {}
    kd_mass = 0.0
    for level, left in left_payoff.items():
        if not 1 <= level <= tree.num_steps:
            raise ValueError(f"declared level {level} outside the grid")
        prev = tree.lift(result.envelope[level - 1])
        binding = np.abs(prev - left) <= bind_tol
        inc = np.where(binding, np.maximum(left - result.envelope[level], 0.0), 0.0)
        kd_inc[level] = inc
        kd_mass += tree.expectation(level, inc)
    total = tree.expectation(tree.num_steps, result.compensator[tree.num_steps])
    return RegularityReport(kd_mass=kd_mass, total_mass=total,
                            kd_increments=kd_inc, regular=kd_mass <= 1e-12)
