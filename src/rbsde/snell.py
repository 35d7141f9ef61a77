"""Snell envelopes on the tree: computation, decomposition, stopping.

The envelope recursion R_k = max(eta_k, E[R_{k+1} | F_k]) produces the
smallest supermartingale dominating the payoff, together with its
compensator (increments assigned one step ahead, stored by the level
rule of ``rbsde.tree`` like the solver's K) and the earliest optimal
stopping rule.  A deliberately naive recursive stop-versus-continue
oracle cross-checks the vectorised sweep on small subtrees, and a full
enumeration over stopping rules backs both on tiny ones.  The stopping
rule starts at the root, and its threshold and tolerances are module
constants, not arguments.  The jump-type split of the envelope's
compensator is not made here: ``rbsde.reflected.regularity_check``
takes it from the solver's own split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NotMonotone, TooLargeToEnumerate
from .tree import Process, ScenarioTree, _accumulate, _max_excess, _worst, copy_process, expand

# Binding tolerance of the left-limit (jump-type) formula for K_d: the
# reflected solver's split, which the Snell route's regularity check also
# runs, and the checker's jump clauses import it from here.
BIND_TOL = 1e-9
# Largest jump-type mass E[K_d(T)] of a regular problem: the envelope
# route's regularity check and the penalty probe's verdict both read it.
REGULAR_TOL = 1e-10
# Pointwise tolerance of a nondecreasing ladder: payoffs and their envelopes
# here, the penalised solutions in rbsde.penalty.
MONOTONE_TOL = 1e-12

MAX_ORACLE_DEPTH = 6
MAX_ORACLE_LEAVES = 4096
MAX_ENUM_RULES = 1 << 16


@dataclass(eq=False)
class SnellResult:
    """Envelope with the compensator of its Doob-Meyer split.

    ``compensator`` starts at zero; its increment realised at level k+1
    is assigned at level k (``increments[k]``), hence known one step
    ahead, and K_{k+1} is stored as a level-k array (the level rule).
    The martingale part is ``envelope[k] + expand(tree, compensator[k], k)``.
    ``stop`` flags the nodes where immediate stopping is optimal
    (envelope equals payoff; always true at the last level).
    """

    envelope: Process
    compensator: Process
    increments: Process
    stop: list


def snell(tree: ScenarioTree, payoff: Process) -> SnellResult:
    """Smallest supermartingale dominating ``payoff`` on the tree."""
    n = tree.num_steps
    env, inc = _envelope(tree, [*payoff[:n], np.array(payoff[n], dtype=float)])
    stop = [env[k] <= np.asarray(payoff[k], dtype=float) for k in range(n + 1)]
    stop[n] = np.ones(tree.level_size(n), dtype=bool)
    return SnellResult(envelope=env, compensator=_accumulate(copy_process(inc)),
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
    """Compensator-based optimal stopping rule from the root.

    Stops at the first level whose assigned compensator increment is
    positive (the envelope is about to lose mass), and at the horizon
    otherwise; the envelope equals the payoff at every stopping node.
    """

    leaf_level: np.ndarray   # stopping level along each terminal path
    value: np.ndarray        # E[payoff at the stop], the root's one entry


STOP_TOL = 1e-14


def stop_flags(tree: ScenarioTree, result: SnellResult) -> list:
    """Per-node flags of the rule 'stop when the compensator is about to grow'."""
    flags = [inc > STOP_TOL for inc in result.increments]
    flags.append(np.ones(tree.level_size(tree.num_steps), dtype=bool))
    return flags


def optimal_stopping_time(tree: ScenarioTree, result: SnellResult,
                          payoff: Process) -> OptimalStop:
    n = tree.num_steps
    flags = stop_flags(tree, result)
    lv = np.full(1, -1, dtype=int)
    for k in range(n + 1):
        if k:
            lv = expand(tree, lv, k)
        hit = (lv < 0) & flags[k]
        lv[hit] = k
    value = np.asarray(payoff[n], dtype=float).copy()
    for k in range(n - 1, -1, -1):
        cont = tree.cond_exp(value)
        value = np.where(flags[k], np.asarray(payoff[k], dtype=float), cont)
    return OptimalStop(leaf_level=lv, value=value)


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
