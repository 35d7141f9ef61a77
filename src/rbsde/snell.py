"""Snell envelopes on the tree: computation, decomposition, stopping.

The envelope recursion R_k = max(eta_k, E[R_{k+1} | F_k]) produces the
smallest supermartingale dominating the payoff, together with its
compensator (increments assigned one step ahead, stored by the level
rule of ``rbsde.tree`` like the solver's K, and shared with the level
before it where the envelope adds no mass) and the earliest optimal
stopping rule.  The stopping rule starts at the root, and its threshold
and the tolerances the solver, the penalty ladder and the checker share
are module constants, not arguments.  The jump-type split of the
envelope's compensator is not made here:
``rbsde.reflected.regularity_check`` takes it from the solver's own
split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import Process, ScenarioTree, _accumulate, expand

# Binding tolerance of the left-limit (jump-type) formula for K_d: the
# reflected solver's split, which the Snell route's regularity check also
# runs, and the checker's jump clauses import it from here.
BIND_TOL = 1e-9
# Largest jump-type mass E[K_d(T)] of a regular problem: the envelope
# route's regularity check and the penalty probe's verdict both read it.
REGULAR_TOL = 1e-10
# Pointwise tolerance of a nondecreasing ladder: rbsde.penalty's sweep holds
# each rung's Y to it, and the tests' monotone-limit oracle the envelopes of
# a payoff ladder.
MONOTONE_TOL = 1e-12


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
    # a level without mass (every value ±0.0; a NaN is mass) shares K's level before it
    booked = [level.copy() if level.any() else None for level in inc]
    return SnellResult(envelope=env, compensator=_accumulate(booked), increments=inc, stop=stop)


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
