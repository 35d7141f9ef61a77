"""Two-obstacle envelope route: the Mokobodski witness and the coupled recursion.

The direct two-obstacle induction is ``rbsde.reflected.solve_reflected``
with both obstacles (``solve_double_obstacle`` here is the same
function).  The constructive route shifts the problem by the conditional
mean of the terminal-plus-source mass and iterates the coupled envelope
recursion N+ <- R(N- + L~), N- <- R(N+ - U~) from zero, which is
monotone and bounded by the witness supermartingales; at the fixed point
the reassembled solution coincides with the direct induction node by
node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import _project_block
from .bsde import project_level  # noqa: F401  (kept importable from this module)
from .errors import MaxIterExceeded, MokobodskiFailed, MonotonicityViolation
from .processes import evaluate
from .reflected import _book, _obstacle_inputs, _source_rates, solve_reflected
from .snell import _envelope
from .snell import snell  # noqa: F401  (kept importable from this module)
from .tree import Process, ScenarioTree, _children, _max_excess, _worst, sup_diff

# The two-obstacle name of the same function: call sites that pass two obstacles
# use it, so the benchmark's tracer (bench/tracing.py) times them as their own layer.
solve_double_obstacle = solve_reflected

# The witness check, the recursion's stop and the monotone corridor all hold
# to TOL in sup norm; the recursion gives up after MAX_ROUNDS rounds.
TOL = 1e-12
MAX_ROUNDS = 10_000


@dataclass(eq=False)
class MokobodskiWitness:
    """Pair of nonnegative supermartingales whose difference spans the band."""

    h: Process
    h_prime: Process


@dataclass(eq=False)
class MokobodskiCheck:
    passed: bool
    max_negativity: float
    max_supermartingale_defect: float
    max_band_violation: float
    detail: str = ""


def martingale_witness(tree: ScenarioTree, terminal) -> MokobodskiWitness:
    """Built-in witness: conditional means of the terminal's two parts."""
    xi = evaluate(tree, terminal)[0]
    h = _closure(tree, np.maximum(xi, 0.0))
    hp = _closure(tree, np.maximum(-xi, 0.0))
    return MokobodskiWitness(h=h, h_prime=hp)


def _closure(tree: ScenarioTree, leaf_values: np.ndarray) -> Process:
    """Martingale closing the given leaf values; its leaf level is that array itself."""
    out: Process = [None] * (tree.num_steps + 1)
    out[tree.num_steps] = np.asarray(leaf_values, dtype=float)
    for k in range(tree.num_steps - 1, -1, -1):
        out[k] = tree.cond_exp(out[k + 1])
    return out


def _source_tail(tree: ScenarioTree, rates: np.ndarray) -> np.ndarray:
    """Source mass still to come, sum_{j >= k} rates_j dt, at each level k."""
    return np.concatenate((np.cumsum((rates * tree.dt)[::-1])[::-1], [0.0]))


def _mean_mass(tree: ScenarioTree, g: np.ndarray, xi_mart: Process) -> Process:
    """E[xi + sum_{j >= k} g_j dt | F_k], the unreflected coefficient-free solution."""
    tail = _source_tail(tree, g)
    return [xi_mart[k] + tail[k] for k in range(tree.num_steps + 1)]


def _less_mean(obstacle, mean_mass: Process, leaf: np.ndarray) -> Process:
    """obstacle - mean_mass before the horizon, each level formed in place; ``leaf`` at it."""
    out: Process = []
    for k in range(len(mean_mass) - 1):
        level = obstacle.levels[k].whole()
        out.append(np.subtract(level, mean_mass[k], out=level))
    return out + [leaf]


def check_mokobodski(tree: ScenarioTree, witness: MokobodskiWitness,
                     lower, upper) -> MokobodskiCheck:
    """Verify nonnegativity, the supermartingale property and the band.

    Every maximum keeps NaN, so a witness with a NaN node fails, and
    ``detail`` names the first measure and level above ``TOL`` (or NaN).
    """
    _, low, up = evaluate(tree, None, lower, upper)
    worst = {"negativity": 0.0, "band violation": 0.0, "supermartingale defect": 0.0}
    detail = ""
    for k in range(tree.num_steps + 1):
        h, hp = witness.h[k], witness.h_prime[k]
        diff = h - hp
        # L - diff and diff - U, each formed in its fresh obstacle level
        below, above = low.levels[k].whole(), up.levels[k].whole()
        level = {"negativity": _worst(float(np.max(-h)), float(np.max(-hp))),
                 "band violation": _worst(float(np.max(np.subtract(below, diff, out=below))),
                                          float(np.max(np.subtract(diff, above, out=above))))}
        del below, above
        if k < tree.num_steps:
            level["supermartingale defect"] = _worst(
                float(np.max(tree.cond_exp(witness.h[k + 1]) - h)),
                float(np.max(tree.cond_exp(witness.h_prime[k + 1]) - hp)))
        for name, value in level.items():
            worst[name] = _worst(worst[name], value)
            if not value <= TOL and not detail:
                detail = f"{name} {value:.3g} at level {k}"
    neg, band, defect = worst.values()
    passed = neg <= TOL and defect <= TOL and band <= TOL
    return MokobodskiCheck(passed=passed, max_negativity=neg,
                           max_supermartingale_defect=defect,
                           max_band_violation=band, detail=detail)


@dataclass(eq=False)
class TwoBarrierTrace:
    """Recorded envelope iteration, with the bounding processes.

    ``iterates`` holds every round's pair (N+, N-), whole, from iterate 0,
    the read-only zero process, on; ``changes`` holds each round's sup-norm
    move.  The leaf level of every iterate and of both bounds is one
    shared read-only zero array, and each later round's levels are the
    envelope arrays themselves, not copies.
    """

    iterates: list
    changes: list
    upper_bound_plus: Process    # H, dominating every N+ iterate
    upper_bound_minus: Process   # Theta, dominating every N- iterate
    witness_check: MokobodskiCheck
    converged: bool
    iterations: int


def picard_snell_solve(tree: ScenarioTree, driver, terminal, lower, upper,
                       witness: MokobodskiWitness | None = None):
    """Constructive two-obstacle solve via the coupled envelope recursion.

    Iterates until a round moves both envelopes by less than ``TOL`` in
    sup norm, for at most ``MAX_ROUNDS`` rounds.  Returns the assembled
    solution and the iteration trace.  Requires a coefficient-free
    driver and a passing witness (the built-in martingale witness, whose
    two closures the bounds reuse, when none is supplied).
    """
    g = _source_rates(tree, driver)
    _, xi, low, up = _obstacle_inputs(tree, terminal, lower, upper)
    own = martingale_witness(tree, xi)
    if witness is None:
        witness = own
    wcheck = check_mokobodski(tree, witness, low, up)
    if not wcheck.passed:
        raise MokobodskiFailed(f"witness rejected: {wcheck.detail}")

    n = tree.num_steps
    gtail_minus = _source_tail(tree, np.maximum(-g, 0.0))
    gtail_plus = _source_tail(tree, np.maximum(g, 0.0))
    mean_mass = _mean_mass(tree, g, _closure(tree, xi))

    # The leaf level of L~, U~, both bounds and every round's payoff and
    # envelope is zero: one read-only zero level serves them all, and the
    # read-only zero process is iterate 0 of both envelopes.
    zeros = [np.zeros(tree.level_size(k)) for k in range(n + 1)]
    for level in zeros:
        level.flags.writeable = False
    leaf = zeros[n]
    l_tilde = _less_mean(low, mean_mass, leaf)
    u_tilde = _less_mean(up, mean_mass, leaf)
    bound_plus = [witness.h[k] + own.h_prime[k] + gtail_minus[k] for k in range(n)] + [leaf]
    bound_minus = [witness.h_prime[k] + own.h[k] + gtail_plus[k] for k in range(n)] + [leaf]
    del witness, own

    n_plus = n_minus = zeros
    # every round's envelopes are fresh arrays that nothing writes to later,
    # so the trace keeps them without copies
    iterates = [(n_plus, n_minus)]
    changes = []
    converged = False
    inc_plus = inc_minus = None
    for _ in range(MAX_ROUNDS):
        new_plus, inc_plus = _envelope(tree, [n_minus[k] + l_tilde[k] for k in range(n)]
                                       + [leaf])
        new_minus, inc_minus = _envelope(tree, [n_plus[k] - u_tilde[k] for k in range(n)]
                                         + [leaf])
        change = _worst(sup_diff(new_plus, n_plus), sup_diff(new_minus, n_minus))
        n_plus, n_minus = new_plus, new_minus
        iterates.append((n_plus, n_minus))
        changes.append(change)
        if change < TOL:
            converged = True
            break
    if not converged:
        raise MaxIterExceeded(f"envelope recursion not settled after {MAX_ROUNDS} rounds")

    trace = TwoBarrierTrace(iterates=iterates, changes=changes,
                            upper_bound_plus=bound_plus, upper_bound_minus=bound_minus,
                            witness_check=wcheck, converged=converged,
                            iterations=len(changes))

    y = [n_plus[k] - n_minus[k] + mean_mass[k] for k in range(n + 1)]
    z: Process = [None] * n
    v: Process = [None] * n
    for k in range(n):
        # (z, v) of Y itself: project_level's remainder is not needed here
        _, z[k], v[k] = _project_block(tree, _children(tree, y[k + 1], slice(None)))

    # the converged round's increments belong to nothing else: accumulate in place,
    # and a level without mass (every value ±0.0; a NaN is mass) shares K's level before it
    inc_plus, inc_minus = ([level if level.any() else None for level in inc]
                           for inc in (inc_plus, inc_minus))
    solution = _book(tree, tree, (y, z, v, inc_plus, inc_minus), low, up)
    return solution, trace


@dataclass(eq=False)
class MonotoneIterateReport:
    max_decrease: float
    max_negativity: float
    max_bound_violation: float
    passed: bool


def monotone_iterate_check(tree: ScenarioTree,
                           trace: TwoBarrierTrace) -> MonotoneIterateReport:
    """Verify 0 <= N{+-}^n <= N{+-}^{n+1} <= bound for the recorded run."""
    negativity = bound = decrease = 0.0
    for n_plus, n_minus in trace.iterates:
        negativity = _worst(negativity, *(-float(np.min(lv)) for lv in (*n_plus, *n_minus)))
        bound = _worst(bound, _max_excess(n_plus, trace.upper_bound_plus),
                       _max_excess(n_minus, trace.upper_bound_minus))
    for (p0, m0), (p1, m1) in zip(trace.iterates, trace.iterates[1:]):
        decrease = _worst(decrease, _max_excess(p0, p1), _max_excess(m0, m1))
    # written so that a NaN anywhere fails the check
    passed = decrease <= TOL and negativity <= TOL and bound <= TOL
    if not passed:
        raise MonotonicityViolation(
            f"envelope iteration left its monotone corridor "
            f"(decrease {decrease:.3g}, negativity {negativity:.3g}, "
            f"bound excess {bound:.3g})")
    return MonotoneIterateReport(max_decrease=decrease, max_negativity=negativity,
                                 max_bound_violation=bound, passed=passed)
