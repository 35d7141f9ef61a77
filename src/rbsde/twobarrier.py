"""Two-obstacle reflected solver: direct induction and envelope recursion.

The direct route clips the implicit candidate into the band [L, U] and
books the two compensator increments, (1 - a dt)(L - candidate)^+ and
(1 - a dt)(candidate - U)^+, level by level over cache-sized blocks,
and stores K+ and K- by the level rule of ``rbsde.tree``.
The constructive route shifts the problem by the conditional mean of the
terminal-plus-source mass and iterates the coupled envelope recursion
N+ <- R(N- + L~), N- <- R(N+ - U~) from zero, which is monotone and
bounded by the witness supermartingales; at the fixed point the
reassembled solution coincides with the direct induction node by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import (_backward_sweep, _implicit_y, _leaf_values, barrier_values,
                   check_stepsize, project_level, terminal_values)
from .errors import (BarriersTouch, DriverNotCoefficientFree, MaxIterExceeded,
                     MokobodskiFailed, MonotonicityViolation, TerminalOutsideBarriers)
from .processes import DriverSpec
from .reflected import _split_side
from .snell import BIND_TOL, snell
from .tree import Process, ScenarioTree, _accumulate, _worst, copy_process, sup_diff

TERMINAL_SLACK = 1e-12


@dataclass(eq=False)
class SolutionQuintuple:
    """(Y, Z, V, K+, K-) with each compensator split into c/d parts.

    The compensators may be stored by the level rule of ``rbsde.tree``.
    """

    y: Process
    z: Process
    v: Process
    k_plus: Process
    k_minus: Process
    k_plus_c: Process
    k_plus_d: Process
    k_minus_c: Process
    k_minus_d: Process
    projection_residual: Process


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
    xi = terminal_values(tree, terminal)
    h = _closure(tree, np.maximum(xi, 0.0))
    hp = _closure(tree, np.maximum(-xi, 0.0))
    return MokobodskiWitness(h=h, h_prime=hp)


def constant_witness(tree: ScenarioTree, plus: float, minus: float = 0.0) -> MokobodskiWitness:
    if plus < 0 or minus < 0:
        raise ValueError("witness constants must be nonnegative")
    return MokobodskiWitness(h=tree.constant(plus), h_prime=tree.constant(minus))


def _closure(tree: ScenarioTree, leaf_values: np.ndarray) -> Process:
    """Martingale closing the given leaf values."""
    out: Process = [None] * (tree.num_steps + 1)
    out[tree.num_steps] = np.asarray(leaf_values, dtype=float).copy()
    for k in range(tree.num_steps - 1, -1, -1):
        out[k] = tree.cond_exp(out[k + 1])
    return out


def check_mokobodski(tree: ScenarioTree, witness: MokobodskiWitness,
                     lower, upper, tol: float = 1e-12) -> MokobodskiCheck:
    """Verify nonnegativity, the supermartingale property and the band."""
    low = barrier_values(tree, lower)
    up = barrier_values(tree, upper)
    neg = 0.0
    defect = 0.0
    band = 0.0
    detail = ""
    for k in range(tree.num_steps + 1):
        h, hp = witness.h[k], witness.h_prime[k]
        worst_neg = max(float(np.max(-h)), float(np.max(-hp)))
        if worst_neg > neg:
            neg = worst_neg
            if worst_neg > tol and not detail:
                detail = f"negativity {worst_neg:.3g} at level {k}"
        diff = h - hp
        worst_band = max(float(np.max(low.values[k] - diff)),
                         float(np.max(diff - up.values[k])))
        if worst_band > band:
            band = worst_band
            if worst_band > tol and not detail:
                detail = f"band violation {worst_band:.3g} at level {k}"
        if k < tree.num_steps:
            worst_def = max(float(np.max(tree.cond_exp(witness.h[k + 1]) - h)),
                            float(np.max(tree.cond_exp(witness.h_prime[k + 1]) - hp)))
            if worst_def > defect:
                defect = worst_def
                if worst_def > tol and not detail:
                    detail = f"supermartingale defect {worst_def:.3g} at level {k}"
    passed = neg <= tol and defect <= tol and band <= tol
    return MokobodskiCheck(passed=passed, max_negativity=neg,
                           max_supermartingale_defect=defect,
                           max_band_violation=band, detail=detail)


def _validate_band(tree: ScenarioTree, low, up, xi) -> None:
    over = float(np.min(xi - low.values[tree.num_steps]))
    under = float(np.min(up.values[tree.num_steps] - xi))
    if over < -TERMINAL_SLACK or under < -TERMINAL_SLACK:
        raise TerminalOutsideBarriers("terminal payoff leaves the obstacle band at a leaf")
    for k in range(tree.num_steps):
        gap = float(np.min(up.values[k] - low.values[k]))
        if gap <= 0.0:
            raise BarriersTouch(
                f"obstacles touch at level {k} (gap {gap:.3g}); strict separation "
                "before the horizon is required")


def _split_two_sided(tree: ScenarioTree, y: Process, k_plus: Process, k_minus: Process,
                     low, up, bind_tol: float = BIND_TOL):
    kpc, kpd = _split_side(tree, y, k_plus, low, +1, bind_tol)
    kmc, kmd = _split_side(tree, y, k_minus, up, -1, bind_tol)
    return kpc, kpd, kmc, kmd


def solve_double_obstacle(tree: ScenarioTree, driver, terminal, lower, upper,
                          order: str = "median") -> SolutionQuintuple:
    """Direct two-obstacle backward induction.

    ``order`` picks the truncation route (median clip, max-then-min or
    min-then-max); with strictly separated obstacles all three coincide,
    which the uniqueness probe exploits as cheap re-solves.
    """
    check_stepsize(driver, tree.dt)
    if getattr(driver, "penalty", None) is not None:
        raise ValueError("reflected solves take the bare driver, not a penalised one")
    if order not in ("median", "max_min", "min_max"):
        raise ValueError(f"unknown truncation order {order!r}")
    low = barrier_values(tree, lower)
    up = barrier_values(tree, upper)
    xi = _leaf_values(tree, terminal)
    _validate_band(tree, low, up, xi)

    n = tree.num_steps
    dt = tree.dt
    # The driver is evaluated at the clipped y, so dK+ - dK- closes the
    # step identity only when both carry the factor (1 - a dt).
    scale = 1.0 - driver.a * dt
    inc_p: Process = [np.empty(tree.level_size(k)) for k in range(n)]
    inc_m: Process = [np.empty(tree.level_size(k)) for k in range(n)]

    def settle(k, rows, rhs):
        cand = _implicit_y(rhs, driver.a, dt)
        lo, hi = low.values[k][rows], up.values[k][rows]
        if order == "median":
            yk = np.clip(cand, lo, hi)
        elif order == "max_min":
            yk = np.minimum(np.maximum(cand, lo), hi)
        else:
            yk = np.maximum(np.minimum(cand, hi), lo)
        inc_p[k][rows] = scale * np.maximum(lo - cand, 0.0)
        inc_m[k][rows] = scale * np.maximum(cand - hi, 0.0)
        return yk

    y, z, v, resid = _backward_sweep(tree, driver, xi, settle)
    k_plus = _accumulate(inc_p)
    k_minus = _accumulate(inc_m)
    kpc, kpd, kmc, kmd = _split_two_sided(tree, y, k_plus, k_minus, low, up)
    return SolutionQuintuple(y=y, z=z, v=v, k_plus=k_plus, k_minus=k_minus,
                             k_plus_c=kpc, k_plus_d=kpd, k_minus_c=kmc, k_minus_d=kmd,
                             projection_residual=resid)


@dataclass(eq=False)
class TwoBarrierTrace:
    """Recorded envelope iteration, with the bounding processes."""

    iterates: list
    changes: list
    upper_bound_plus: Process    # H, dominating every N+ iterate
    upper_bound_minus: Process   # Theta, dominating every N- iterate
    witness_check: MokobodskiCheck
    converged: bool
    iterations: int


def _require_plain_driver(driver) -> DriverSpec:
    if not isinstance(driver, DriverSpec) or not driver.is_coefficient_free:
        raise DriverNotCoefficientFree(
            "the envelope construction needs a deterministic source driver")
    return driver


def picard_snell_solve(tree: ScenarioTree, driver, terminal, lower, upper,
                       witness: MokobodskiWitness | None = None,
                       tol: float = 1e-12, max_iter: int = 10_000):
    """Constructive two-obstacle solve via the coupled envelope recursion.

    Returns the assembled solution and the iteration trace.  Requires a
    coefficient-free driver and a passing witness (the built-in
    martingale witness is used when none is supplied).
    """
    driver = _require_plain_driver(driver)
    low = barrier_values(tree, lower)
    up = barrier_values(tree, upper)
    xi = terminal_values(tree, terminal)
    _validate_band(tree, low, up, xi)
    if witness is None:
        witness = martingale_witness(tree, xi)
    wcheck = check_mokobodski(tree, witness, low, up)
    if not wcheck.passed:
        raise MokobodskiFailed(f"witness rejected: {wcheck.detail}")

    n = tree.num_steps
    dt = tree.dt
    g = np.asarray([driver.base_at(tree.time(k)) for k in range(n)])
    gtail = np.concatenate((np.cumsum((g * dt)[::-1])[::-1], [0.0]))
    gtail_minus = np.concatenate((np.cumsum((np.maximum(-g, 0.0) * dt)[::-1])[::-1], [0.0]))
    gtail_plus = np.concatenate((np.cumsum((np.maximum(g, 0.0) * dt)[::-1])[::-1], [0.0]))

    xi_mart = _closure(tree, xi)
    xi_plus = _closure(tree, np.maximum(xi, 0.0))
    xi_minus = _closure(tree, np.maximum(-xi, 0.0))
    mean_mass = [xi_mart[k] + gtail[k] for k in range(n + 1)]

    l_tilde = [low.values[k] - mean_mass[k] for k in range(n)]
    l_tilde.append(np.zeros(tree.level_size(n)))
    u_tilde = [up.values[k] - mean_mass[k] for k in range(n)]
    u_tilde.append(np.zeros(tree.level_size(n)))

    bound_plus = [witness.h[k] + xi_minus[k] + gtail_minus[k] for k in range(n)]
    bound_plus.append(np.zeros(tree.level_size(n)))
    bound_minus = [witness.h_prime[k] + xi_plus[k] + gtail_plus[k] for k in range(n)]
    bound_minus.append(np.zeros(tree.level_size(n)))

    n_plus = tree.zero_adapted()
    n_minus = tree.zero_adapted()
    iterates = [(copy_process(n_plus), copy_process(n_minus))]
    changes = []
    converged = False
    res_plus = res_minus = None
    for _ in range(max_iter):
        res_plus = snell(tree, [n_minus[k] + l_tilde[k] for k in range(n + 1)])
        res_minus = snell(tree, [n_plus[k] - u_tilde[k] for k in range(n + 1)])
        new_plus, new_minus = res_plus.envelope, res_minus.envelope
        change = _worst(sup_diff(new_plus, n_plus), sup_diff(new_minus, n_minus))
        n_plus, n_minus = new_plus, new_minus
        iterates.append((copy_process(n_plus), copy_process(n_minus)))
        changes.append(change)
        if change < tol:
            converged = True
            break
    if not converged:
        raise MaxIterExceeded(f"envelope recursion not settled after {max_iter} rounds")

    trace = TwoBarrierTrace(iterates=iterates, changes=changes,
                            upper_bound_plus=bound_plus, upper_bound_minus=bound_minus,
                            witness_check=wcheck, converged=converged,
                            iterations=len(changes))

    y = [n_plus[k] - n_minus[k] + mean_mass[k] for k in range(n + 1)]
    z: Process = [None] * n
    v: Process = [None] * n
    resid: Process = [None] * n
    for k in range(n):
        zp, vp, _ = project_level(tree, n_plus[k + 1])
        zm, vm, _ = project_level(tree, n_minus[k + 1])
        ze, ve, _ = project_level(tree, xi_mart[k + 1])
        z[k] = zp - zm + ze
        v[k] = vp - vm + ve
        _, _, resid[k] = project_level(tree, y[k + 1])

    k_plus = _accumulate(copy_process(res_plus.increments))
    k_minus = _accumulate(copy_process(res_minus.increments))
    kpc, kpd, kmc, kmd = _split_two_sided(tree, y, k_plus, k_minus, low, up)
    solution = SolutionQuintuple(y=y, z=z, v=v, k_plus=k_plus, k_minus=k_minus,
                                 k_plus_c=kpc, k_plus_d=kpd, k_minus_c=kmc,
                                 k_minus_d=kmd, projection_residual=resid)
    return solution, trace


@dataclass(eq=False)
class MonotoneIterateReport:
    max_decrease: float
    max_negativity: float
    max_bound_violation: float
    passed: bool


def monotone_iterate_check(tree: ScenarioTree, trace: TwoBarrierTrace,
                           tol: float = 1e-12) -> MonotoneIterateReport:
    """Verify 0 <= N{+-}^n <= N{+-}^{n+1} <= bound for the recorded run."""
    decrease = 0.0
    negativity = 0.0
    bound = 0.0
    for n_plus, n_minus in trace.iterates:
        negativity = _worst(negativity, *(float(np.max(-lv)) for lv in n_plus),
                            *(float(np.max(-lv)) for lv in n_minus))
        for k in range(tree.num_steps + 1):
            bound = _worst(bound, float(np.max(n_plus[k] - trace.upper_bound_plus[k])),
                           float(np.max(n_minus[k] - trace.upper_bound_minus[k])))
    for (p0, m0), (p1, m1) in zip(trace.iterates, trace.iterates[1:]):
        for k in range(tree.num_steps + 1):
            decrease = _worst(decrease, float(np.max(p0[k] - p1[k])),
                              float(np.max(m0[k] - m1[k])))
    # written so that a NaN anywhere fails the check
    passed = decrease <= tol and negativity <= tol and bound <= tol
    if not passed:
        raise MonotonicityViolation(
            f"envelope iteration left its monotone corridor "
            f"(decrease {decrease:.3g}, negativity {negativity:.3g}, "
            f"bound excess {bound:.3g})")
    return MonotoneIterateReport(max_decrease=decrease, max_negativity=negativity,
                                 max_bound_violation=bound, passed=passed)
