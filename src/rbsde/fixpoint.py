"""Picard iteration for drivers with (y, z, v) dependence.

Each round freezes the driver inputs at the previous iterate, solves the
resulting coefficient-free problem with the one reflected sweep of every
kind, and measures the move in the exponentially weighted norm.  The
weight exponent defaults to 2*C_f + 4*C_f^2 + 2, the constant the
uniqueness estimate produces; the continuous-time contraction constant
does not transfer verbatim to the discrete norm, so a failure to
contract is reported with the measured ratios instead of being asserted
impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import _driver_value
from .errors import MaxIterExceeded, NoContractionObserved, NonFiniteData, WeightOverflow
from .processes import KINDS, DriverSpec, lipschitz_constant
from .reflected import _book, _obstacle_inputs, _reflected_sweep
from .tree import ScenarioTree, _all_finite, _weigh

# The rounds call the sweep directly; these solver names stay importable from
# this module for code that looks them up here (the benchmark's bench/tracing.py).
from .reflected import solve_bsde, solve_reflected_one  # noqa: F401
from .twobarrier import solve_double_obstacle  # noqa: F401


def alpha_rule(c_f: float) -> float:
    """Weight exponent from the Lipschitz constant: 2*C + 4*C^2 + 2.

    Raises WeightOverflow when the exponent overflows.
    """
    if c_f < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    with np.errstate(over="ignore"):
        alpha = float(2.0 * c_f + 4.0 * np.float64(c_f) ** 2 + 2.0)
    if not math.isfinite(alpha):
        raise WeightOverflow(f"the weight exponent 2C + 4C^2 + 2 overflows at C = {c_f:.6g}")
    return alpha


def _alpha_distance(tree: ScenarioTree, p, q, alpha: float) -> float:
    """Weighted norm of p - q, with one level of differences alive at a time.

    With (Y, Z, V) = p - q: sqrt(sum_{k<N} e^{alpha t_k} E[Y_k^2 + Z_k^2 +
    sum_i lam_i V_{k,i}^2] dt), left-endpoint weights on the grid.  Two
    rounds on one evaluated terminal share Z_{N-1} and V_{N-1}
    (``rbsde.bsde._backward_sweep``): ``_gaps`` leaves such a pair out.
    """
    levels = (_gaps((yp, yq), (zp, zq), (vp, vq))
              for yp, yq, zp, zq, vp, vq in zip(p[0], q[0], p[1], q[1], p[2], q[2]))
    return _weighted_norm(tree, levels, alpha)


def _gaps(*pairs) -> tuple:
    """``a - b`` of each pair, leaving out a pair that is one finite array.

    x - x is +0.0 for every finite x, and zeros add nothing to a sum of
    squares, so the norm keeps its bits without them; a shared array with
    a NaN or inf takes the subtraction, whose NaN the norm keeps.
    """
    return tuple(a - b for a, b in pairs if a is not b or not _all_finite(a))


def _weighted_norm(tree: ScenarioTree, levels, alpha: float) -> float:
    """sqrt(sum_{k<N} e^{alpha t_k} dt E[sum of squares]) over the arrays ``levels`` yields.

    ``levels`` yields one tuple of float arrays per level, which become the
    kernel's own: each is squared in place, a marked (2-D) one is weighed
    by the intensities, and all are summed into the first.  A marked array
    without marks adds nothing, and so does a level with no array, which
    is what its zeros add under the finite weights of the callers.  At
    alpha = 0 this is the dt (x) dP norm.
    A norm past the largest float is inf, without a warning.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    lam = tree.marks.intensity_array
    total = 0.0
    with np.errstate(over="ignore"):
        for k, arrays in zip(range(tree.num_steps), levels):
            weight = np.exp(alpha * tree.time(k)) * tree.dt
            sq = None
            for part in arrays:
                if part.size:
                    np.square(part, out=part)
                    part = _weigh(part, lam, scratch=True) if part.ndim == 2 else part
                    sq = part if sq is None else np.add(sq, part, out=sq)
            if sq is not None:
                total += weight * tree.expectation(k, sq, out=sq)
    return float(np.sqrt(total))


@dataclass(eq=False)
class FixpointTrace:
    """The measured moves of a Picard run; only the last iterate is ever held."""

    alpha: float
    distances: list         # weighted distance between consecutive iterates
    ratios: list            # successive distance ratios
    converged: bool
    iterations: int


def _sweep(tree: ScenarioTree, driver: DriverSpec, previous, xi: np.ndarray, low, up):
    """One round: Y, Z, V and each side's compensator increments (None without it).

    The driver is frozen block by block at the previous iterate's (y, z, v)
    and is the whole source, with no implicit y part.
    """
    y, z, v = previous

    def source(k, rows, _z, _v):
        return _driver_value(driver, tree, k, y[k][rows], z[k][rows], v[k][rows])

    return _reflected_sweep(tree, source, 0.0, xi, low, up)


def _start(tree: ScenarioTree, initial):
    """A given (Y, Z, V) start as float arrays, every level shaped as the tree's."""
    n, m = tree.num_steps, tree.marks.count
    start = []
    for name, given, levels, tail in zip("YZV", initial, (n + 1, n, n), ((), (), (m,))):
        given = [np.asarray(level, dtype=float) for level in given]
        for k in range(max(len(given), levels)):
            want = (tree.level_size(k),) + tail if k < levels else None
            got = given[k].shape if k < len(given) else None
            if got != want:
                raise ValueError(f"initial {name} at level {k} has shape {got}, "
                                 f"the tree {want}")
        start.append(given)
    return start


def zero_triple(tree: ScenarioTree):
    return tree.zero_adapted(), tree.zero_predictable(), tree.zero_marked()


def random_triple(tree: ScenarioTree, rng: np.random.Generator, scale: float = 1.0):
    y = [scale * rng.standard_normal(tree.level_size(k))
         for k in range(tree.num_steps + 1)]
    z = [scale * rng.standard_normal(tree.level_size(k)) for k in range(tree.num_steps)]
    v = [scale * rng.standard_normal((tree.level_size(k), tree.marks.count))
         for k in range(tree.num_steps)]
    return y, z, v


def picard_solve(tree: ScenarioTree, driver: DriverSpec, terminal,
                 solver_kind: str = "standard", barrier=None, lower=None, upper=None,
                 alpha: float | None = None, tol: float = 1e-12, max_iter: int = 200,
                 initial=None):
    """Iterate the frozen-input map until the weighted move falls below tol.

    Returns the final solve (with its compensators) and the trace.  Each
    round holds only the previous iterate; the obstacles and terminal are
    checked once, and the compensators are booked once, on the round that
    converged.  Raises WeightOverflow before the first round when the
    norm's largest weight e^(alpha t_{N-1}) overflows, NonFiniteData as
    soon as a round's distance is NaN (an inf one runs on),
    NoContractionObserved when three consecutive distance ratios reach
    one, and MaxIterExceeded when the budget runs out.
    """
    if solver_kind not in KINDS:
        raise ValueError(f"solver_kind must be one of {KINDS}")
    obstacles = ((), (barrier,), (lower, upper))[KINDS.index(solver_kind)]
    if any(side is None for side in obstacles):
        raise ValueError(f"{solver_kind} solves need {len(obstacles)} obstacle(s)")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if alpha is not None and not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    if alpha is None:
        alpha = alpha_rule(lipschitz_constant(driver, tree.marks))
    last = tree.time(tree.num_steps - 1)
    with np.errstate(over="ignore"):   # the weight _weighted_norm takes at t_{N-1}
        overflows = not np.isfinite(np.exp(alpha * last))
    if overflows:
        raise WeightOverflow(f"e^(alpha t) overflows at t = {last:.6g} with alpha = {alpha:.6g}")

    low, up, xi = _obstacle_inputs(tree, terminal, *obstacles)
    start = zero_triple(tree) if initial is None else _start(tree, initial)
    swept = _sweep(tree, driver, start, xi, low, up)
    del start  # a zero start is not held through the loop
    distances: list[float] = []
    ratios: list[float] = []
    flat_run = 0
    for _ in range(max_iter):
        # a round that did not converge passes on its (Y, Z, V), not its increments
        previous = swept[:3]
        del swept
        swept = _sweep(tree, driver, previous, xi, low, up)
        d = _alpha_distance(tree, swept, previous, alpha)
        if math.isnan(d):
            raise NonFiniteData(f"the move of round {len(distances) + 1} is NaN; "
                                "the iterates leave the float range")
        if distances and distances[-1] > 0.0:
            r = d / distances[-1]
            ratios.append(r)
            flat_run = flat_run + 1 if r >= 1.0 else 0
            if flat_run >= 3:
                raise NoContractionObserved(
                    f"distance ratios stayed at or above one for three rounds: "
                    f"{ratios[-3:]}", ratios=ratios)
        distances.append(d)
        if d < tol:
            solution = _book(tree, swept, low, up)
            trace = FixpointTrace(alpha=alpha, distances=distances, ratios=ratios,
                                  converged=True, iterations=len(distances))
            return solution, trace
    raise MaxIterExceeded(f"no fixed point within {max_iter} rounds "
                          f"(last move {distances[-1]:.3g})")
