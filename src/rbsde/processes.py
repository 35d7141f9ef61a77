"""Problem data evaluated on the tree: terminals, drivers and obstacles.

Obstacles are split into a piecewise-constant deterministic part (whose
breakpoints are the declared predictable jump times) and an optional
stochastic part driven by the node state.  Left limits at declared jump
times are recorded explicitly, because the split of the reflection
compensator into continuous-type and jump-type mass needs them.

Terminals and obstacles are evaluated once per tree: ladders, Picard
rounds, envelope recursions and checks solve repeatedly on one tree with
the same data, so the evaluated arrays are memoised per (tree, spec) and
handed out read-only.  Payoff and obstacle functions must therefore be
pure functions of ``(t, w, counts)``.  ``evaluate`` is the one reader:
it gives a problem's terminal and obstacles on a tree, evaluating every
spec the tree has not seen in one pass over ``ScenarioTree.states()``,
with at most two levels of state alive, and takes each declared left
limit from the parent level's state as the pass goes by it.  The state
arrays are read-only, and every evaluated level is a fresh array, so a
function that returns or keeps its input cannot change a later level or
a memoised result.  ``eval_barrier`` and ``TerminalSpec.evaluate`` read
one item through it.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import JumpTimeOffGrid, NonFiniteData
from .tree import (_BLOCK_NODES, DEFAULT_NODE_CAP, MarkSet, ScenarioTree, _all_finite, _weigh,
                   build_tree)

# Terminal payoffs see the leaf state; obstacle functions also see time,
# so that conditional-mean processes with compensator drift are exact.
PathFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
ObstacleFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

GRID_SNAP = 1e-9

# A problem's kind, indexed by its number of obstacles (``ProblemSpec.obstacles``).
KINDS = ("standard", "one_barrier", "two_barrier")

# tree -> {id(spec): (spec, evaluated)}.  Trees hash by identity and the
# entry keeps its spec alive, so an id cannot be reused while it is cached;
# the whole table goes with the tree.
_EVALUATED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def evaluate(tree: ScenarioTree, terminal, *obstacles) -> tuple:
    """(xi, *obstacle values) of a problem's data on ``tree``.

    A ``TerminalSpec`` or ``BarrierSpec`` gives its evaluation, memoised
    per tree and read-only; the specs not yet evaluated on the tree are
    evaluated together in one walk of the node state.  ``BarrierValues``
    and None pass through, and a terminal array must hold one value per
    leaf.
    """
    per_tree = _EVALUATED.setdefault(tree, {})
    missing = list({id(spec): spec for spec in (*obstacles, terminal)
                    if isinstance(spec, (TerminalSpec, BarrierSpec))
                    and id(spec) not in per_tree}.values())
    if missing:
        for spec, evaluated in zip(missing, _walk(tree, missing)):
            per_tree[id(spec)] = (spec, evaluated)
    values = []
    for obstacle in obstacles:
        if isinstance(obstacle, BarrierSpec):
            obstacle = per_tree[id(obstacle)][1]
        elif not (obstacle is None or isinstance(obstacle, BarrierValues)):
            raise TypeError("expected a BarrierSpec or pre-evaluated BarrierValues")
        values.append(obstacle)
    if isinstance(terminal, TerminalSpec):
        terminal = per_tree[id(terminal)][1]
    elif terminal is not None:
        terminal = np.asarray(terminal, dtype=float)
        if terminal.shape != (tree.level_size(tree.num_steps),):
            raise ValueError("terminal array must hold one value per leaf")
        if not _all_finite(terminal):
            raise NonFiniteData("terminal payoff must be finite on every leaf")
    return (terminal, *values)


def _walk(tree: ScenarioTree, specs) -> list:
    """Fresh evaluations of ``specs`` from one pass over ``tree.states()``.

    Each spec's errors are raised after the pass, in the order of ``specs``;
    an overflow on the way warns nothing, since the results' finiteness is
    tested.
    """
    runs = [_TerminalRun(spec, tree) if isinstance(spec, TerminalSpec)
            else _BarrierRun(spec, tree) for spec in specs]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (w, counts) in enumerate(tree.states()):
            for run in runs:
                run.step(k, w, counts)
    return [run.result() for run in runs]


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal condition: a constant or a function of the leaf state."""

    constant: float | None = None
    payoff: PathFn | None = None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.payoff is None):
            raise ValueError("specify exactly one of constant or payoff")

    def evaluate(self, tree: ScenarioTree) -> np.ndarray:
        """Leaf values from ``evaluate``: computed once per tree, read-only."""
        return evaluate(tree, self)[0]


class _TerminalRun:
    """A terminal's evaluation in the state walk: the leaf level alone."""

    def __init__(self, spec: TerminalSpec, tree: ScenarioTree) -> None:
        self.spec, self.tree = spec, tree
        self.values = None

    def step(self, k: int, w, counts) -> None:
        if k < self.tree.num_steps:
            return
        leaves = self.tree.level_size(k)
        if self.spec.constant is not None:
            self.values = np.full(leaves, float(self.spec.constant))
            return
        raw = np.asarray(self.spec.payoff(w, counts), dtype=float)
        self.values = np.array(np.broadcast_to(raw, (leaves,)), dtype=float)

    def result(self) -> np.ndarray:
        if self.spec.payoff is not None and not _all_finite(self.values):
            raise NonFiniteData("terminal payoff must be finite on every leaf")
        return _read_only(self.values)


@dataclass(frozen=True)
class BarrierSpec:
    """Obstacle process specification.

    ``pieces`` lists (start_time, value) pairs of a right-continuous step
    function; the first piece must start at time 0.  ``jumps`` lists the
    declared predictable jump times together with the left-value offset
    (left limit minus right value); when omitted they are derived from
    the breakpoints of the deterministic part.
    """

    pieces: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    stochastic: ObstacleFn | None = None
    jumps: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("at least one piece is required")
        times = [t for t, _ in self.pieces]
        if times[0] != 0.0:
            raise ValueError("the first piece must start at time 0")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("piece start times must be strictly increasing")
        if any(t < 0.0 or t > 1.0 for t in times):
            raise ValueError("piece start times must lie in [0, 1]")
        if any(not np.isfinite(v) for _, v in self.pieces):
            raise ValueError("piece values must be finite")
        if self.jumps is not None:
            jt = [t for t, _ in self.jumps]
            if len(set(jt)) != len(jt):
                raise ValueError("declared jump times must be distinct")
            if any(t <= 0.0 or t > 1.0 for t in jt):
                raise ValueError("declared jump times must lie in (0, 1]")
            # a finite offset can still carry the left limit past the largest float
            if any(not np.isfinite(self.deterministic_at(t) + offset)
                   for t, offset in self.jumps):
                raise ValueError("declared jump offsets must be finite, and so must "
                                 "the left limits they give")

    @property
    def declared_jumps(self) -> tuple[tuple[float, float], ...]:
        if self.jumps is not None:
            return self.jumps
        derived = []
        for (t_prev, v_prev), (t_cur, v_cur) in zip(self.pieces, self.pieces[1:]):
            if v_prev != v_cur:
                derived.append((t_cur, v_prev - v_cur))
        return tuple(derived)

    def deterministic_at(self, t: float) -> float:
        times = [p[0] for p in self.pieces]
        idx = bisect.bisect_right(times, t) - 1
        return float(self.pieces[idx][1])


@dataclass(frozen=True, eq=False)
class BarrierValues:
    """Obstacle evaluated on a tree, with left limits at declared jumps.

    ``left[L]`` is the left limit at declared level L.  It is known at
    level L - 1 and stored there by the level rule: one value per parent,
    read through ``rbsde.tree._block_children`` or ``expand``.
    """

    values: tuple[np.ndarray, ...]
    left: Mapping[int, np.ndarray]
    jump_levels: tuple[int, ...]


def grid_level(t: float, num_steps: int) -> int:
    """Map a time to its grid level, rejecting off-grid times."""
    level = round(t * num_steps)
    if abs(t * num_steps - level) > GRID_SNAP or not 0 <= level <= num_steps:
        raise JumpTimeOffGrid(f"time {t} is not a grid point of an {num_steps}-step grid")
    return int(level)


def eval_barrier(spec: BarrierSpec, tree: ScenarioTree) -> BarrierValues:
    """An obstacle's values and declared left limits from ``evaluate``: once per tree."""
    return evaluate(tree, None, spec)[1]


class _BarrierRun:
    """An obstacle's evaluation in the state walk.

    Level k reads the state of level k.  The left limit at a declared
    level L is F_{L-1}-measurable: it reads the state of level L - 1 and
    is stored there, one value per parent, by the level rule.
    """

    def __init__(self, spec: BarrierSpec, tree: ScenarioTree) -> None:
        self.spec, self.tree = spec, tree
        self.values: list[np.ndarray] = []
        self.bad_level: int | None = None
        # the nearest levels; ``result`` rejects the times off the grid
        self.jump_levels = [round(t * tree.num_steps) for t, _ in spec.declared_jumps]
        self.left: list[np.ndarray | None] = [None] * len(self.jump_levels)

    def _level(self, t: float, base: float, k: int, w, counts) -> np.ndarray:
        size = self.tree.level_size(k)
        if self.spec.stochastic is None:
            return np.full(size, base)
        raw = np.asarray(self.spec.stochastic(t, w, counts), dtype=float)
        return np.add(base, np.broadcast_to(raw, (size,)))

    def step(self, k: int, w, counts) -> None:
        if self.bad_level is not None:
            return
        t = k / self.tree.num_steps
        values = self._level(t, self.spec.deterministic_at(t), k, w, counts)
        if not _all_finite(values):
            self.bad_level = k
            return
        self.values.append(_read_only(values))
        for j, ((t_j, offset), level) in enumerate(zip(self.spec.declared_jumps,
                                                       self.jump_levels)):
            if level == k + 1:
                base = self.spec.deterministic_at(t_j) + offset
                self.left[j] = self._level(t_j, base, k, w, counts)

    def result(self) -> BarrierValues:
        if self.bad_level is not None:
            raise NonFiniteData(f"obstacle is not finite at level {self.bad_level}")
        left: dict[int, np.ndarray] = {}
        for (t_j, _), parents in zip(self.spec.declared_jumps, self.left):
            level = grid_level(t_j, self.tree.num_steps)
            if level == 0:
                raise JumpTimeOffGrid("declared jumps at time 0 are not representable")
            if not _all_finite(parents):
                raise NonFiniteData(f"obstacle left limit is not finite at level {level}")
            left[level] = _read_only(parents)
        return BarrierValues(values=tuple(self.values), left=MappingProxyType(left),
                             jump_levels=tuple(sorted(left)))


def lipschitz_constant(driver, marks: MarkSet) -> float:
    """|a| + |b| + |c|*sqrt(sum lam) of a driver whose v term weighs the intensities of ``marks``."""
    return abs(driver.a) + abs(driver.b) + abs(driver.c) * math.sqrt(marks.total_intensity)


@dataclass(frozen=True)
class DriverSpec:
    """Driver f(t, y, z, v) = g(t) + a*y + b*z + c*sum_i v_i lam_i, lam the tree's intensities.

    ``rbsde.bsde._driver_value`` evaluates it, and the stepsize guard and
    the Picard weight read ``lipschitz_constant(driver, tree.marks)``.
    """

    base: float | Callable[[float], float] = 0.0
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    marks: MarkSet = MarkSet()

    def __post_init__(self) -> None:
        # the stepsize guard cannot certify a NaN or infinite coefficient
        if not all(np.isfinite(x) for x in (self.a, self.b, self.c)):
            raise ValueError("driver coefficients a, b and c must be finite")
        if not callable(self.base) and not np.isfinite(self.base):
            raise ValueError("a constant driver base must be finite")

    def base_at(self, t: float) -> float:
        """g(t); a callable base that gives a NaN or infinite value raises ValueError."""
        if not callable(self.base):
            return float(self.base)
        value = float(self.base(t))
        if not math.isfinite(value):
            raise ValueError(f"driver base is not finite at t = {t}: {value}")
        return value

    # ``marks`` and this property stay only for bench/worker.py, which reads the property
    @property
    def lipschitz_constant(self) -> float:
        return lipschitz_constant(self, self.marks)

    @property
    def is_coefficient_free(self) -> bool:
        return self.a == 0.0 and self.b == 0.0 and self.c == 0.0


@dataclass(frozen=True)
class ProblemSpec:
    """One solvable problem: grid (with its node cap), noise, data and obstacle(s)."""

    num_steps: int
    marks: MarkSet = MarkSet()
    terminal: TerminalSpec = TerminalSpec(constant=0.0)
    driver: DriverSpec = DriverSpec()
    barrier: BarrierSpec | None = None
    lower: BarrierSpec | None = None
    upper: BarrierSpec | None = None
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self) -> None:
        if self.barrier is not None and (self.lower is not None or self.upper is not None):
            raise ValueError("specify either one obstacle or a lower/upper pair")
        if (self.lower is None) != (self.upper is None):
            raise ValueError("two-obstacle problems need both lower and upper")

    @property
    def obstacles(self) -> tuple:
        """The obstacles present, lower first: (), (barrier,) or (lower, upper)."""
        return tuple(side for side in (self.barrier, self.lower, self.upper) if side is not None)

    @property
    def kind(self) -> str:
        return KINDS[len(self.obstacles)]

    def build_tree(self) -> ScenarioTree:
        return build_tree(self.num_steps, self.marks, node_cap=self.node_cap)


def _linear_form(intercept: float, w_coeff: float, coeffs: np.ndarray, w: np.ndarray,
                 counts: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """intercept + w_coeff*w + (counts - shift) @ coeffs, over row blocks.

    Each value takes the same float operations as the whole-level
    expression, but every temporary is one block long and stays in
    cache.  Blocks hold a multiple of 64 rows, so the matrix product keeps
    the whole level's BLAS row grouping and gives the same bits.
    """
    out = np.empty(len(w))
    for lo in range(0, len(w), _BLOCK_NODES):
        rows = slice(lo, lo + _BLOCK_NODES)
        block = np.multiply(w[rows], w_coeff, out=out[rows])
        block += intercept
        if coeffs.size:
            counted = counts[rows, :coeffs.size]
            if shift is not None:
                counted = _shift_columns(counted, shift)
            # a shifted table is this block's own, so a width-one product may overwrite it
            block += _weigh(counted, coeffs, scratch=shift is not None)
    return out


def _shift_columns(table: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Row-major ``table - shifts``, one strided pass per column.

    numpy's inner loop then runs over the rows instead of the few
    columns of a row-major broadcast.  The result stays row-major, so the
    matrix product that follows takes the same BLAS route and gives the
    same bits.
    """
    out = np.empty(table.shape)
    for j, shift in enumerate(shifts):
        np.subtract(table[:, j], shift, out=out[:, j])
    return out


def linear_payoff(intercept: float = 0.0, w_coeff: float = 0.0,
                  count_coeffs: tuple[float, ...] = ()) -> PathFn:
    """Leaf payoff intercept + w_coeff*w + sum_i count_coeffs[i]*counts_i."""
    coeffs = np.asarray(count_coeffs, dtype=float)

    def payoff(w: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return _linear_form(intercept, w_coeff, coeffs, w, counts)

    return payoff


def call_payoff(strike: float, w_coeff: float = 1.0) -> PathFn:
    def payoff(w: np.ndarray, counts: np.ndarray) -> np.ndarray:
        out = np.multiply(w, w_coeff)
        out -= strike
        return np.maximum(out, 0.0, out=out)

    return payoff


def put_payoff(strike: float, w_coeff: float = 1.0) -> PathFn:
    def payoff(w: np.ndarray, counts: np.ndarray) -> np.ndarray:
        out = np.multiply(w, w_coeff)
        np.subtract(strike, out, out=out)
        return np.maximum(out, 0.0, out=out)

    return payoff


def linear_obstacle(intercept: float = 0.0, w_coeff: float = 0.0,
                    count_coeffs: tuple[float, ...] = (),
                    compensate: MarkSet | None = None) -> ObstacleFn:
    """Obstacle part intercept + w_coeff*w + sum_i coeffs[i]*counts_i.

    With ``compensate`` set, counts enter compensated (counts_i - lam_i*t),
    which makes conditional means of linear terminal payoffs exact
    obstacle functions.
    """
    coeffs = np.asarray(count_coeffs, dtype=float)
    lam = compensate.intensity_array if compensate is not None else None

    def obstacle(t: float, w: np.ndarray, counts: np.ndarray) -> np.ndarray:
        shift = t * lam[:coeffs.size] if lam is not None else None
        return _linear_form(intercept, w_coeff, coeffs, w, counts, shift)

    return obstacle
