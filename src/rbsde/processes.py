"""Problem data evaluated on the tree: terminals, drivers and obstacles.

Obstacles are split into a piecewise-constant deterministic part (whose
breakpoints are the declared predictable jump times) and an optional
stochastic part driven by the node state.  Left limits at declared jump
times are recorded explicitly, because the split of the reflection
compensator into continuous-type and jump-type mass needs them.

Terminals and obstacles are evaluated once per tree: ladders, Picard
rounds, envelope recursions and checks solve repeatedly on one tree with
the same data, so the evaluations are memoised per (tree, spec) and
handed out read-only.  Payoff and obstacle functions must therefore be
pure, and row-wise in the state: row i of the output depends only on
row i of ``(w, counts)``.  A function is called once per level it is
read on, with that level's distinct states, one row each, not with its
nodes; a function that reads ``len(w)`` or a row's position to tell
nodes or levels apart is outside this contract.  ``evaluate`` is the one
reader: it gives a problem's terminal and obstacles on a tree,
evaluating every spec the tree has not seen in one pass.  The pass
builds each level's table of distinct states from the one before it
(``_States``: 43 states on the leaf level of the m=0, N=20 tree, 253 at
m=1, N=10 and 765 at m=2, N=8), goes only as deep as the last level
some spec reads, calls each function on its level's table, and then
fills every level array by gathering from these tables along a depth
first walk of state codes (``rbsde.tree.Lattice.fill``).  Each
declared left limit is a function of its parent level's states and is
stored there.  The state tables are kept with the tree and only ever
grow, so a state's code never changes, and the memo keeps each spec's
values per state with its evaluation: ``_on_lattice`` hands a direct
solve, and the check of its solution, the tree's ``Lattice`` and the
problem's data on it, one value per state.  A walk that refuses its data keeps none of its values.

An evaluated obstacle level is its deterministic base, one float, plus a
read-only level array of its stochastic part, or no array where there is
none (``ObstacleLevel``): a reader forms a block as ``np.add(base,
part[rows])``, or a whole level with ``whole``, the addition that once
filled a stored level, so every value keeps its bits.  The pass
evaluates each distinct (stochastic part, time, level) once, so the two
sides of a band whose parts are equal (``LinearObstacle`` compares by
value, bit for bit) keep one copy of it.  A linear form that reads no t
is keyed without it (``_Fills.part``), so a linear terminal payoff and a
time-free obstacle part with the same numbers, which give the same leaf
bits, share one array too.  The state tables are read-only, and every
evaluated part is a fresh array, so a function that returns or keeps its
input cannot change a later level or a memoised result.
``eval_barrier`` and ``TerminalSpec.evaluate`` read one item through
``evaluate``.

Each part's NaN-keeping least and largest value is taken on its state
table (``ObstacleLevel.span``), and the finiteness tests read these and
no stored level: every state of a table occurs at its level, so the
table's extremes are the level's.

Next to each evaluated terminal the tree keeps its last backward step
(``LastStep``), which only the sweeps that store Z and V fill: Z_{N-1}
and V_{N-1} of the first such sweep, and E[xi | F_{N-1}] from the second
on, which every later sweep of it reads instead of projecting xi again.
A direct solve of a ``TerminalSpec`` sweeps the lattice of states and
neither reads nor keeps it; one of a terminal array reads what is kept
and keeps nothing.  A terminal array
that ``evaluate`` did not make is projected on every sweep: its caller
may change it between solves.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import JumpTimeOffGrid, NonFiniteData
from .tree import (DEFAULT_NODE_CAP, Lattice, MarkSet, ScenarioTree, _all_finite, _frozen,
                   _state_root, _state_step, _weigh, build_tree)

# Terminal payoffs see the leaf state; obstacle functions also see time,
# so that conditional-mean processes with compensator drift are exact.
PathFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
ObstacleFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

GRID_SNAP = 1e-9

# A problem's kind, indexed by its number of obstacles (``ProblemSpec.obstacles``).
KINDS = ("standard", "one_barrier", "two_barrier")

# tree -> {id(spec): (spec, evaluated, on_states)}: ``on_states`` is the
# spec's values per distinct state (the ``on_states`` of its run).  Trees hash by
# identity and the entry keeps its spec alive, so an id cannot be reused
# while it is cached; the whole table goes with the tree.
_EVALUATED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# tree -> {id(xi): LastStep} for each terminal evaluated on the tree.  Each
# entry keeps its xi alive, so an id cannot be reused while it is kept; the
# whole table goes with the tree.
_LAST_STEPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# tree -> its ``_States``, which go with the tree.
_STATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class LastStep:
    """The last backward step of an evaluated terminal xi, shared by every sweep of xi.

    ``zv`` is the pair (Z_{N-1}, V_{N-1}) of the first sweep that stores
    Z and V, frozen read-only, and ``mean`` is E[xi | F_{N-1}], kept from
    the second such sweep on; each is None until then.  They depend on xi and the tree alone, and
    xi is read-only, so ``rbsde.bsde._backward_sweep`` reads them in place
    of projecting xi again.  Sweeps on several threads may each fill an
    entry; every fill has the same bits, so whichever is kept serves alike.
    """

    def __init__(self, xi: np.ndarray) -> None:
        self.xi = xi
        self.zv: tuple[np.ndarray, np.ndarray] | None = None
        self.mean: np.ndarray | None = None


def _last_step(tree: ScenarioTree, xi) -> LastStep | None:
    """The ``LastStep`` of ``xi`` where ``evaluate`` made it on ``tree``, else None."""
    last = _LAST_STEPS.get(tree, {}).get(id(xi))
    return last if last is not None and last.xi is xi else None


def evaluate(tree: ScenarioTree, terminal, *obstacles) -> tuple:
    """(xi, *obstacle values) of a problem's data on ``tree``.

    A ``TerminalSpec`` or ``BarrierSpec`` gives its evaluation, memoised
    per tree and read-only; the specs not yet evaluated on the tree are
    evaluated together in one pass (``_walk``).  ``BarrierValues``
    and None pass through, and a terminal array must hold one value per
    leaf.
    """
    per_tree = _EVALUATED.setdefault(tree, {})
    missing = list({id(spec): spec for spec in (*obstacles, terminal)
                    if isinstance(spec, (TerminalSpec, BarrierSpec))
                    and id(spec) not in per_tree}.values())
    if missing:
        for spec, (evaluated, on_states) in zip(missing, _walk(tree, missing)):
            per_tree[id(spec)] = (spec, evaluated, on_states)
            if isinstance(spec, TerminalSpec):
                _LAST_STEPS.setdefault(tree, {}).setdefault(id(evaluated), LastStep(evaluated))
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


class _Fills:
    """The level arrays one walk fills: each distinct (function, time, level) once.

    A function is keyed by ``(fn, t)``, or by its ``fill_key(t)`` where it
    has one: a linear form's numbers, with t only where it reads t, so a
    payoff and an obstacle part that give the same bits share an array.
    A function that cannot be hashed is keyed by its identity.  Once the
    walk is done, ``spans[id(array)]`` is an array's NaN-keeping (least,
    largest) value and ``tables[id(array)]`` its read-only values per
    distinct state.
    """

    def __init__(self, tree: ScenarioTree) -> None:
        self.tree = tree
        self.parts: dict = {}
        self.levels: list[list] = [[] for _ in range(tree.num_steps + 1)]
        self.spans: dict = {}
        self.tables: dict = {}

    def part(self, fn, level: int, t: float | None = None) -> np.ndarray:
        """``fn(t, w, counts)`` on ``level``, or ``fn(w, counts)`` with ``t`` None."""
        key = (fn.fill_key(t) if hasattr(fn, "fill_key") else (fn, t), level)
        try:
            hash(key)
        except TypeError:
            key = (id(fn), t, level)
        out = self.parts.get(key)
        if out is None:
            out = self.parts[key] = np.empty(self.tree.level_size(level))
            self.levels[level].append((fn if t is None else functools.partial(fn, t), out))
        return out


class _States:
    """The distinct node states of a tree's levels, kept with the tree and grown on demand.

    ``tables[k]`` is level k's read-only ``(w, counts)``, one row per
    distinct state.  It is built from level k - 1's table alone, with the
    float operations of ``_state_step``, so each row has the bits of the
    node chain.  A state is keyed by the int64 view of ``w`` and its integer
    counts, so +0.0 and -0.0 stay apart.  ``child[k]`` is a (states, B)
    intp table: entry (s, b) is the code, the row of ``tables[k + 1]``,
    of branch b's child of state s.  Every state of a table occurs at its
    level, since each is a child of one that does.  Levels are only ever
    added, so a code means one state for the tree's lifetime, and values
    per state that one walk made serve every later solve on the tree.
    The ``Lattice`` of each depth asked for is kept as well.

    The keys go through a dict, not ``np.unique``: a first sort in the
    process would page in numpy's sort kernels, about 0.7 MB of resident
    memory, for a few thousand keys per level.
    """

    def __init__(self, tree: ScenarioTree) -> None:
        self.tables = [_frozen(_state_root(tree))]
        self.child: list[np.ndarray] = []
        self._lattices: dict[int, Lattice] = {}
        self._lock = threading.Lock()

    def lattice(self, tree: ScenarioTree, last: int) -> Lattice:
        """The ``Lattice`` of levels 0 .. ``last``, building the levels not built yet; kept."""
        with self._lock:   # threads sharing a tree never add a level twice
            lattice = self._lattices.get(last)
            if lattice is not None:
                return lattice
            while len(self.child) < last:
                w, counts = _state_step(tree, *self.tables[-1])
                codes: dict = {}
                keys = zip(w.view(np.int64).tolist(), *counts.astype(np.int64).T.tolist())
                child = np.fromiter((codes.setdefault(key, len(codes)) for key in keys),
                                    dtype=np.intp, count=len(w))
                # the rows of one code are one state, so any of them will do
                rows = np.empty(len(codes), dtype=np.intp)
                rows[child] = np.arange(len(w))
                self.tables.append(_frozen((w[rows], counts[rows])))
                self.child.append(child.reshape(-1, tree.branching))
            sizes = [len(w) for w, _ in self.tables[:last + 1]]
            lattice = self._lattices[last] = Lattice(self.child[:last], sizes, tree.branching)
            return lattice


def _states(tree: ScenarioTree) -> _States:
    """The ``_States`` kept with ``tree``."""
    states = _STATES.get(tree)
    return _STATES.setdefault(tree, _States(tree)) if states is None else states


def _walk(tree: ScenarioTree, specs) -> list:
    """``(evaluation, values per state)`` of each of ``specs``: each function once per level.

    Every level array is opened first, whole; specs that read one
    function at one time on one level share its array.  Each such
    function is called once, on the level's table of distinct states
    (``_States``).  The level arrays are then filled by gathers from
    these small tables along one walk of state codes (``Lattice.fill``).
    The walk goes only as deep as the last level some array reads, so a
    walk with nothing to fill builds no state.  Each spec's errors are raised after
    the pass, in the order of ``specs``, from the tables' extremes; an
    overflow on the way warns nothing, since the results' finiteness is
    tested.  Only once every spec has passed are the values per state
    handed out (``on_states``), so a refused walk keeps nothing.
    """
    fills = _Fills(tree)
    runs = [_TerminalRun(spec, tree, fills) if isinstance(spec, TerminalSpec)
            else _BarrierRun(spec, tree, fills) for spec in specs]
    read = [k for k, level in enumerate(fills.levels) if level]
    if read:
        states = _states(tree)
        lattice = states.lattice(tree, read[-1])
        levels, tables, outs = [], [], []
        for k, level in enumerate(fills.levels):
            for fn, out in level:
                values = fills.tables[id(out)] = _read_only(_table(fn, *states.tables[k]))
                # np.min and np.max keep a NaN; every state of a table occurs at its level
                fills.spans[id(out)] = (float(np.min(values)), float(np.max(values)))
                levels.append(k)
                tables.append(values)
                outs.append(out)
        lattice.fill(levels, tables, outs)
    for level in fills.levels:
        for _, out in level:
            _read_only(out)
    results = [run.result(fills) for run in runs]
    return [(result, run.on_states(fills)) for result, run in zip(results, runs)]


def _on_lattice(tree: ScenarioTree, specs: tuple, values: tuple):
    """``(lattice, values on it)``: ``evaluate``'s ``values`` of ``specs`` on the tree's states.

    The lattice is the tree's ``Lattice`` of levels 0 .. N, and the values
    per state are those ``evaluate`` kept with each spec.  A terminal
    comes back as its values per leaf state, and an obstacle as
    ``BarrierValues`` whose levels, and whose left limits, are each the
    same base over its part's values per state: a left limit is on the
    states of its parent level, as on the nodes.  None where some spec is
    the caller's own data, a terminal array or ``BarrierValues``: such
    data have no states.
    """
    if not all(spec is None or isinstance(spec, (TerminalSpec, BarrierSpec)) for spec in specs):
        return None
    n = tree.num_steps
    lattice = _states(tree).lattice(tree, n)
    per_tree = _EVALUATED[tree]

    def on_rows(level, part, k):
        return ObstacleLevel(level.base, part, lattice.level_size(k), level.span)

    out = []
    for spec, value in zip(specs, values):
        on_states = None if spec is None else per_tree[id(spec)][2]
        if isinstance(spec, TerminalSpec):
            value = (np.full(lattice.level_size(n), float(spec.constant))
                     if on_states is None else on_states)
        elif value is not None:
            parts, left_parts = on_states
            levels = tuple(on_rows(level, part, k)
                           for k, (level, part) in enumerate(zip(value.levels, parts)))
            left = {k: on_rows(value.left_levels[k], left_parts[k], k - 1)
                    for k in value.jump_levels}
            value = BarrierValues(levels, MappingProxyType(left), value.jump_levels)
        out.append(value)
    return lattice, out


def _table(fn, w: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``fn(w, counts)`` on one level's distinct states, as one contiguous float row per state.

    The array is always a fresh one, the walk's own: a function may keep,
    and later change, the array it returns, while the walk fills the
    levels from these tables after every function has been called, and
    the memo keeps them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(fn(w, counts), dtype=float)
    return np.array(np.broadcast_to(values, w.shape))


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
        if self.constant is not None and not np.isfinite(self.constant):
            raise ValueError("a constant terminal must be finite")

    def evaluate(self, tree: ScenarioTree) -> np.ndarray:
        """Leaf values from ``evaluate``: computed once per tree, read-only."""
        return evaluate(tree, self)[0]


class _TerminalRun:
    """A terminal's evaluation in the walk: the leaf level alone."""

    def __init__(self, spec: TerminalSpec, tree: ScenarioTree, fills: _Fills) -> None:
        self.spec = spec
        n = tree.num_steps
        if spec.constant is not None:
            self.values = np.full(tree.level_size(n), float(spec.constant))
        else:
            self.values = fills.part(spec.payoff, n)

    def result(self, fills: _Fills) -> np.ndarray:
        if self.spec.payoff is not None and not all(map(math.isfinite,
                                                        fills.spans[id(self.values)])):
            raise NonFiniteData("terminal payoff must be finite on every leaf")
        return _read_only(self.values)

    def on_states(self, fills: _Fills) -> np.ndarray | None:
        """The payoff's values per leaf state, or None for a constant."""
        return None if self.spec.payoff is None else fills.tables[id(self.values)]


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
class ObstacleLevel:
    """One level of an evaluated obstacle, ``size`` nodes of ``base + part``.

    ``base`` is the deterministic part, one float.  ``part`` is the
    read-only array of the stochastic part, shared by every obstacle of
    the walk that reads the same part at the same time, or None where there
    is none.  ``span`` is the part's NaN-keeping (least, largest) value,
    taken by the walk that filled it.
    """

    base: float
    part: np.ndarray | None
    size: int
    span: tuple[float, float] | None = None

    def rows(self, index, out: np.ndarray | None = None):
        """``np.add(base, part[index], out=out)``, or the base alone without a part.

        ``index`` is a slice of rows, or ``(rows, None)`` for a column to
        read against the (parents, B) children of those rows.  Without
        ``out`` the block is a fresh array, which the reader may write to.
        """
        return self.base if self.part is None else np.add(self.base, self.part[index], out=out)

    def whole(self) -> np.ndarray:
        """The whole level, a fresh array formed on read."""
        if self.part is None:
            return np.full(self.size, self.base)
        return np.add(self.base, self.part)

    def finite(self) -> bool:
        """Whether base + part is finite at every node; both can be finite while it is not.

        Rounding is monotone, so base + part is finite exactly where base
        plus its largest and base plus its smallest value are (a NaN or
        infinite part gives a NaN or infinite extreme): no sum is formed,
        and no level is read.
        """
        if self.part is None:
            return math.isfinite(self.base)
        return all(math.isfinite(self.base + x) for x in self.span)


class BarrierValues:
    """Obstacle evaluated on a tree, with left limits at declared jumps.

    A level is base + part: ``levels[k]`` is level k as an
    ``ObstacleLevel``, whose ``rows`` is the one reader of a block and
    whose ``whole`` forms the level for a reader that takes it whole.  A
    walk evaluates each distinct (stochastic part, time, level) once, so a
    band whose sides have equal parts keeps one copy of them, and a
    deterministic level is one number.  ``left_levels[L]`` is the left
    limit at declared level L.  It is known at level L - 1 and stored
    there, one value per parent: ``left_levels[L].rows((rows, None))``
    reads it against the (parents, B) children of the ``rows`` of level
    L - 1.  ``jump_levels`` lists the declared levels in order.
    """

    def __init__(self, levels: tuple, left_levels: Mapping, jump_levels: tuple) -> None:
        self.levels, self.left_levels, self.jump_levels = levels, left_levels, jump_levels


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
    """An obstacle's evaluation in the walk.

    Level k reads the states of level k.  The left limit at a declared
    level L is F_{L-1}-measurable: it reads the states of level L - 1 and
    is stored there, one value per parent, by the level rule.
    """

    def __init__(self, spec: BarrierSpec, tree: ScenarioTree, fills: _Fills) -> None:
        self.spec, self.tree = spec, tree
        n = tree.num_steps
        self.levels = [self._level(fills, k / n, spec.deterministic_at(k / n), k)
                       for k in range(n + 1)]
        self.left: list[tuple | None] = []
        for t, offset in spec.declared_jumps:
            level = round(t * n)   # the nearest level; ``result`` rejects a time off the grid
            self.left.append(self._level(fills, t, spec.deterministic_at(t) + offset, level - 1)
                             if 1 <= level <= n else None)

    def _level(self, fills: _Fills, t: float, base: float, k: int) -> tuple:
        """``(base, part, size)`` of level ``k``: ``base`` plus the stochastic part at ``t``."""
        stochastic = self.spec.stochastic
        part = None if stochastic is None else fills.part(stochastic, k, t)
        return base, part, self.tree.level_size(k)

    def result(self, fills: _Fills) -> BarrierValues:
        def obstacle_level(base, part, size):
            return ObstacleLevel(base, part, size, fills.spans.get(id(part)))

        levels = tuple(obstacle_level(*level) for level in self.levels)
        for k, level in enumerate(levels):
            if not level.finite():
                raise NonFiniteData(f"obstacle is not finite at level {k}")
        left: dict[int, ObstacleLevel] = {}
        for (t_j, _), parents in zip(self.spec.declared_jumps, self.left):
            level = grid_level(t_j, self.tree.num_steps)
            if level == 0:
                raise JumpTimeOffGrid("declared jumps at time 0 are not representable")
            parents = obstacle_level(*parents)
            if not parents.finite():
                raise NonFiniteData(f"obstacle left limit is not finite at level {level}")
            left[level] = parents
        return BarrierValues(levels, MappingProxyType(left), tuple(sorted(left)))

    def on_states(self, fills: _Fills) -> tuple:
        """Each level's stochastic part per distinct state, and each declared left limit's.

        A part is None where there is none; the left limits are keyed by
        their declared level.
        """
        def on_states(part):
            return None if part is None else fills.tables[id(part)]

        left = {grid_level(t_j, self.tree.num_steps): on_states(parents[1])
                for (t_j, _), parents in zip(self.spec.declared_jumps, self.left)}
        return tuple(on_states(part) for _, part, _ in self.levels), left


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
    """intercept + w_coeff*w + (counts - shift) @ coeffs."""
    out = np.multiply(w, w_coeff)
    out += intercept
    if coeffs.size:
        counted = counts[:, :coeffs.size]
        if shift is not None:
            counted = counted - shift
        # a shifted table is this call's own, so a width-one product may overwrite it
        out += _weigh(counted, coeffs, scratch=shift is not None)
    return out


def linear_payoff(intercept: float = 0.0, w_coeff: float = 0.0,
                  count_coeffs: tuple[float, ...] = ()) -> PathFn:
    """Leaf payoff intercept + w_coeff*w + sum_i count_coeffs[i]*counts_i."""
    return LinearPayoff(LinearObstacle(intercept, w_coeff, tuple(count_coeffs)))


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


@dataclass(frozen=True, eq=False)
class LinearObstacle:
    """Obstacle part intercept + w_coeff*w + sum_i count_coeffs[i]*(counts_i - rates_i*t).

    Without ``rates`` the counts enter uncompensated.  Two parts compare
    equal, and hash alike, when their numbers agree bit for bit, so they
    give the same bits and a tree evaluates them once: the two sides of a
    band built from one conditional mean share its levels.
    """

    intercept: float
    w_coeff: float
    count_coeffs: tuple[float, ...]
    rates: tuple[float, ...] | None = None

    def _bits(self) -> tuple:
        numbers = (self.intercept, self.w_coeff, *self.count_coeffs)
        rates = None if self.rates is None else tuple(float(r).hex() for r in self.rates)
        return tuple(float(x).hex() for x in numbers), rates

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearObstacle) and self._bits() == other._bits()

    def __hash__(self) -> int:
        return hash(self._bits())

    def fill_key(self, t: float | None) -> tuple:
        """The key a walk fills it under: its numbers, and its rates and t where it reads t.

        A part that compensates no counts is t-free: it has the key of the
        ``LinearPayoff`` of the same numbers, which gives the same bits.
        """
        numbers, rates = self._bits()
        return (numbers, rates, t) if rates is not None and self.count_coeffs else (numbers,)

    def __call__(self, t: float, w: np.ndarray, counts: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(self.count_coeffs, dtype=float)
        shift = None
        if self.rates is not None:
            shift = t * np.asarray(self.rates, dtype=float)[:coeffs.size]
        return _linear_form(self.intercept, self.w_coeff, coeffs, w, counts, shift)


@dataclass(frozen=True)
class LinearPayoff:
    """The leaf payoff of a ``LinearObstacle`` without rates: ``form`` at any t.

    It reads no t, so a walk keys it by its form's numbers and fills one
    array for it and for a t-free obstacle part of the same numbers.
    """

    form: LinearObstacle

    def __call__(self, w: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return self.form(1.0, w, counts)

    def fill_key(self, t: None) -> tuple:
        return self.form.fill_key(t)


def linear_obstacle(intercept: float = 0.0, w_coeff: float = 0.0,
                    count_coeffs: tuple[float, ...] = (),
                    compensate: MarkSet | None = None) -> LinearObstacle:
    """Obstacle part intercept + w_coeff*w + sum_i coeffs[i]*counts_i.

    With ``compensate`` set, counts enter compensated (counts_i - lam_i*t),
    which makes conditional means of linear terminal payoffs exact
    obstacle functions.
    """
    rates = None if compensate is None else tuple(compensate.intensities)
    return LinearObstacle(intercept, w_coeff, tuple(count_coeffs), rates)
