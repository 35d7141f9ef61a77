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
nodes or levels apart is outside this contract.  The specs a tree has
not seen are evaluated together in one walk (``_walk``), which builds
each level's table of distinct states from the one before it
(``_States``: 43 states on the leaf level of the m=0, N=20 tree, 253 at
m=1, N=10 and 765 at m=2, N=8), goes only as deep as the last level
some spec reads, and calls each function on its level's table.  Each
declared left limit is a function of its parent level's states and is
kept there.  The walk keeps these values per state, their extremes and
its refusals, and opens no node array (``_Walk``).  The state tables
are kept with the tree and only ever grow, so a state's code never
changes.  There are two readers, and both walk what the tree has not
seen: ``_on_lattice`` hands a direct solve, and the check of its
solution, the tree's ``Lattice`` and the problem's data on it, one
value per state, so neither forms a node level of the data; and
``evaluate`` gives the data on the nodes, to every other route.  The
first node read of a walk's data fills every node level of it, by
gathering from the tables along a depth first walk of state codes (one
``rbsde.tree.Lattice.fill``), and the walk keeps them.  A walk that
refuses its data keeps none of its values.

An evaluated obstacle level is its deterministic base, one float, plus a
read-only array of its stochastic part, on the nodes or per state, or no
array where there is none (``ObstacleLevel``): a reader forms a block as
``np.add(base, part[rows])``, or a whole level with ``whole``, the
addition that once filled a stored level, so every value keeps its
bits.  The walk evaluates each distinct (stochastic part, time, level)
once, so the two sides of a band whose parts are equal
(``LinearObstacle`` compares by value, bit for bit) keep one copy of it,
per state and on the nodes.  A linear form that reads no t is keyed
without it (``_Parts.slot``), so a linear terminal payoff and a
time-free obstacle part with the same numbers, which give the same leaf
bits, share one array too.  The state tables are read-only, and every
evaluated part is a fresh array, so a function that returns or keeps its
input cannot change a later level or a memoised result.
``eval_barrier`` and ``TerminalSpec.evaluate`` read one item through
``evaluate``.

Each part's NaN-keeping least and largest value is taken on its state
table (``ObstacleLevel.span``), and the finiteness tests read these and
no node level: every state of a table occurs at its level, so the
table's extremes are the level's.

Next to each terminal whose leaf level ``evaluate`` formed, the tree
keeps its last backward step (``LastStep``), which only the sweeps that
store Z and V fill: Z_{N-1} and V_{N-1} of the first such sweep, and
E[xi | F_{N-1}] from the second on, which every later sweep of it reads
instead of projecting xi again.  A direct solve of a ``TerminalSpec``
sweeps the lattice of states and neither reads nor keeps it; one of a
terminal array reads what is kept and keeps nothing.  A terminal array
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

# tree -> {id(spec): (spec, walk, index)}: the ``_Walk`` that evaluated the
# spec and its place among that walk's specs.  Trees hash by identity and the
# entry keeps its spec alive, so an id cannot be reused while it is cached; a
# walk holds no tree, so the whole table goes with the tree.
_EVALUATED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# tree -> {id(xi): LastStep} for each terminal whose leaf level ``evaluate``
# formed on the tree.  Each entry keeps its xi alive, so an id cannot be reused
# while it is kept; the whole table goes with the tree.
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
    """(xi, *obstacle values) of a problem's data on the nodes of ``tree``.

    A ``TerminalSpec`` or ``BarrierSpec`` gives its evaluation, memoised
    per tree and read-only; the specs not yet evaluated on the tree are
    evaluated together in one walk (``_walk``), and the first node read of
    a walk's data forms every node level of it (``_Walk.nodes``).
    ``BarrierValues`` and None pass through, and a terminal array must
    hold one value per leaf.
    """
    per_tree = _kept(tree, (*obstacles, terminal))

    def on_nodes(spec):
        _, walk, index = per_tree[id(spec)]
        return walk.nodes(tree)[index]

    values = []
    for obstacle in obstacles:
        if isinstance(obstacle, BarrierSpec):
            obstacle = on_nodes(obstacle)
        elif not (obstacle is None or isinstance(obstacle, BarrierValues)):
            raise TypeError("expected a BarrierSpec or pre-evaluated BarrierValues")
        values.append(obstacle)
    if isinstance(terminal, TerminalSpec):
        terminal = on_nodes(terminal)
    elif terminal is not None:
        terminal = np.asarray(terminal, dtype=float)
        if terminal.shape != (tree.level_size(tree.num_steps),):
            raise ValueError("terminal array must hold one value per leaf")
        if not _all_finite(terminal):
            raise NonFiniteData("terminal payoff must be finite on every leaf")
    return (terminal, *values)


def _on_lattice(tree: ScenarioTree, terminal, *obstacles):
    """``(lattice, (xi, *obstacle values))``: a problem's data on the tree's states.

    The lattice is the tree's ``Lattice`` of levels 0 .. N.  The specs are
    walked as ``evaluate`` walks them, with the same refusals, and their
    values are read from the walk's tables, one value per state, so no
    node level is formed.  A terminal comes back as its values per leaf
    state, and an obstacle as ``BarrierValues`` whose levels, and whose
    left limits, are each its base over its part's values per state: a
    left limit is on the states of its parent level, as on the nodes.
    None where some datum is the caller's own, a terminal array or
    ``BarrierValues``: such data have no states.
    """
    if not all(spec is None or isinstance(spec, (TerminalSpec, BarrierSpec))
               for spec in (terminal, *obstacles)):
        return None
    per_tree = _kept(tree, (*obstacles, terminal))
    lattice = _states(tree).lattice(tree, tree.num_steps)

    def on_states(spec):
        if spec is None:
            return None
        _, walk, index = per_tree[id(spec)]
        return walk.runs[index].result(walk.tables, walk.spans, lattice.level_size)

    return lattice, (on_states(terminal), *map(on_states, obstacles))


def _kept(tree: ScenarioTree, specs) -> dict:
    """The tree's memo, once it holds every ``TerminalSpec`` and ``BarrierSpec`` of ``specs``.

    The specs not in it yet are walked together, in the order of
    ``specs``; a walk that refuses its data raises, and keeps nothing.
    Threads that walk one spec at once each make a walk, and the memo
    keeps the first one stored.
    """
    per_tree = _EVALUATED.setdefault(tree, {})
    missing = list({id(spec): spec for spec in specs
                    if isinstance(spec, (TerminalSpec, BarrierSpec))
                    and id(spec) not in per_tree}.values())
    if missing:
        walk = _walk(tree, missing)
        for index, spec in enumerate(missing):
            per_tree.setdefault(id(spec), (spec, walk, index))
    return per_tree


class _Parts:
    """The stochastic parts one walk evaluates: each distinct (function, time, level) once.

    A function is keyed by ``(fn, t)``, or by its ``fill_key(t)`` where it
    has one: a linear form's numbers, with t only where it reads t, so a
    payoff and an obstacle part that give the same bits share a part.  A
    function that cannot be hashed is keyed by its identity.  Each part
    has a slot, numbered in the order the parts are asked for, and
    ``calls[slot]`` is its level and its function of ``(w, counts)``.
    """

    def __init__(self) -> None:
        self.slots: dict = {}
        self.calls: list[tuple] = []

    def slot(self, fn, level: int, t: float | None = None) -> int:
        """The slot of ``fn(t, w, counts)`` on ``level``, or of ``fn(w, counts)`` with ``t`` None."""
        key = (fn.fill_key(t) if hasattr(fn, "fill_key") else (fn, t), level)
        try:
            hash(key)
        except TypeError:
            key = (id(fn), t, level)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.calls)
            self.calls.append((level, fn if t is None else functools.partial(fn, t)))
        return slot


class _Walk:
    """One walk's evaluation of its specs, kept per state; node levels formed on first read.

    ``runs[i]`` is the evaluation of the walk's i-th spec, whose stochastic
    parts are slots: slot s is one function on level ``levels[s]``,
    ``tables[s]`` its read-only values per distinct state and ``spans[s]``
    their NaN-keeping (least, largest) value.  ``nodes`` gives each spec's
    values on the nodes; ``_on_lattice`` reads ``runs`` over the tables.
    A walk holds no tree, so the memo that keeps it goes with the tree.
    """

    def __init__(self, runs: list, levels: list, tables: list, spans: list) -> None:
        self.runs, self.levels, self.tables, self.spans = runs, levels, tables, spans
        self._nodes: list | None = None
        self._lock = threading.Lock()

    def nodes(self, tree: ScenarioTree) -> list:
        """Each spec's evaluation on the nodes of ``tree``, the tree this walk walked.

        The first read opens a node array for each slot and fills them all
        from the tables by one gather along a depth first walk of state
        codes (``rbsde.tree.Lattice.fill``), level by level; the arrays are
        read-only, and two specs that read one part share its array.  Each
        terminal's leaf level gets its ``LastStep``.  Later reads, on any
        thread, return what the first one kept.
        """
        with self._lock:
            if self._nodes is None:
                outs = [np.empty(tree.level_size(k)) for k in self.levels]
                order = sorted(range(len(outs)), key=self.levels.__getitem__)
                if order:
                    lattice = _states(tree).lattice(tree, max(self.levels))
                    lattice.fill(*([values[s] for s in order]
                                   for values in (self.levels, self.tables, outs)))
                parts = [_read_only(out) for out in outs]
                nodes = [run.result(parts, self.spans, tree.level_size) for run in self.runs]
                for run, xi in zip(self.runs, nodes):
                    if isinstance(run, _TerminalRun):
                        _LAST_STEPS.setdefault(tree, {}).setdefault(id(xi), LastStep(xi))
                self._nodes = nodes
            return self._nodes


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


def _walk(tree: ScenarioTree, specs) -> _Walk:
    """The ``_Walk`` of ``specs``: each function called once per level, on its distinct states.

    Specs that read one function at one time on one level share its slot
    (``_Parts``).  Each such function is called once, on the level's table
    of distinct states (``_States``), levels in order, and the walk keeps
    these tables and their extremes; it opens no node array.  It goes only
    as deep as the last level some part reads, so a walk with no part
    builds no state.  Each spec's errors are raised after the pass, in the
    order of ``specs``, from the tables' extremes; an overflow on the way
    warns nothing, since the results' finiteness is tested.  A refused
    walk is not handed out, so it keeps nothing.
    """
    n = tree.num_steps
    parts = _Parts()
    runs = [(_TerminalRun if isinstance(spec, TerminalSpec) else _BarrierRun)(spec, n, parts)
            for spec in specs]
    levels = [k for k, _ in parts.calls]
    tables: list = [None] * len(levels)
    spans: list = [None] * len(levels)
    if levels:
        states = _states(tree)
        states.lattice(tree, max(levels))   # builds the state tables down to the last level read
        for s in sorted(range(len(levels)), key=levels.__getitem__):
            k, fn = parts.calls[s]
            values = tables[s] = _read_only(_table(fn, *states.tables[k]))
            # np.min and np.max keep a NaN; every state of a table occurs at its level
            spans[s] = (float(np.min(values)), float(np.max(values)))
    for run in runs:
        run.check(spans)
    return _Walk(runs, levels, tables, spans)


def _table(fn, w: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``fn(w, counts)`` on one level's distinct states, as one contiguous float row per state.

    The array is always a fresh one, the walk's own: a function may keep,
    and later change, the array it returns, while the memo keeps these
    tables and the first node read fills the levels from them.
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
    """A terminal's evaluation in the walk: the leaf level alone, a slot or a constant."""

    def __init__(self, spec: TerminalSpec, n: int, parts: _Parts) -> None:
        self.spec, self.n = spec, n
        self.slot = None if spec.payoff is None else parts.slot(spec.payoff, n)

    def check(self, spans: list) -> None:
        if self.slot is not None and not all(map(math.isfinite, spans[self.slot])):
            raise NonFiniteData("terminal payoff must be finite on every leaf")

    def result(self, parts: list, spans: list, size: Callable[[int], int]) -> np.ndarray:
        """The leaf values in ``parts`` (node arrays or tables per state), read-only.

        A constant is formed in a fresh array of ``size(N)`` values.
        """
        if self.slot is None:
            return _read_only(np.full(size(self.n), float(self.spec.constant)))
        return parts[self.slot]


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
    """One level of an evaluated obstacle, ``size`` values of ``base + part``, one per node or state.

    ``base`` is the deterministic part, one float.  ``part`` is the
    read-only array of the stochastic part, one value per node or per
    state, shared by every obstacle of the walk that reads the same part
    at the same time, or None where there is none.  ``span`` is the
    part's NaN-keeping (least, largest) value, taken by the walk on its
    states.
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



def _finite_sum(base: float, span: tuple[float, float] | None) -> bool:
    """Whether base + part is finite at every node, ``span`` the part's extremes (None: no part).

    Both can be finite while their sum is not.  Rounding is monotone, so
    base + part is finite exactly where base plus its largest and base
    plus its smallest value are (a NaN or infinite part gives a NaN or
    infinite extreme): no sum is formed, and no level is read.
    """
    if span is None:
        return math.isfinite(base)
    return all(math.isfinite(base + x) for x in span)


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
    is stored there, one value per parent, by the level rule.  Each level
    is kept as ``(base, slot, k)``, the slot None without a stochastic
    part.
    """

    def __init__(self, spec: BarrierSpec, n: int, parts: _Parts) -> None:
        self.spec, self.n = spec, n
        self.levels = [self._level(parts, k / n, spec.deterministic_at(k / n), k)
                       for k in range(n + 1)]
        self.left: list[tuple | None] = []
        for t, offset in spec.declared_jumps:
            level = round(t * n)   # the nearest level; ``check`` rejects a time off the grid
            self.left.append(self._level(parts, t, spec.deterministic_at(t) + offset, level - 1)
                             if 1 <= level <= n else None)

    def _level(self, parts: _Parts, t: float, base: float, k: int) -> tuple:
        """``(base, slot, k)`` of level ``k``: ``base`` plus the stochastic part at ``t``."""
        stochastic = self.spec.stochastic
        return base, None if stochastic is None else parts.slot(stochastic, k, t), k

    def check(self, spans: list) -> None:
        def finite(base, slot, k):
            return _finite_sum(base, None if slot is None else spans[slot])

        for k, level in enumerate(self.levels):
            if not finite(*level):
                raise NonFiniteData(f"obstacle is not finite at level {k}")
        for (t_j, _), parents in zip(self.spec.declared_jumps, self.left):
            level = grid_level(t_j, self.n)
            if level == 0:
                raise JumpTimeOffGrid("declared jumps at time 0 are not representable")
            if not finite(*parents):
                raise NonFiniteData(f"obstacle left limit is not finite at level {level}")

    def result(self, parts: list, spans: list, size: Callable[[int], int]) -> BarrierValues:
        """The obstacle over ``parts`` (node arrays or tables per state), level k of ``size(k)`` values."""
        def level(base, slot, k):
            if slot is None:
                return ObstacleLevel(base, None, size(k))
            return ObstacleLevel(base, parts[slot], size(k), spans[slot])

        left = {k + 1: level(base, slot, k) for base, slot, k in self.left}
        return BarrierValues(tuple(level(*level_k) for level_k in self.levels),
                             MappingProxyType(left), tuple(sorted(left)))


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
