"""Exact finite scenario trees for Brownian-plus-jump noise.

Each step of the uniform grid on [0, 1] branches over a Bernoulli
Brownian sign (+-sqrt(dt)) and a one-jump multinomial over the marks
(no jump, or exactly one mark firing), so every conditional expectation
is a finite weighted sum and the martingale identities hold to rounding
error.  The tree is homogeneous: every node has the same 2*(m+1) branch
layout, which keeps all per-level operations vectorisable.

A tree holds no per-node state.  Its size follows from the branching
alone, and the node state (Brownian value ``w`` and jump ``counts``) is
built forward from the root: ``ScenarioTree.states()`` chains whole
levels, keeping at most two alive.  ``_node_blocks`` walks any such
chain depth first, block by block, building each row once and keeping
one block per level alive.  The problem data on the tree is all the
solvers need, and ``rbsde.processes.evaluate``, its one reader, calls
each payoff and obstacle function once per level, on that level's
distinct states, not on its nodes: a function reading ``len(w)`` or a
row's position is outside its contract.  It then fills the levels along
one such walk of state codes (``Lattice.fill``).

Grids.  The backward sweep (``rbsde.bsde._backward_sweep``) reads a grid
through ``num_steps``, ``branching``, ``level_size`` and
``children(values_next, level, rows)``.  The tree is one, node by node.
Its ``Lattice`` is the other: one row per distinct node state of a level
and a (rows, B) table of the rows the branches lead to.  The direct solve
of data with states sweeps the lattice, a few hundred rows a level where
the tree has millions of nodes, and keeps its solution there: a
``StateLevels`` forms a node level of Y, or of a compensator summed along
the path, on read.  Node probabilities are built per level on first read
by ``atom_prob``, which serves the weighted sums of ``expectation``; the
node checker walks them with ``_node_blocks`` instead and reads no
``atom_prob`` level, and the per-state checker sums state masses.

Level rule for compensators.  A process is a list of level arrays, and
a level array may be shorter than its level: then it holds the values
of the ancestor level ``j`` where the process was last set, and node
``i`` of level ``k`` reads ``arr[i // B**(k - j)]``.  A compensator
increment assigned at level k is F_k-measurable, so K_{k+1} is stored
as a level-k array, and only where K moves: an increment level without
mass (every value ±0.0; a NaN is mass) is never allocated, and K_{k+1}
is then K_k's own array, stored at its ancestor level.  That is exact:
K starts at +0.0 and is never -0.0, so K + (±0.0) is K bit for bit, NaN
included.  The jump-type part K_d follows the same rule: it is set only
at the obstacle's declared jump levels where it has mass, and shared by
the levels after them.  So a level of K and one of K_d, or the same
level of two processes, may be stored at different ancestor levels;
``_lined_up`` pairs the stored values of the coarser with the groups of
the finer one they hold for, so ``sup_diff``, ``_max_excess`` and
``rbsde.bsde.ContinuousPart`` compare them without expanding either.  Two
readers cover every use: ``_block_rows`` (the rows of a parent block)
and ``expand`` (a whole level); ``ScenarioTree.expectation`` weighs such
an array without expanding it.  Whole-level arrays are the case ``j = k``, so processes
built level by level in full read the same way.  No solver stores the
continuous part K_c = K - K_d: ``rbsde.bsde.ContinuousPart`` forms a
level of it on each read, lining each stored value of the coarser of K
and K_d up with the values of the finer one it holds for, and the
checker forms a block's rows of it from the rows these readers give of
K and K_d.

Width-one products.  A one-mark tree makes (rows, 1) @ (1,) matrix
products, and a BLAS call costs several times the multiply it does.
``_weigh`` computes them as ``rows[:, 0] * w[0]`` followed by
``+= 0.0``: BLAS adds the product into a zeroed result, so a -0.0
product comes back +0.0, and the added zero gives the same bits.
"""

from __future__ import annotations

import bisect
import math
import threading
import weakref
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleIntensity, TreeTooLarge

DEFAULT_NODE_CAP = 5_000_000

# Child nodes per block of the level kernels: 2**16 float64 values are
# 512 KiB per array, so a block's few live arrays stay in a 2-4 MiB L2
# cache instead of streaming whole deep levels from memory once per clause.
_BLOCK_NODES = 1 << 16
# Parents per block are a multiple of this, so every block starts at the
# same memory alignment and BLAS row grouping as the whole level would.
_BLOCK_ALIGN = 64

# An adapted process is a list of per-level arrays (index 0 = root).  A
# level array shorter than its level is stored at the ancestor level where
# it was last set (the level rule in the module docstring).
Process = list


@dataclass(frozen=True)
class MarkSet:
    """Finite set of jump marks: size labels plus arrival intensities."""

    sizes: tuple[float, ...] = ()
    intensities: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.intensities):
            raise ValueError("one intensity per mark size is required")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError("mark sizes must be distinct")
        if any(not np.isfinite(s) for s in self.sizes):
            raise ValueError("mark sizes must be finite")
        if any(lam <= 0.0 or not np.isfinite(lam) for lam in self.intensities):
            raise ValueError("mark intensities must be positive and finite")

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def total_intensity(self) -> float:
        return float(sum(self.intensities))

    @cached_property
    def intensity_array(self) -> np.ndarray:
        """The intensities as one read-only float array, made on first read."""
        lam = np.asarray(self.intensities, dtype=float)
        lam.flags.writeable = False
        return lam


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Non-recombining tree encoding the filtration of both noises.

    Level k holds ``n_k = branching**k`` nodes (the atoms of F_{t_k}); the
    children of node ``i`` at the next level occupy the contiguous slice
    ``i*branching : (i+1)*branching``, so child ``i*B + b`` is node ``i``
    followed along branch ``b``.  Branch ``b`` carries a Brownian sign
    (+ for b < m+1, - otherwise) and a jump outcome (``b % (m+1)``, 0
    meaning no jump, j > 0 meaning mark j-1 fires).

    The tree keeps no per-node array: ``states()`` yields the node state
    ``(w[k], counts[k])`` level by level, and ``w`` and ``counts`` are
    tuples of every level, built from it on each read and not kept.
    Every level array is C-contiguous float64: ``w[k]`` and
    ``atom_prob[k]`` have shape ``(n_k,)``, ``counts[k]`` has shape
    ``(n_k, m)``.  The level kernels reshape them into ``(parents, B)``
    views and rely on this layout.  ``atom_prob`` is an
    ``AtomProbabilities`` sequence, which builds a level, and any missing
    level below it, on first read and keeps them.
    """

    num_steps: int
    marks: MarkSet
    dt: float
    branch_prob: np.ndarray   # (B,) transition probabilities, summing to 1
    branch_db: np.ndarray     # (B,) Brownian increments +-sqrt(dt)
    branch_jump: np.ndarray   # (B, m) jump indicators per mark
    branch_comp: np.ndarray   # (B, m) compensated increments 1[jump=i] - lam_i dt
    atom_prob: AtomProbabilities       # unconditional probability of each node

    @cached_property
    def branching(self) -> int:
        return 2 * (self.marks.count + 1)

    @cached_property
    def _level_sizes(self) -> tuple[int, ...]:
        return tuple(self.branching ** k for k in range(self.num_steps + 1))

    @property
    def node_count(self) -> int:
        return sum(self._level_sizes)

    def level_size(self, level: int) -> int:
        return self._level_sizes[level]

    def states(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Read-only ``(w[k], counts[k])`` for k = 0 .. N, one level built per step.

        Each level is made from the one before it and neither is kept, so
        at most two levels are alive while the next one is built.
        """
        state = _frozen(_state_root(self))
        for k in range(self.num_steps + 1):
            if k:
                state = _frozen(_state_step(self, *state))
            yield state

    @property
    def w(self) -> tuple[np.ndarray, ...]:
        """Cumulative Brownian value per node and level, built on each read."""
        return tuple(w for w, _ in self.states())

    @property
    def counts(self) -> tuple[np.ndarray, ...]:
        """Cumulative jump counts per node and level, (n_k, m), built on each read."""
        return tuple(counts for _, counts in self.states())

    def children(self, values_next: np.ndarray, level: int, rows: slice) -> np.ndarray:
        """(rows, B) view of the child values below the ``rows`` parents of ``level``."""
        return _children(self, values_next, rows)

    def time(self, level: int) -> float:
        return level / self.num_steps

    def cond_exp(self, values_next: np.ndarray) -> np.ndarray:
        """Conditional expectation of child values, node by node; a child holds one value."""
        values_next = np.asarray(values_next, dtype=float)
        # a table of several values per child does not fit this shape, and raises
        parents = len(values_next) // self.branching
        return values_next.reshape(parents, self.branching) @ self.branch_prob

    def expectation(self, level: int, values: np.ndarray,
                    out: np.ndarray | None = None) -> float:
        """Probability-weighted sum of node values over one level.

        Every whole-level weighted sum in the package comes from here.  It
        multiplies and then adds with numpy's pairwise reduction, whose
        order depends on the length alone: a BLAS dot product splits the
        sum by thread count, so output bytes would depend on
        ``OPENBLAS_NUM_THREADS``.  ``values`` may be stored at an ancestor
        level by the level rule: each stored value is weighted by the
        probabilities of the nodes that read it, so the products and their
        sum are those of the expanded level without expanding it.  ``out``,
        a whole level, receives the products in place of a fresh array; it
        may be ``values`` itself.
        """
        prob = self.atom_prob[level]
        ratio = _ratio(self, values, level)
        if ratio == 1:
            return float(np.add.reduce(np.multiply(prob, values, out=out)))
        # node i*ratio + r reads values[i]: the products expand() would give
        if out is None:
            out = np.empty(len(prob))
        np.multiply(prob.reshape(-1, ratio), np.asarray(values)[:, None],
                    out=out.reshape(-1, ratio))
        return float(np.add.reduce(out))

    def constant(self, value: float) -> Process:
        return [np.full(self.level_size(k), float(value)) for k in range(self.num_steps + 1)]

    def zero_adapted(self) -> Process:
        return self.constant(0.0)

    def zero_predictable(self) -> Process:
        return [np.zeros(self.level_size(k)) for k in range(self.num_steps)]

    def zero_marked(self) -> Process:
        return [np.zeros((self.level_size(k), self.marks.count)) for k in range(self.num_steps)]


def build_tree(num_steps: int, mark_set: MarkSet | None = None,
               node_cap: int = DEFAULT_NODE_CAP) -> ScenarioTree:
    """Construct the scenario tree for a uniform grid with ``num_steps`` steps.

    Raises InfeasibleIntensity when the per-step jump probability mass
    reaches one, and TreeTooLarge when the full node count would exceed
    ``node_cap``.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be at least 1")
    marks = mark_set if mark_set is not None else MarkSet()
    m = marks.count
    jump_prob = marks.intensity_array / num_steps
    total_jump = float(jump_prob.sum())
    if total_jump >= 1.0:
        raise InfeasibleIntensity(
            f"per-step jump probability {total_jump:.6g} >= 1 "
            f"(total intensity {marks.total_intensity:.6g}, {num_steps} steps)")

    branching = 2 * (m + 1)
    # level sizes are summed only until they pass the cap, so a huge grid
    # never forms its exact node count
    nodes, size = 0, 1
    for _ in range(num_steps + 1):
        nodes += size
        if nodes > node_cap:
            raise TreeTooLarge(f"more than {node_cap} nodes: the grid passes the node cap")
        size *= branching

    dt = 1.0 / num_steps
    outcome_prob = np.concatenate(([1.0 - total_jump], jump_prob))
    prob = 0.5 * np.tile(outcome_prob, 2)
    prob = prob / prob.sum()  # node-local renormalisation

    root = np.sqrt(dt)
    db = np.repeat([root, -root], m + 1)
    jump = np.zeros((branching, m))
    for i in range(m):
        jump[1 + i, i] = 1.0
        jump[m + 2 + i, i] = 1.0
    comp = jump - jump_prob[None, :]

    return ScenarioTree(num_steps=num_steps, marks=marks, dt=dt,
                        branch_prob=prob, branch_db=db,
                        branch_jump=jump, branch_comp=comp,
                        atom_prob=AtomProbabilities(prob, num_steps))


class AtomProbabilities(Sequence):
    """Unconditional node probabilities per level, each level built on first read.

    Level k + 1 is ``_branch_pass(np.multiply, level k, branch_prob)``, the
    chain an eager build runs, so every level has the same bits whenever it
    is built.  Reading level k builds it and the missing levels below it,
    and keeps them.  Builds hold a lock, so threads sharing a tree never
    append one level twice; reads of built levels take none.
    """

    def __init__(self, branch_prob: np.ndarray, num_steps: int) -> None:
        self._prob = branch_prob
        self._levels = [np.ones(1)]
        self._size = num_steps + 1
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, level):
        level = range(self._size)[level]   # IndexError past either end, like a tuple
        if level >= len(self._levels):
            with self._lock:
                while len(self._levels) <= level:
                    self._levels.append(
                        _branch_pass(np.multiply, self._levels[-1], self._prob))
        return self._levels[level]


def _branch_pass(op, parents: np.ndarray, per_branch: np.ndarray) -> np.ndarray:
    """Child level ``op(parents[i], per_branch[b])`` at ``i*B + b``.

    One strided pass per branch, so numpy's inner loop runs over the
    parents rather than the B branches of a row-major broadcast.
    """
    out = np.empty((len(parents), len(per_branch)))
    for b, value in enumerate(per_branch):
        op(parents, value, out=out[:, b])
    return out.ravel()


def _count_pass(parents: np.ndarray, branching: int) -> np.ndarray:
    """Child jump counts: each parent row repeated B times, plus one on a firing mark.

    Branches 1+i and m+2+i fire mark i (the branch layout in ``ScenarioTree``);
    every other count is copied, which is what adding a zero indicator gave.
    """
    n, m = parents.shape
    if not m:  # np.repeat would still walk every zero-width row
        return np.empty((n * branching, 0))
    out = np.repeat(parents, branching, axis=0)
    table = out.reshape(n, branching, m)
    for i in range(m):
        table[:, 1 + i, i] += 1.0
        table[:, m + 2 + i, i] += 1.0
    return out


def _parent_rows(tree: ScenarioTree) -> int:
    """Parent rows per slice: a multiple of _BLOCK_ALIGN with about _BLOCK_NODES children."""
    return max(_BLOCK_ALIGN, _BLOCK_NODES // tree.branching // _BLOCK_ALIGN * _BLOCK_ALIGN)


def _parent_blocks(tree: ScenarioTree, level: int) -> list[slice]:
    """Contiguous parent slices of ``level`` holding about _BLOCK_NODES children each.

    ``tree`` is the tree or its ``Lattice``.  A last slice of one row joins
    the slice before it: BLAS takes a product of one row with other
    kernels than a longer one, whose last bits can differ, and a state's
    row must have its nodes' bits.  No level of a tree ends in such a
    slice (B**k is never 1 modulo a multiple of ``_BLOCK_ALIGN``), so only
    a lattice's can, and a slice holds at most ``_parent_rows`` + 1 rows.
    """
    step = _parent_rows(tree)
    size = tree.level_size(level)
    bounds = [*range(0, size, step), size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _state_root(tree: ScenarioTree) -> tuple[np.ndarray, np.ndarray]:
    """The root's ``(w, counts)``: no Brownian move and no jump yet."""
    return np.zeros(1), np.zeros((1, tree.marks.count))


def _state_step(tree: ScenarioTree, w: np.ndarray,
                counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(w, counts)`` of the children of some parent rows."""
    return _branch_pass(np.add, w, tree.branch_db), _count_pass(counts, tree.branching)


def _prob_step(tree: ScenarioTree, level: int, prob: np.ndarray) -> tuple[np.ndarray]:
    """Node probabilities of the children of some parent rows, as ``atom_prob`` builds them."""
    return (_branch_pass(np.multiply, prob, tree.branch_prob),)


def _frozen(arrays: tuple) -> tuple:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _node_blocks(tree: ScenarioTree, last: int, roots: tuple, step,
                 seal=_frozen) -> Iterator[tuple]:
    """Read-only ``(level, rows, *values)`` for every block of levels 0 .. ``last``.

    ``step(tree, level, *parents)`` makes the children of some parent rows
    of ``level`` of the chains that start at ``roots``, elementwise, so
    every value has the bits of the whole-level chain.  A level of at most
    ``_parent_rows`` rows is built whole and not kept.  The level below the
    last such level comes in ``_parent_blocks`` slices (``_split``), and
    below each slice the walk goes depth first through the children of
    each ``_parent_rows`` slice.  So each row is built once, one block per level is alive, no
    level larger than one parent slice is alive whole, and a level's blocks
    come left to right, each a ``_parent_blocks`` slice, the children of
    one or the whole level: aligned on ``_BLOCK_ALIGN``, at most
    ``_BLOCK_NODES`` rows.  ``seal`` takes each block's values:
    ``_frozen`` makes them read-only.  A walk whose values only its caller
    reads, such as the row codes of ``Lattice.fill``, passes ``tuple`` and
    keeps them writeable: ``take`` copies indices that are read-only.
    """
    level, values = 0, seal(roots)
    yield level, slice(0, 1), *values
    while level < last and tree.level_size(level + 1) <= _parent_rows(tree):
        level, values = level + 1, seal(step(tree, level, *values))
        yield level, slice(0, tree.level_size(level)), *values
    if level == last:
        return
    for start, block in _split(tree, level, values, step, seal):
        yield level + 1, slice(start, start + len(block[0])), *block
        if level + 1 < last:
            yield from _descend(tree, last, level + 1, start, block, step, seal)


def _split(tree: ScenarioTree, level: int, values: tuple, step, seal) -> Iterator[tuple]:
    """``(start, children)`` of the children of a whole ``level``, in ``_parent_blocks`` slices.

    Each slice steps only the parents the slices before it did not.  A
    parent whose children straddle the end of a slice (B does not divide
    ``_parent_rows``) hands the rows past it to the next slice, so each
    row is built once.
    """
    width = _parent_rows(tree)
    size = len(values[0]) * tree.branching
    done, carry = 0, None
    for start in range(0, size, width):
        stop = min(start + width, size)
        need = -(-stop // tree.branching)
        children = step(tree, level, *(v[done:need] for v in values))
        if carry is not None and len(carry[0]):
            children = tuple(np.concatenate(pair) for pair in zip(carry, children))
        done, cut = need, stop - start
        carry = tuple(c[cut:] for c in children)
        yield start, seal(tuple(c[:cut] for c in children))


def _descend(tree: ScenarioTree, last: int, level: int, start: int, values: tuple,
             step, seal) -> Iterator[tuple]:
    """The blocks of ``_node_blocks`` below one block of ``level`` that starts at row ``start``.

    A module-level function that takes the tree: a closure that called
    itself would hold itself through its cell, a reference cycle that
    keeps the tree, and the evaluations memoised on it, alive until the
    cyclic collector runs.
    """
    width = _parent_rows(tree)
    for lo in range(0, len(values[0]), width):
        children = seal(step(tree, level, *(v[lo:lo + width] for v in values)))
        first = (start + lo) * tree.branching
        yield level + 1, slice(first, first + len(children[0])), *children
        if level + 1 < last:
            yield from _descend(tree, last, level + 1, first, children, step, seal)
        del children   # not alive while the next slice's children are built


def _children(tree: ScenarioTree, values_next: np.ndarray, parents: slice) -> np.ndarray:
    """(parents, B) view of the child values below a parent slice."""
    start, stop, _ = parents.indices(len(values_next) // tree.branching)
    return values_next[start * tree.branching:stop * tree.branching].reshape(-1, tree.branching)


class _Nodes:
    """The node counts of a tree's levels: all ``Lattice.fill`` reads of the tree.

    A lattice keeps this in place of its tree, so nothing that fills node
    levels from a lattice keeps the tree, or the data evaluated on it, alive.
    """

    def __init__(self, branching: int) -> None:
        self.branching = branching

    def level_size(self, level: int) -> int:
        return self.branching ** level


class Lattice:
    """The distinct node states of levels 0 .. ``num_steps`` of a tree: a grid of the sweep.

    Level k has one row per distinct node state of the tree's level k (a
    state is keyed by the bits of ``w`` and its counts, as
    ``rbsde.processes`` builds them), and ``child[k]`` is a (rows, B) intp
    table: entry (s, b) is the row of level k + 1 that branch b of state s
    leads to.  Its codes index with no conversion, so a gather by them
    makes no copy of them.  A node's state fixes its whole subtree, so data
    that are functions of the state, and the Y and compensator increments a
    direct solve derives from them, have one value per row.  With
    ``ScenarioTree`` it shares what ``rbsde.bsde._backward_sweep`` reads of
    a grid: ``num_steps``, ``branching``, ``level_size`` and ``children``.
    Every state of a level occurs at it, so a level's least or largest
    value, or whether it has a value that is not ±0.0, is its nodes' own.
    ``fill`` expands values per row to the nodes of the tree: a lattice
    holds no reference to its tree, only its node counts (``_Nodes``), so
    ``rbsde.processes`` can keep one per depth in a table weakly keyed by
    the tree.
    """

    def __init__(self, child: Sequence[np.ndarray], sizes: Sequence[int], branching: int) -> None:
        self.child, self._sizes, self.branching = tuple(child), tuple(sizes), branching
        self.num_steps = len(self.child)
        self._nodes = _Nodes(branching)

    def level_size(self, level: int) -> int:
        return self._sizes[level]

    def children(self, values_next: np.ndarray, level: int, rows: slice) -> np.ndarray:
        """(rows, B) table of the values of the children of some ``rows`` of ``level``, gathered."""
        return values_next[self.child[level][rows]]

    def _child_codes(self, tree, level: int, codes: np.ndarray) -> tuple:
        """A ``_node_blocks`` step: the rows of the children of some nodes of ``level``."""
        return (self.child[level].take(codes, axis=0, mode="clip").ravel(),)

    def fill(self, levels: Sequence[int], values: Sequence, outs: Sequence) -> None:
        """Fill node arrays from values per row: ``outs[j]`` is level ``levels[j]`` of the tree.

        ``levels`` is in nondecreasing order and ``outs[j]`` has one value
        per node.  ``values[j]`` has one value per row of that level of the
        lattice, or, at a level k > 0, is a (rows of level k - 1, B) table
        of one value per parent row and branch.  Each node gets its row's
        (or its parent row's and branch's) value, bits and all.  Level 0 is
        one node and one row.  Every deeper level is gathered from a
        (parent rows, B) table of its values by the row codes of each block
        of parents that one ``_node_blocks`` walk yields, so the codes of
        the deepest level filled are never built.  The codes are intp and
        writeable, so no ``take`` copies them.  The arrays are taken as
        flat lists, not grouped per level, so a fill makes few Python
        objects besides its tables.
        """
        if not outs:
            return
        branching, last = self.branching, levels[-1]
        # the arrays of level k are outs[first[k]:first[k + 1]]
        first = [bisect.bisect_left(levels, k) for k in range(last + 2)]
        tables = [values[j] if k == 0 or values[j].ndim == 2 else values[j][self.child[k - 1]]
                  for j, k in enumerate(levels)]
        for j in range(first[1]):
            outs[j][...] = tables[j]
        root = (np.zeros(1, dtype=np.intp),)
        walk = (_node_blocks(self._nodes, last - 1, root, self._child_codes, seal=tuple)
                if last else ())
        for k, rows, codes in walk:
            children = slice(rows.start * branching, rows.stop * branching)
            for j in range(first[k + 1], first[k + 2]):
                # the codes are rows of the table by construction: "clip" writes in place
                tables[j].take(codes, axis=0, out=outs[j][children].reshape(-1, branching),
                               mode="clip")


class StateLevels(Sequence):
    """A process on a tree's nodes kept per ``Lattice`` row, each node level formed on read.

    ``values[j]`` gives level j of the process: one value per row of the
    lattice's level ``j - lag``, a (rows of level j - lag - 1, B) table of
    one value per parent row and branch, or None.  Each node of the tree's
    level ``j - lag`` takes its state's value (``Lattice.fill``).  Without
    ``sums`` these are the levels themselves.  With ``sums`` they are the
    steps of a sum along the path, in the level rule of this module: level
    0 is +0.0, and level j is level j - 1 plus step j, added by
    ``_accumulate`` and stored at level j - lag, or level j - 1's array
    where the step is None.  So a compensator keeps K's increments with
    ``lag`` 1 (K_{k+1} is known at level k) and K_d's jump masses as
    tables with ``lag`` 0, and every level read has the bits and the
    storage the solver's node arrays would have.

    No edit reaches the values per row.  A read of one level forms that
    level alone, or for a sum the levels before it too, as a fresh array
    the caller may edit.  Iterating forms every level in one walk, a level
    of a sum without mass being its predecessor's array, as on the nodes;
    these arrays are read-only, and while one of them is held a read of
    its level returns it rather than forming it again, so a caller that
    iterates and then indexes, as ``np.concatenate`` does, forms each level
    once, and an edit of a level so shared raises rather than reaching
    another reader.  The
    lattice keeps no tree, so neither does this: it holds nothing of the
    data evaluated on the tree.
    """

    def __init__(self, lattice: Lattice, values: Sequence, *, sums: bool = False,
                 lag: int = 0) -> None:
        self.lattice, self.values, self.sums, self.lag = lattice, list(values), sums, lag
        self._held: list = []   # weak references to the levels the last iteration formed

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, level):
        if isinstance(level, slice):
            return list(self)[level]
        level = range(len(self))[level]   # negative levels, and IndexError past the last
        held = self._held[level]() if self._held else None
        if held is not None:
            return held
        return self._levels(level + 1, 0 if self.sums else level)[level]

    def __iter__(self) -> Iterator[np.ndarray]:
        levels = self._levels(len(self))
        for level in levels:
            level.setflags(write=False)
        self._held = [weakref.ref(level) for level in levels]
        return iter(levels)

    def _levels(self, count: int, first: int = 0) -> Process:
        """Levels ``first`` .. ``count`` - 1 (the others None), formed by one fill."""
        given = [j for j in range(max(first, self.sums), count) if self.values[j] is not None]
        at = [j - self.lag for j in given]
        outs = [np.empty(self.lattice._nodes.level_size(k)) for k in at]
        self.lattice.fill(at, [self.values[j] for j in given], outs)
        levels: list = [None] * count
        for j, out in zip(given, outs):
            levels[j] = out
        return _accumulate(levels[1:]) if self.sums else levels


def _ratio(tree: ScenarioTree, values: np.ndarray, level: int) -> int:
    """Nodes of ``level`` per stored value: B**(level - j) for an array set at level j."""
    size = tree.level_size(level)
    ratio = size // max(len(values), 1)
    if ratio < 1 or ratio * len(values) != size:
        raise ValueError(f"{len(values)} values cannot hold level {level} "
                         f"of {size} nodes")
    return ratio


def _block_rows(tree: ScenarioTree, values: np.ndarray, level: int,
                rows: slice) -> np.ndarray:
    """Values of the ``rows`` nodes of ``level`` from an array stored by the level rule.

    Each stored value is repeated for the rows of the block that read it,
    so an array set far above the level gives a block, not a whole level.
    """
    ratio = _ratio(tree, values, level)
    if ratio == 1:
        return values[rows]
    start, stop, _ = rows.indices(tree.level_size(level))
    first, last = start // ratio, (stop - 1) // ratio
    runs = np.full(last - first + 1, ratio)
    runs[0] -= start - first * ratio
    runs[-1] -= (last + 1) * ratio - stop
    return np.repeat(values[first:last + 1], runs, axis=0)


def expand(tree: ScenarioTree, values: np.ndarray, level: int) -> np.ndarray:
    """Whole ``level`` of an array stored by the level rule.

    A whole-level array comes back as it is, not copied.  An array set at
    an earlier level also expands to any later level it is shared with.
    """
    ratio = _ratio(tree, values, level)
    return values if ratio == 1 else np.repeat(values, ratio, axis=0)


def terminal_mean(tree: ScenarioTree, process: Process) -> float:
    """E[X_N] of a process whose last level is stored by the level rule."""
    return tree.expectation(tree.num_steps, process[-1])


def _accumulate(increments: Process) -> Process:
    """Cumulative process K_0 = 0, K_{k+1} = K_k + increments[k], by the level rule.

    The increment assigned at level k is known there, so K_{k+1} is a
    level-k array: the increment plus its parent's K_k, added into the
    increment arrays themselves (callers that keep them pass copies).  An
    increment level without mass is None, and K_{k+1} is K_k's own array:
    K is never -0.0, so adding ±0.0 would give its bits back.
    """
    total: Process = [np.zeros(1)]
    for inc in increments:
        if inc is not None:
            table = inc.reshape(len(total[-1]), -1)
            np.add(table, total[-1][:, None], out=table)
        total.append(total[-1] if inc is None else inc)
    return total


def _weigh(rows: np.ndarray, weights: np.ndarray, scratch: bool = False) -> np.ndarray:
    """``rows @ weights`` bit for bit, a width of one as one multiply.

    A (rows, 1) @ (1,) product costs a BLAS call several times the
    multiply it does.  BLAS adds each product into a zeroed result, so a
    -0.0 product comes back +0.0; the ``+= 0.0`` does the same.  With
    ``scratch`` the caller gives ``rows`` up, and a width-one product is
    written over its column instead of into a fresh array.
    """
    if len(weights) != 1:
        return rows @ weights
    column = rows[:, 0]
    out = np.multiply(column, weights[0], out=column if scratch else None)
    out += 0.0
    return out


def _worst(*values: float) -> float:
    """Largest value, or NaN if any value is NaN.

    Python's ``max`` keeps its first argument unless a later one compares
    greater, so a NaN that is not first would drop out and a gap or
    residual on non-finite data would read as small.
    """
    worst = max(values)
    return worst if all(v == v for v in values) else math.nan


def _lined_up(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of one level, stored at ancestor levels by the level rule, as operands.

    Arrays of one length come back as they are.  Otherwise the finer one
    becomes a (groups, group, ...) table and the coarser one a (groups, 1,
    ...) column, each of its values against the group of the finer one's
    values it holds for: an operation of the two broadcasts into the
    finer one's storage, with the bits of the expanded levels and without
    expanding either.
    """
    if len(a) == len(b):
        return a, b
    if len(a) < len(b):
        return a[:, None], b.reshape(len(a), -1, *b.shape[1:])
    return a.reshape(len(b), -1, *a.shape[1:]), b[:, None]


def _reduce_blocks(reduce, op, a: np.ndarray, b: np.ndarray) -> float:
    """``reduce(op(a, b))`` over blocks of about ``_BLOCK_NODES`` values, NaN kept.

    ``a`` and ``b`` may be stored at different ancestor levels
    (``_lined_up``).  No whole-level temporary is formed.  A minimum or
    maximum is exact, so the result is the whole-level one bit for bit.
    """
    group = max(len(a), len(b)) // max(min(len(a), len(b)), 1)
    a, b = _lined_up(a, b)
    step = max(1, _BLOCK_NODES // group)
    return float(reduce([reduce(op(a[i:i + step], b[i:i + step]))
                         for i in range(0, len(a), step)]))


def _all_finite(values: np.ndarray) -> bool:
    """Exact finiteness test, from one sum in the common case.

    A finite sum means every value is finite; only a sum that is NaN or
    overflows falls back to the element-wise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return bool(np.isfinite(total)) or bool(np.all(np.isfinite(values)))


def _self_gap(a: np.ndarray) -> float:
    """max(a - a) over a level both operands share: 0.0, or NaN if a value is not finite.

    ``inf - inf`` and NaN - NaN are NaN and every other self-difference is
    0.0, so one read of the level gives the subtracting pass's answer.
    """
    return 0.0 if _all_finite(a) else math.nan


def _abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = np.subtract(a, b)
    return np.abs(diff, out=diff)


def sup_diff(p: Process, q: Process) -> float:
    """Largest absolute node-wise gap between two per-level processes (NaN kept).

    The two arrays of a level may be stored at different ancestor levels
    by the level rule (``_lined_up``); the gap is the expanded levels' own.
    """
    worst = 0.0
    for a, b in zip(p, q):
        shared = a is b
        a, b = np.asarray(a), np.asarray(b)
        if a.size:
            gap = _self_gap(a) if shared else _reduce_blocks(np.max, _abs_diff, a, b)
            worst = _worst(worst, gap)
    return worst


def _max_excess(p: Process, q: Process) -> float:
    """Largest node-wise excess ``p - q`` over the levels of two processes (NaN kept).

    Levels are lined up by the level rule as in ``sup_diff``.
    """
    worst = 0.0
    for a, b in zip(p, q):
        if len(a):
            gap = _self_gap(a) if a is b else _reduce_blocks(np.max, np.subtract, a, b)
            worst = _worst(worst, gap)
    return worst


def copy_process(p: Process) -> Process:
    return [np.array(level, dtype=float, copy=True) for level in p]
