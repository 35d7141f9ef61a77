"""Property test of the evaluation pass: each function once per level, on its distinct states.

On trees drawn up to the deep shapes (m = 0, 1, 2 marks up to N = 20,
10 and 8 steps), with linear forms (compensated or not), call and put
payoffs and declared left limits, every evaluated level and left limit
must have the bits of its function applied to the per-node state chain
``tree.states()``, each span must be the per-node NaN-keeping least and
largest value, a non-finite value must name the first level the
per-node values name, and each function must be called once per (time,
level) it is read at, on as many rows as that level has distinct states.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsde import BarrierSpec, MarkSet, NonFiniteData, TerminalSpec, build_tree
from rbsde.processes import call_payoff, evaluate, linear_obstacle, linear_payoff, put_payoff
from conftest import distinct_states

# the deepest tree under the default node cap, per mark count
DEEP = {0: 20, 1: 10, 2: 8}
NUMBERS = st.sampled_from([0.0, -0.0, 0.25, -0.3, 0.7, 1.5])


class Counted:
    """A data function that records the (time, rows) of each call and checks its input."""

    def __init__(self, fn, marks: int) -> None:
        self.fn, self.marks, self.calls = fn, marks, []

    def __call__(self, *args):
        w, counts = args[-2:]
        assert not w.flags.writeable and not counts.flags.writeable
        assert counts.shape == (len(w), self.marks)
        self.calls.append((args[0] if len(args) == 3 else None, len(w)))
        return self.fn(*args)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def level_of(t: float, steps: int) -> int:
    return round(t * steps)


@st.composite
def problems(draw, m):
    # the deep shape itself, the one below it, or any shorter grid
    steps = draw(st.sampled_from([DEEP[m], DEEP[m] - 1]) | st.integers(1, DEEP[m]))
    marks = MarkSet(sizes=tuple(1.0 + i for i in range(m)),
                    intensities=tuple(draw(st.sampled_from([0.2, 0.45])) for _ in range(m)))
    coeffs = tuple(draw(NUMBERS) for _ in range(m))
    kind = draw(st.sampled_from(["linear", "call", "put"]))
    if kind == "linear":
        payoff = linear_payoff(draw(NUMBERS), draw(NUMBERS), coeffs)
    else:
        payoff = (call_payoff if kind == "call" else put_payoff)(draw(NUMBERS), draw(NUMBERS))

    parts = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["linear", "compensated", "call", "put"]))
        if kind in ("linear", "compensated"):
            parts.append(linear_obstacle(draw(NUMBERS), draw(NUMBERS), coeffs,
                                         compensate=marks if kind == "compensated" else None))
        else:
            option = (call_payoff if kind == "call" else put_payoff)(draw(NUMBERS), draw(NUMBERS))
            parts.append(lambda t, w, counts, option=option: option(w, counts) - t)
    # each side reads one of the parts, so two sides may share one
    sides = []
    for _ in range(draw(st.integers(1, 2))):
        declared = draw(st.lists(st.integers(1, steps), max_size=3, unique=True))
        jumps = tuple((level / steps, draw(NUMBERS)) for level in sorted(declared))
        sides.append((draw(st.integers(0, len(parts) - 1)), draw(NUMBERS), jumps))
    # one example in four poisons the states of one level whose w is largest
    poison = None
    if draw(st.integers(0, 3)) == 0:
        poison = draw(st.integers(0, steps)), draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return steps, marks, payoff, parts, sides, poison


def _poisoned(part, steps, level, value):
    """``part``, but ``value`` at the states of ``level`` whose w is the level's largest.

    Every w of a level lies within one sqrt(dt) of ``level`` up-moves only
    where all of them moved up, since the next largest w is two lower.
    """
    top = (level - 1) * np.sqrt(1.0 / steps)

    def poisoned(t, w, counts):
        out = np.asarray(part(t, w, counts), dtype=float)
        return np.where((t == level / steps) & (w > top), value, out)

    return poisoned


@pytest.mark.parametrize("m", sorted(DEEP))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_each_function_is_called_once_per_level_and_fills_every_node_bit_for_bit(m, data):
    steps, marks, payoff, parts, sides, poison = data.draw(problems(m))
    tree = build_tree(steps, marks)
    if poison is not None:
        parts[0] = _poisoned(parts[0], steps, *poison)
    counted = [Counted(part, m) for part in parts]
    terminal = Counted(payoff, m)
    specs = [BarrierSpec(pieces=((0.0, base),), stochastic=counted[index], jumps=jumps)
             for index, base, jumps in sides]

    # the per-node values from the eager chain, keyed by (side, "level" or "left",
    # level), and each level's number of distinct states
    states, node_values, not_finite = [], {}, []
    for k, (w, counts) in enumerate(tree.states()):
        states.append(distinct_states(w, counts))
        for side, (index, base, jumps) in enumerate(sides):
            # level k, and the left limit at each declared level k + 1, stored on level k
            reads = [("level", k, k / steps, base)]
            reads += [("left", k + 1, t, base + offset) for t, offset in jumps
                      if level_of(t, steps) == k + 1]
            for where, level, t, total in reads:
                values = np.asarray(parts[index](t, w, counts), dtype=float)
                node_values[side, where, level] = values
                with np.errstate(over="ignore", invalid="ignore"):
                    if not np.all(np.isfinite(np.add(total, values))):
                        not_finite.append((side, where, level))
        if k == steps:
            node_values["xi"] = np.asarray(payoff(w, counts), dtype=float)

    if not_finite:
        # the first side with a non-finite value names its first level, then left limit
        side = min(side for side, _, _ in not_finite)
        named = min((where == "left", level) for s, where, level in not_finite if s == side)
        message = ("obstacle left limit" if named[0] else "obstacle") + \
            f" is not finite at level {named[1]}"
        with pytest.raises(NonFiniteData, match=f"^{message}$"):
            evaluate(tree, TerminalSpec(payoff=terminal), *specs)
        return

    xi, *evaluated = evaluate(tree, TerminalSpec(payoff=terminal), *specs)
    assert np.array_equal(_bits(xi), _bits(node_values["xi"]))
    for side, ((index, base, jumps), values) in enumerate(zip(sides, evaluated)):
        assert values.jump_levels == tuple(level_of(t, steps) for t, _ in jumps)
        reads = [("level", k, values.levels[k]) for k in range(steps + 1)]
        reads += [("left", level, values.left_levels[level]) for level in values.jump_levels]
        for where, level, stored in reads:
            part = node_values[side, where, level]
            assert np.array_equal(_bits(stored.part), _bits(part)), (where, level)
            assert np.array_equal(_bits(stored.whole()), _bits(np.add(stored.base, part)))
            assert np.array_equal(stored.span, (np.min(part), np.max(part)), equal_nan=True)

    # each function once per (time, level) it is read at, on the level's distinct states
    assert terminal.calls == [(None, states[steps])]
    for index, fn in enumerate(counted):
        reads = set()
        for side_index, _, jumps in sides:
            if side_index == index:
                reads |= {(k / steps, k) for k in range(steps + 1)}
                reads |= {(t, level_of(t, steps) - 1) for t, _ in jumps}
        assert sorted(fn.calls) == sorted((t, states[level]) for t, level in reads)
