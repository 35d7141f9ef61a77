"""The built-in schema checker against jsonschema's draft 2020-12 validator.

``rbsde.config`` validates configurations with its own checker for the
keywords ``SCHEMA`` uses.  Here jsonschema is the reference: on mutated
configs (wrong types, dropped or added keys, out-of-range numbers, bools
in place of numbers) both must accept and reject the same documents.
Derandomised, so the suite is deterministic.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from rbsde import ConfigError
from rbsde.config import _KEYWORDS, _TYPES, SCHEMA, _first_violation, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE = Draft202012Validator(SCHEMA)
SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)

# Replacement values: wrong types, bools for numbers, integral and
# non-integral floats, boundary and out-of-range numbers, every enum value.
SUBSTITUTES = (True, False, None, "", "x", [], {}, [1.0], [[0.0, 1.0]],
               [[0.0, 1.0, 2.0]], [[0.0]], {"kind": "linear"}, {"n": 1},
               0, 1, -1, 2, 0.0, 1.0, -0.5, 1.5, 1e-300, -1e-300, 10 ** 20,
               "constant", "linear", "call", "put", "standard", "one_barrier",
               "two_barrier")
EXTRA_KEYS = ("extra", "kind", "value", "strike", "steps", "n", "pieces")


def _base_configs() -> list:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(CONFIGS.glob("*.json"))]


@st.composite
def _schema_valid(draw) -> dict:
    """A schema-valid configuration touching every section of SCHEMA."""
    # magnitudes near the largest float reach the overflow guards
    number = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                       st.sampled_from([1e308, -1e308, 1e200]))
    pieces = st.lists(st.tuples(st.floats(0.0, 1.0), number).map(list),
                      min_size=1, max_size=3)
    marks = draw(st.lists(st.fixed_dictionaries(
        {"size": number, "intensity": st.floats(0.01, 2.0)}), max_size=2))
    terminal = draw(st.one_of(
        st.fixed_dictionaries({"kind": st.just("constant"), "value": number}),
        st.fixed_dictionaries({"kind": st.just("linear")},
                              optional={"intercept": number, "w_coeff": number,
                                        "count_coeffs": st.lists(number, max_size=2)}),
        st.fixed_dictionaries({"kind": st.sampled_from(["call", "put"]), "strike": number},
                              optional={"w_coeff": number})))
    barrier = st.fixed_dictionaries({}, optional={
        "pieces": pieces, "jumps": pieces,
        "stochastic": st.fixed_dictionaries(
            {"kind": st.just("linear")},
            optional={"intercept": number, "w_coeff": number,
                      "count_coeffs": st.lists(number, max_size=2),
                      "compensated": st.booleans()})})
    config = {
        "grid": draw(st.fixed_dictionaries({"steps": st.integers(1, 6)},
                                           optional={"node_cap": st.integers(1, 10 ** 7)})),
        "terminal": terminal,
        "driver": draw(st.fixed_dictionaries({}, optional={
            "g": st.one_of(number, pieces), "a": number, "b": number, "c": number})),
        "solver": draw(st.fixed_dictionaries(
            {"kind": st.sampled_from(["standard", "one_barrier", "two_barrier"])},
            optional={"tol": st.floats(1e-14, 1e-3), "max_iter": st.integers(1, 100)})),
    }
    if marks:
        config["marks"] = marks
    # half the time the obstacle section the solver kind needs, so that
    # configs also get past parse_config's kind checks and reach a solver
    matching = {"standard": None, "one_barrier": "barrier", "two_barrier": "barriers"}
    section = draw(st.one_of(st.just(matching[config["solver"]["kind"]]),
                             st.sampled_from([None, "barrier", "barriers"])))
    if section == "barrier":
        config["barrier"] = draw(barrier)
    elif section == "barriers":
        config["barriers"] = {"lower": draw(barrier), "upper": draw(barrier)}
    return config


def _grid_pieces(draw, steps: int, lo: float, hi: float) -> list:
    """Step-function pieces from time 0 with breakpoints on the grid."""
    levels = sorted(draw(st.sets(st.integers(1, steps), max_size=2)))
    return [[level / steps, draw(st.floats(lo, hi))] for level in [0] + levels]


@st.composite
def _solvable(draw) -> dict:
    """A configuration that solve-one or solve-two takes and solves.

    Obstacle and g pieces start at 0, obstacle breakpoints lie on the
    grid, the obstacles share the terminal's state part and sit below it
    (one obstacle) or around it (a band) at the horizon, and |a|, |b|,
    |c| and the intensities keep dt*C_f below one on every grid.
    """
    steps = draw(st.integers(1, 5))
    count = draw(st.integers(0, 2))
    marks = [{"size": float(i + 1), "intensity": draw(st.floats(0.05, 0.45))}
             for i in range(count)]
    small = st.floats(-0.3, 0.3)
    state = {"w_coeff": draw(st.floats(-1.0, 1.0)),
             "count_coeffs": [draw(st.floats(-0.5, 0.5)) for _ in range(count)]}
    intercept = draw(st.floats(-2.0, 2.0))
    g = draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        times = sorted({0.0} | draw(st.sets(st.floats(0.05, 1.0), max_size=2)))
        g = [[t, draw(st.floats(-2.0, 2.0))] for t in times]
    config = {
        "grid": {"steps": steps},
        "terminal": {"kind": "linear", "intercept": intercept, **state},
        "driver": {"g": g, "a": draw(small), "b": draw(small), "c": draw(small)},
        "solver": {"kind": draw(st.sampled_from(["one_barrier", "two_barrier"]))},
    }
    if marks:
        config["marks"] = marks

    def obstacle(lo, hi, last_lo, last_hi):
        pieces = _grid_pieces(draw, steps, lo, hi)
        pieces[-1][1] = draw(st.floats(last_lo, last_hi))
        return {"pieces": pieces,
                "stochastic": {"kind": "linear", "intercept": intercept, **state}}

    if config["solver"]["kind"] == "one_barrier":
        config["barrier"] = obstacle(-1.0, 1.0, -0.5, 0.0)
    else:
        config["barriers"] = {"lower": obstacle(-1.0, -0.05, -0.5, -0.05),
                              "upper": obstacle(0.05, 1.0, 0.05, 0.5)}
    return config


def _miscounted(config: dict) -> dict:
    """A solvable configuration with one terminal count coefficient too many."""
    config["terminal"]["count_coeffs"].append(0.1)
    return config


def _generated():
    """Schema-valid configurations, a share of them solvable or solvable but for one field."""
    return st.one_of(_schema_valid(), _solvable(), _solvable().map(_miscounted))


def _locations(value, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _locations(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _locations(item, path + (i,))


def _mutate(draw, config: dict) -> dict:
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(_locations(config))))
        parent = config
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "drop", "add"] if path else ["add"]))
        new = copy.deepcopy(draw(st.sampled_from(SUBSTITUTES)))
        if action == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(EXTRA_KEYS))] = new
        elif action == "add" and isinstance(value, list):
            value.append(new)
        elif action == "drop":
            parent.pop(path[-1])
        elif path:
            parent[path[-1]] = new
    return config


@SETTINGS
@given(st.data())
def test_checker_agrees_with_jsonschema_on_mutated_configs(data):
    source = data.draw(st.one_of(st.sampled_from(_base_configs()), _generated()))
    assert _first_violation(source, SCHEMA) is None
    config = _mutate(data.draw, source)
    reference = REFERENCE.is_valid(config)
    assert (_first_violation(config, SCHEMA) is None) == reference, config
    if not reference:
        with pytest.raises(ConfigError, match=r"configuration rejected: \$"):
            parse_config(config)


def test_checker_implements_every_keyword_of_the_schema():
    def walk(schema, where):
        assert isinstance(schema, dict), where
        unknown = set(schema) - set(_KEYWORDS)
        assert not unknown, f"{where}: {sorted(unknown)}"
        names = schema.get("type", [])
        for name in [names] if isinstance(names, str) else names:
            assert name in _TYPES, f"{where}: type {name!r}"
        if "additionalProperties" in schema:
            assert schema["additionalProperties"] is False, where
        for key, sub in schema.get("properties", {}).items():
            walk(sub, f"{where}.{key}")
        if "items" in schema:
            walk(schema["items"], f"{where}[]")
        for i, branch in enumerate(schema.get("oneOf", [])):
            walk(branch, f"{where}|{i}")

    walk(SCHEMA, "$")


@pytest.mark.parametrize("value, kind, expected", [
    (1, "integer", True), (1.0, "integer", True), (1.5, "integer", False),
    (True, "integer", False), (True, "number", False), (0, "number", True),
    (None, "null", True), (False, "boolean", True), (0, "boolean", False),
])
def test_draft_2020_12_types(value, kind, expected):
    assert _TYPES[kind](value) is expected
    assert REFERENCE.TYPE_CHECKER.is_type(value, kind) is expected


# Cases SCHEMA itself cannot reach: const/enum against numbers, bools and
# containers, and oneOf alternatives that overlap.
KEYWORD_CASES = [
    ({"const": 1}, [1, 1.0, True, "1", [1]]),
    ({"const": False}, [False, 0, 0.0, None]),
    ({"const": [1, {"a": True}]}, [[1.0, {"a": True}], [1, {"a": 1}], [True, {"a": True}]]),
    ({"enum": [0, "x", None]}, [0, 0.0, False, "x", None, []]),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [1, 1.5, "1"]),
    ({"oneOf": [{"minimum": 0}, {"exclusiveMinimum": 1}]}, [0.5, 2, -1, "x"]),
    ({"type": ["number", "null"], "minItems": 1}, [None, 1, [], "x"]),
]


@pytest.mark.parametrize("schema, values", KEYWORD_CASES)
def test_keywords_agree_with_jsonschema(schema, values):
    reference = Draft202012Validator(schema)
    for value in values:
        assert (_first_violation(value, schema) is None) == reference.is_valid(value), value


@pytest.mark.parametrize("edit, path", [
    (lambda c: c["grid"].update(steps=0), "$.grid.steps"),
    (lambda c: c["grid"].update(steps=2.5), "$.grid.steps"),
    (lambda c: c["marks"][0].update(intensity=0), "$.marks[0].intensity"),
    (lambda c: c["marks"][0].update(size=True), "$.marks[0].size"),
    (lambda c: c["terminal"].pop("value"), "$.terminal.value"),
    (lambda c: c.update(terminal={"kind": "call"}), "$.terminal.strike"),
    (lambda c: c["barrier"].update(pieces=[[0.0, 1.0, 2.0]]), "$.barrier.pieces[0]"),
    (lambda c: c["driver"].update(g=[[0.0, "x"]]), "$.driver.g[0][1]"),
    (lambda c: c["solver"].update(tol=0), "$.solver.tol"),
    (lambda c: c["solver"].update(extra=1), "$.solver.extra"),
    (lambda c: c.pop("grid"), "$.grid"),
])
def test_rejection_names_the_json_path(edit, path):
    config = json.loads((CONFIGS / "counterexample.json").read_text(encoding="utf-8"))
    edit(config)
    with pytest.raises(ConfigError) as info:
        parse_config(config)
    assert str(info.value).startswith(f"configuration rejected: {path}: "), info.value


def _with_marks(config: dict, count: int) -> dict:
    config["marks"] = [{"size": 1.0 + i, "intensity": 0.5} for i in range(count)]
    return config


@pytest.mark.parametrize("config, path", [
    # a linear terminal, payoff or obstacle with one coefficient too many or too few
    ({"grid": {"steps": 1}, "terminal": {"kind": "linear", "count_coeffs": [1.6, 1.6]},
      "driver": {}, "solver": {"kind": "standard"}}, "$.terminal.count_coeffs"),
    (_with_marks({"grid": {"steps": 2}, "terminal": {"kind": "linear", "count_coeffs": []},
                  "driver": {}, "solver": {"kind": "standard"}}, 1),
     "$.terminal.count_coeffs"),
    ({"grid": {"steps": 2}, "terminal": {"kind": "constant", "value": 1.0}, "driver": {},
      "solver": {"kind": "one_barrier"},
      "barrier": {"stochastic": {"kind": "linear", "count_coeffs": [0.2]}}},
     "$.barrier.stochastic.count_coeffs"),
    (_with_marks({"grid": {"steps": 2}, "terminal": {"kind": "constant", "value": 0.0},
                  "driver": {}, "solver": {"kind": "two_barrier"},
                  "barriers": {"lower": {"pieces": [[0.0, -1.0]]},
                               "upper": {"stochastic": {"kind": "linear",
                                                        "count_coeffs": [0.1, 0.2]}}}}, 1),
     "$.barriers.upper.stochastic.count_coeffs"),
])
def test_schema_valid_configs_no_solver_takes_are_rejected(tmp_path, capsys, config, path):
    assert REFERENCE.is_valid(config)
    _assert_rejected(tmp_path, capsys, config, path)


@pytest.mark.parametrize("kind, steps", [("standard", 1), ("one_barrier", 2)])
def test_driver_penalty_is_not_in_the_schema(tmp_path, capsys, kind, steps):
    # penalize-sweep applies the penalty itself; no driver carries one
    config = {"grid": {"steps": steps}, "terminal": {"kind": "constant", "value": 1.0},
              "driver": {"penalty": {"n": 5.0}}, "solver": {"kind": kind},
              "barrier": {"pieces": [[0.0, 0.5]]}}
    assert not REFERENCE.is_valid(config)
    _assert_rejected(tmp_path, capsys, config, "$.driver.penalty")


def _assert_rejected(tmp_path, capsys, config, path):
    """parse_config and the CLI command of the config's kind reject it at ``path``."""
    from rbsde.cli import main
    with pytest.raises(ConfigError) as info:
        parse_config(config)
    assert str(info.value).startswith(f"configuration rejected: {path}: "), info.value
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config), encoding="utf-8")
    command = {"standard": "contraction-study", "one_barrier": "solve-one",
               "two_barrier": "solve-two"}[config["solver"]["kind"]]
    assert main([command, "--config", str(file), "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err
