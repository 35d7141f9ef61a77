"""JSON problem configurations: schema, validation and construction.

``SCHEMA`` is a JSON Schema (draft 2020-12) document, and configurations
are validated against it by a small built-in checker that implements
exactly the keywords the schema uses (``_KEYWORDS``).  A rejected
configuration raises ``ConfigError`` with a message that names the JSON
path of the offending value, such as ``$.grid.steps`` or
``$.marks[0].intensity``.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError
from .processes import (BarrierSpec, DriverSpec, MarkSet, ProblemSpec, TerminalSpec,
                        call_payoff, linear_obstacle, linear_payoff, put_payoff)

_PATH_FN_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {"kind": {"const": "constant"}, "value": {"type": "number"}},
            "required": ["kind", "value"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "linear"},
                "intercept": {"type": "number"},
                "w_coeff": {"type": "number"},
                "count_coeffs": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"enum": ["call", "put"]},
                "strike": {"type": "number"},
                "w_coeff": {"type": "number"},
            },
            "required": ["kind", "strike"],
            "additionalProperties": False,
        },
    ],
}

_PIECES_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "items": {"type": "number"},
        "minItems": 2,
        "maxItems": 2,
    },
}

_BARRIER_SCHEMA = {
    "type": "object",
    "properties": {
        "pieces": _PIECES_SCHEMA,
        "stochastic": {
            "type": "object",
            "properties": {
                "kind": {"const": "linear"},
                "intercept": {"type": "number"},
                "w_coeff": {"type": "number"},
                "count_coeffs": {"type": "array", "items": {"type": "number"}},
                "compensated": {"type": "boolean"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "jumps": _PIECES_SCHEMA,
    },
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "node_cap": {"type": "integer", "minimum": 1},
            },
            "required": ["steps"],
            "additionalProperties": False,
        },
        "marks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "size": {"type": "number"},
                    "intensity": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["size", "intensity"],
                "additionalProperties": False,
            },
        },
        "terminal": _PATH_FN_SCHEMA,
        "driver": {
            "type": "object",
            "properties": {
                "g": {"oneOf": [{"type": "number"}, _PIECES_SCHEMA]},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "c": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "barrier": _BARRIER_SCHEMA,
        "barriers": {
            "type": "object",
            "properties": {"lower": _BARRIER_SCHEMA, "upper": _BARRIER_SCHEMA},
            "required": ["lower", "upper"],
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["standard", "one_barrier", "two_barrier"]},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
    },
    "required": ["grid", "terminal", "driver", "solver"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    max_iter: int = 10_000
    node_cap: int | None = None


def _json_path(path: tuple) -> str:
    """``$.grid.steps`` style rendering of a tuple of keys and indices."""
    parts = ["$"]
    for step in path:
        if isinstance(step, int):
            parts.append(f"[{step}]")
        elif step.isidentifier():
            parts.append(f".{step}")
        else:
            parts.append(f"[{json.dumps(step)}]")
    return "".join(parts)


def _show(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _reject_non_finite(value, path: tuple = ()) -> None:
    """Raise ConfigError on numbers that are not finite floats anywhere in the mapping.

    NaN and infinities are rejected, and so are integers beyond the
    largest float, which JSON allows and ``float()`` cannot convert.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{_json_path(path)} is {value!r}; numbers must be finite")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{_json_path(path)} is an integer beyond the largest float; "
                          "numbers must be finite")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, path + (i,))


# Checker for the JSON Schema subset that SCHEMA uses.  Types follow
# draft 2020-12: a bool is neither a number nor equal to one, and an
# integer is any number with an integral value (1.0 included).

class _Violation(NamedTuple):
    path: tuple
    message: str
    # const/enum misses: in a oneOf they say "other alternative", not "bad value"
    weak: bool = False


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "number": _is_number,
    "integer": lambda value: (isinstance(value, int) and not isinstance(value, bool))
    or (isinstance(value, float) and value.is_integer()),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def _json_equal(a, b) -> bool:
    """JSON equality: 1 == 1.0, but true != 1; arrays and objects by content."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if _is_number(a) and _is_number(b):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def _check_type(value, names, schema, path):
    names = [names] if isinstance(names, str) else names
    if not any(_TYPES[name](value) for name in names):
        return _Violation(path, f"{_show(value)} is not of type {' or '.join(names)}")


def _check_const(value, expected, schema, path):
    if not _json_equal(value, expected):
        return _Violation(path, f"{_show(value)} is not {_show(expected)}", weak=True)


def _check_enum(value, options, schema, path):
    if not any(_json_equal(value, option) for option in options):
        return _Violation(path, f"{_show(value)} is not one of {_show(options)}",
                          weak=True)


def _check_minimum(value, bound, schema, path):
    if _is_number(value) and value < bound:
        return _Violation(path, f"{_show(value)} is less than the minimum of {bound}")


def _check_exclusive_minimum(value, bound, schema, path):
    if _is_number(value) and value <= bound:
        return _Violation(path, f"{_show(value)} is not greater than {bound}")


def _check_min_items(value, count, schema, path):
    if isinstance(value, list) and len(value) < count:
        return _Violation(path, f"{_show(value)} has fewer than {count} items")


def _check_max_items(value, count, schema, path):
    if isinstance(value, list) and len(value) > count:
        return _Violation(path, f"{_show(value)} has more than {count} items")


def _check_items(value, item_schema, schema, path):
    if isinstance(value, list):
        for i, item in enumerate(value):
            found = _first_violation(item, item_schema, path + (i,))
            if found:
                return found


def _check_properties(value, properties, schema, path):
    if isinstance(value, dict):
        for key, sub in properties.items():
            if key in value:
                found = _first_violation(value[key], sub, path + (key,))
                if found:
                    return found


def _check_required(value, names, schema, path):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                return _Violation(path + (name,), "required property is missing")


def _check_additional(value, allowed, schema, path):
    # only ``additionalProperties: false`` is implemented (and used)
    if isinstance(value, dict):
        known = schema.get("properties", {})
        for key in value:
            if key not in known:
                return _Violation(path + (key,), "property is not allowed here")


def _check_one_of(value, branches, schema, path):
    misses = [_first_violation(value, branch, path) for branch in branches]
    matched = misses.count(None)
    if matched == 1:
        return None
    if matched > 1:
        return _Violation(path, f"{_show(value)} matches {matched} alternatives "
                                f"of a oneOf, not exactly one")
    # Report the alternative that got furthest: one whose discriminating
    # const/enum matched, failing deepest; a tie says only that none fits.
    rank = [(not miss.weak, len(miss.path)) for miss in misses]
    best = max(rank)
    if rank.count(best) == 1:
        return misses[rank.index(best)]
    return _Violation(path, f"{_show(value)} matches none of the alternatives")


# Every keyword the checker implements, applied in the schema's key order.
# "$schema" is an annotation and checks nothing.
_KEYWORDS = {
    "$schema": None,
    "type": _check_type,
    "const": _check_const,
    "enum": _check_enum,
    "minimum": _check_minimum,
    "exclusiveMinimum": _check_exclusive_minimum,
    "minItems": _check_min_items,
    "maxItems": _check_max_items,
    "items": _check_items,
    "properties": _check_properties,
    "required": _check_required,
    "additionalProperties": _check_additional,
    "oneOf": _check_one_of,
}


def _first_violation(value, schema: dict, path: tuple = ()) -> _Violation | None:
    """The first keyword of ``schema`` (in key order) that ``value`` violates."""
    for keyword, argument in schema.items():
        check = _KEYWORDS[keyword]
        found = check and check(value, argument, schema, path)
        if found:
            return found
    return None


def _reject_constant(name: str):
    raise ConfigError(f"configuration contains {name}; numbers must be finite")


def _driver_source(g_raw) -> float | Callable[[float], float]:
    """Constant g, or the step function of validated (start, value) pieces."""
    if isinstance(g_raw, (int, float)):
        return float(g_raw)
    try:
        return BarrierSpec(pieces=tuple((float(t), float(v)) for t, v in g_raw)
                           ).deterministic_at
    except ValueError as exc:
        raise ConfigError(f"driver g pieces: {exc}") from exc


def _build_path_fn(obj: dict):
    kind = obj["kind"]
    if kind == "constant":
        return TerminalSpec(constant=float(obj["value"]))
    if kind == "linear":
        return TerminalSpec(payoff=linear_payoff(
            intercept=float(obj.get("intercept", 0.0)),
            w_coeff=float(obj.get("w_coeff", 0.0)),
            count_coeffs=tuple(obj.get("count_coeffs", ()))))
    if kind == "call":
        return TerminalSpec(payoff=call_payoff(float(obj["strike"]),
                                               float(obj.get("w_coeff", 1.0))))
    return TerminalSpec(payoff=put_payoff(float(obj["strike"]),
                                          float(obj.get("w_coeff", 1.0))))


def _build_barrier(obj: dict, marks: MarkSet) -> BarrierSpec:
    pieces = tuple((float(t), float(v)) for t, v in obj.get("pieces", [[0.0, 0.0]]))
    stochastic = None
    if "stochastic" in obj:
        sto = obj["stochastic"]
        stochastic = linear_obstacle(
            intercept=float(sto.get("intercept", 0.0)),
            w_coeff=float(sto.get("w_coeff", 0.0)),
            count_coeffs=tuple(sto.get("count_coeffs", ())),
            compensate=marks if sto.get("compensated", False) else None)
    jumps = None
    if "jumps" in obj:
        jumps = tuple((float(t), float(off)) for t, off in obj["jumps"])
    try:
        return BarrierSpec(pieces=pieces, stochastic=stochastic, jumps=jumps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Linear path functions whose count_coeffs must hold one entry per mark.
_LINEAR_SECTIONS = (("terminal",), ("barrier", "stochastic"),
                    ("barriers", "lower", "stochastic"), ("barriers", "upper", "stochastic"))


# Obstacles whose declared jumps are derived from their pieces (driver.g
# pieces are a step function too, but declare no jumps).
_OBSTACLE_SECTIONS = (("barrier",), ("barriers", "lower"), ("barriers", "upper"))


def _reject(path: tuple, message: str):
    raise ConfigError(f"configuration rejected: {_json_path(path)}: {message}")


def _section(data: dict, section: tuple) -> dict:
    for key in section:
        data = data.get(key, {})
    return data


def _check_semantics(data: dict) -> None:
    """Reject schema-valid configurations that no solver can take."""
    marks = len(data.get("marks", []))
    for section in _LINEAR_SECTIONS:
        obj = _section(data, section)
        if "count_coeffs" in obj and len(obj["count_coeffs"]) != marks:
            _reject(section + ("count_coeffs",),
                    f"{len(obj['count_coeffs'])} coefficients for {marks} marks")
    # an obstacle without declared jumps jumps by v_prev - v at each piece,
    # which can overflow although both values are finite
    for section in _OBSTACLE_SECTIONS:
        obj = _section(data, section)
        if "jumps" in obj:
            continue
        values = [float(v) for _, v in obj.get("pieces", ())]
        for i in range(1, len(values)):
            if not math.isfinite(values[i - 1] - values[i]):
                _reject(section + ("pieces", i),
                        f"the jump from {values[i - 1]!r} to {values[i]!r} "
                        "is not a finite float")


def parse_config(data: dict) -> tuple[ProblemSpec, SolverOptions]:
    """Validate a configuration mapping and build the problem it describes."""
    _reject_non_finite(data)
    violation = _first_violation(data, SCHEMA)
    if violation is not None:
        _reject(violation.path, violation.message)
    _check_semantics(data)

    try:
        marks = MarkSet(
            sizes=tuple(m["size"] for m in data.get("marks", [])),
            intensities=tuple(m["intensity"] for m in data.get("marks", [])))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    terminal = _build_path_fn(data["terminal"])

    drv = data.get("driver", {})
    barrier = _build_barrier(data["barrier"], marks) if "barrier" in data else None
    lower = upper = None
    if "barriers" in data:
        lower = _build_barrier(data["barriers"]["lower"], marks)
        upper = _build_barrier(data["barriers"]["upper"], marks)

    driver = DriverSpec(base=_driver_source(drv.get("g", 0.0)),
                        a=float(drv.get("a", 0.0)),
                        b=float(drv.get("b", 0.0)), c=float(drv.get("c", 0.0)),
                        marks=marks)

    solver = data["solver"]
    options = SolverOptions(tol=float(solver.get("tol", 1e-12)),
                            max_iter=int(solver.get("max_iter", 10_000)),
                            node_cap=data["grid"].get("node_cap"))

    kind = solver["kind"]
    if kind == "one_barrier" and barrier is None:
        raise ConfigError("one_barrier solver needs a 'barrier' section")
    if kind == "two_barrier" and lower is None:
        raise ConfigError("two_barrier solver needs a 'barriers' section")
    if kind != "two_barrier" and lower is not None:
        raise ConfigError("'barriers' given but solver kind is not two_barrier")
    if kind != "one_barrier" and barrier is not None:
        raise ConfigError("'barrier' given but solver kind is not one_barrier")

    try:
        problem = ProblemSpec(num_steps=int(data["grid"]["steps"]), marks=marks,
                              terminal=terminal, driver=driver,
                              barrier=barrier,
                              lower=lower, upper=upper)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem, options


def load_config(path: str | Path,
                solver_overrides: dict | None = None) -> tuple[ProblemSpec, SolverOptions]:
    """Read, validate and build a configuration file.

    ``solver_overrides`` (such as command-line ``tol``/``max_iter`` values)
    replace entries of the ``solver`` section before validation, so they
    are checked exactly like values written in the file.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    if solver_overrides and isinstance(data.get("solver"), dict):
        data["solver"].update(solver_overrides)
    return parse_config(data)
