"""JSON problem configurations: schema, validation and construction."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema

from .errors import ConfigError
from .processes import (BarrierSpec, DriverSpec, MarkSet, PenaltyTerm, ProblemSpec,
                        TerminalSpec, call_payoff, linear_obstacle, linear_payoff,
                        put_payoff)

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
                "penalty": {
                    "type": "object",
                    "properties": {"n": {"type": "number", "minimum": 0}},
                    "required": ["n"],
                    "additionalProperties": False,
                },
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
                "alpha": {"type": ["number", "null"]},
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
    kind: str
    alpha: float | None = None
    tol: float = 1e-12
    max_iter: int = 10_000
    node_cap: int | None = None


# Built once: the schema itself is a constant, checked against its
# metaschema by the test suite rather than on every load.
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _reject_non_finite(value, where: str = "configuration") -> None:
    """Raise ConfigError on NaN or infinite numbers anywhere in the mapping."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} is {value!r}; numbers must be finite")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]")


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


def parse_config(data: dict) -> tuple[ProblemSpec, SolverOptions]:
    """Validate a configuration mapping and build the problem it describes."""
    _reject_non_finite(data)
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
    if error is not None:
        raise ConfigError(f"configuration rejected: {error.message}")

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

    penalty = None
    if "penalty" in drv:
        if barrier is None:
            raise ConfigError("a penalty term needs the problem obstacle")
        penalty = PenaltyTerm(weight=float(drv["penalty"]["n"]), barrier=barrier)
    driver = DriverSpec(base=_driver_source(drv.get("g", 0.0)),
                        a=float(drv.get("a", 0.0)),
                        b=float(drv.get("b", 0.0)), c=float(drv.get("c", 0.0)),
                        marks=marks, penalty=penalty)

    solver = data["solver"]
    options = SolverOptions(kind=solver["kind"],
                            alpha=solver.get("alpha"),
                            tol=float(solver.get("tol", 1e-12)),
                            max_iter=int(solver.get("max_iter", 10_000)),
                            node_cap=data["grid"].get("node_cap"))

    kind = options.kind
    if kind == "one_barrier" and barrier is None:
        raise ConfigError("one_barrier solver needs a 'barrier' section")
    if kind == "two_barrier" and lower is None:
        raise ConfigError("two_barrier solver needs a 'barriers' section")
    if kind != "two_barrier" and lower is not None:
        raise ConfigError("'barriers' given but solver kind is not two_barrier")
    if kind != "one_barrier" and barrier is not None and penalty is None:
        raise ConfigError("'barrier' given but solver kind is not one_barrier")

    try:
        problem = ProblemSpec(num_steps=int(data["grid"]["steps"]), marks=marks,
                              terminal=terminal, driver=driver,
                              barrier=barrier if kind == "one_barrier" else None,
                              lower=lower, upper=upper)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem, options


def load_config(path: str | Path) -> tuple[ProblemSpec, SolverOptions]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    return parse_config(data)
