"""CLI front end: commands, exit codes, artifacts and determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rbsde.cli import build_parser, main
from test_config import _assert_rejected, _base_configs, _generated, _solvable

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_solve_one_counterexample(tmp_path, capsys):
    code = run("solve-one", "--config", CONFIGS / "counterexample.json",
               "--out", tmp_path)
    assert code == 0
    rows = read_csv(tmp_path / "summary.csv")
    jump_row = next(r for r in rows if float(r["time"]) == 0.5)
    assert float(jump_row["kd_increment"]) == pytest.approx(0.5, abs=1e-12)
    assert float(jump_row["y_mean"]) == pytest.approx(0.5, abs=1e-12)
    early = next(r for r in rows if float(r["time"]) == 0.25)
    assert float(early["y_mean"]) == pytest.approx(1.0, abs=1e-12)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    solution = json.loads((tmp_path / "solution.json").read_text())
    assert solution["summary"]["expected_terminal_kd"] == pytest.approx(0.5)


def test_solve_one_with_linear_y_coefficient(tmp_path, capsys):
    # The compensator increment carries the factor (1 - a dt) so that the
    # step identity holds with the driver evaluated at the reflected y.
    config = json.loads((CONFIGS / "counterexample.json").read_text())
    config["driver"] = {"g": 0.1, "a": 0.3}
    config["terminal"] = {"kind": "call", "strike": -0.5}
    path = tmp_path / "coefficient.json"
    path.write_text(json.dumps(config))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["clauses"]["dynamics"]["residual"] <= 1e-14


def test_config_schema_is_valid():
    from jsonschema.validators import validator_for
    from rbsde.config import SCHEMA
    validator_for(SCHEMA).check_schema(SCHEMA)


def test_cli_import_loads_no_jsonschema():
    # jsonschema is a test-only reference; the CLI validates configs itself
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, rbsde.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('jsonschema', 'referencing', 'rpds')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("flag, value", [("--max-iter", "0"), ("--max-iter", "-3"),
                                         ("--tol", "0"), ("--tol", "-1"),
                                         ("--tol", "nan")])
def test_out_of_range_solver_flags_exit_2(tmp_path, capsys, flag, value):
    code = run("contraction-study", "--config", CONFIGS / "contraction.json",
               "--out", tmp_path, flag, value)
    assert code == 2
    assert "$.solver." in capsys.readouterr().err


# Every subcommand takes --config and --out plus only the flags it reads.
COMMAND_OPTIONS = {
    "solve-one": ["--config", "--full", "--out"],
    "solve-two": ["--config", "--full", "--out"],
    "penalize-sweep": ["--config", "--n-list", "--out"],
    "snell": ["--config", "--out"],
    "verify": ["--config", "--out", "--solution"],
    "contraction-study": ["--alpha-list", "--config", "--max-iter", "--out", "--tol"],
}


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {name: sorted(flag for action in parser._actions
                            for flag in action.option_strings
                            if flag not in ("-h", "--help"))
               for name, parser in sub.choices.items()}
    assert options == COMMAND_OPTIONS


@pytest.mark.parametrize("command, flag", [
    (("snell",), ("--full",)),
    (("solve-one",), ("--tol", "1e-3")),
    (("verify", "--solution", "solution.json"), ("--max-iter", "3")),
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        run(*command, "--config", CONFIGS / "counterexample.json", "--out", tmp_path, *flag)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solver_alpha_is_not_in_the_schema(tmp_path, capsys):
    # --alpha-list is the one way to set alpha
    config = json.loads((CONFIGS / "contraction.json").read_text(encoding="utf-8"))
    config["solver"]["alpha"] = 4.0
    _assert_rejected(tmp_path, capsys, config, "$.solver.alpha")


@pytest.mark.parametrize("command, config, flag", [
    ("penalize-sweep", "counterexample.json", "--n-list=abc"),
    ("penalize-sweep", "counterexample.json", "--n-list=4"),
    ("penalize-sweep", "counterexample.json", "--n-list=2,1"),
    ("penalize-sweep", "counterexample.json", "--n-list=1,1"),
    ("penalize-sweep", "counterexample.json", "--n-list=-1,2"),
    ("penalize-sweep", "counterexample.json", "--n-list=nan,2"),
    ("penalize-sweep", "counterexample.json", "--n-list=1,inf"),
    ("contraction-study", "contraction.json", "--alpha-list=abc"),
    ("contraction-study", "contraction.json", "--alpha-list=-1"),
    ("contraction-study", "contraction.json", "--alpha-list=,"),
    ("contraction-study", "contraction.json", "--alpha-list=nan"),
    ("contraction-study", "contraction.json", "--alpha-list=inf"),
])
def test_bad_list_flags_exit_2(tmp_path, capsys, command, config, flag):
    code = run(command, "--config", CONFIGS / config, "--out", tmp_path, flag)
    assert code == 2
    assert flag.split("=")[0] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_terminal_below_barrier_exits_3(tmp_path, capsys):
    config = {
        "grid": {"steps": 4},
        "terminal": {"kind": "constant", "value": -0.5},
        "driver": {},
        "barrier": {"pieces": [[0.0, 0.0]]},
        "solver": {"kind": "one_barrier"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 3
    assert "TerminalBelowBarrier" in capsys.readouterr().err


def test_infeasible_intensity_exits_3(tmp_path, capsys):
    config = {
        "grid": {"steps": 1},
        "marks": [{"size": 1.0, "intensity": 1.1}],
        "terminal": {"kind": "constant", "value": 0.5},
        "driver": {},
        "barrier": {"pieces": [[0.0, 0.0]]},
        "solver": {"kind": "one_barrier"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 3
    assert "InfeasibleIntensity" in capsys.readouterr().err


def test_schema_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"steps": 0}}))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 2


def test_solver_kind_mismatch_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "grid": {"steps": 2},
        "terminal": {"kind": "constant", "value": 0.0},
        "driver": {},
        "solver": {"kind": "one_barrier"},
    }))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 2


def test_verify_round_trip_and_tamper(tmp_path):
    out = tmp_path / "out"
    assert run("solve-one", "--config", CONFIGS / "counterexample.json",
               "--out", out) == 0
    verify_out = tmp_path / "verify"
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", out / "solution.json", "--out", verify_out) == 0
    assert (out / "report.json").read_bytes() == (verify_out / "report.json").read_bytes()

    payload = json.loads((out / "solution.json").read_text())
    payload["nodes"]["k"][4] = [v + 0.1 for v in payload["nodes"]["k"][4]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", tampered, "--out", tmp_path / "v2") == 4


def test_verify_rejects_z_and_v_that_do_not_represent_y(tmp_path, capsys):
    # the band's driver reads neither Z nor V, so only the representation clause sees them
    config = CONFIGS / "two_barrier_band.json"
    assert run("solve-two", "--config", config, "--full", "--out", tmp_path / "band") == 0
    payload = json.loads((tmp_path / "band" / "solution.json").read_text())
    nodes = payload["nodes"]
    nodes["z"] = [[3.0 * z + 1.0 for z in level] for level in nodes["z"]]
    nodes["v"] = [[[-2.0 * v + 1.0 for v in row] for row in level] for level in nodes["v"]]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    assert run("verify", "--config", config, "--solution", edited, "--out", tmp_path / "v") == 4
    assert "verification failed" in capsys.readouterr().err
    clauses = json.loads((tmp_path / "v" / "report.json").read_text())["clauses"]
    assert [name for name, c in clauses.items() if not c["passed"]] == ["representation"]


def test_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("solve-one", "--config", CONFIGS / "counterexample.json",
                   "--out", out) == 0
    for name in ("solution.json", "report.json", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_two_band(tmp_path):
    assert run("solve-two", "--config", CONFIGS / "two_barrier_band.json",
               "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "summary.csv")
    assert "k_plus_mean" in rows[0]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True


def test_solve_two_one_sided_transplant(tmp_path):
    config = {
        "grid": {"steps": 4},
        "terminal": {"kind": "constant", "value": 0.5},
        "driver": {},
        "barriers": {
            "lower": {"pieces": [[0.0, 1.0], [0.5, -10.0]]},
            "upper": {"pieces": [[0.0, 10.0]]},
        },
        "solver": {"kind": "two_barrier"},
    }
    path = tmp_path / "transplant.json"
    path.write_text(json.dumps(config))
    assert run("solve-two", "--config", path, "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "summary.csv")
    assert all(float(r["k_minus_mean"]) == 0.0 for r in rows)
    jump_row = next(r for r in rows if float(r["time"]) == 0.5)
    assert float(jump_row["k_plus_d_increment"]) == pytest.approx(0.5, abs=1e-12)


def test_penalize_sweep_counterexample(tmp_path):
    assert run("penalize-sweep", "--config", CONFIGS / "counterexample.json",
               "--out", tmp_path, "--n-list", "1,2,4,8,16,32") == 0
    rows = read_csv(tmp_path / "sweep.csv")
    roots = [float(r["y0"]) for r in rows]
    assert all(b > a for a, b in zip(roots, roots[1:]))
    gaps = [float(r["sup_gap"]) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_snell_command(tmp_path):
    assert run("snell", "--config", CONFIGS / "counterexample.json",
               "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "snell.json").read_text())
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)
    assert payload["kd_mass"] == pytest.approx(0.5, abs=1e-12)
    assert payload["regular"] is False


@pytest.mark.parametrize("g", [-0.4, 0.4])
def test_snell_and_solve_one_report_one_jump_type_mass(tmp_path, g):
    """With a source the envelope route still splits K as the solver does."""
    config = json.loads((CONFIGS / "counterexample.json").read_text())
    config["driver"]["g"] = g
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run("snell", "--config", path, "--out", tmp_path / "snell") == 0
    assert run("solve-one", "--config", path, "--out", tmp_path / "solve") == 0
    envelope = json.loads((tmp_path / "snell" / "snell.json").read_text())
    summary = json.loads((tmp_path / "solve" / "solution.json").read_text())["summary"]
    assert envelope["kd_mass"] == pytest.approx(summary["expected_terminal_kd"], abs=1e-12)
    assert envelope["regular"] is False


def test_snell_rejects_a_terminal_below_the_obstacle_as_solve_one_does(tmp_path, capsys):
    config = json.loads((CONFIGS / "counterexample.json").read_text())
    config["terminal"]["value"] = -1.0
    path = tmp_path / "below.json"
    path.write_text(json.dumps(config))
    errors = []
    for command in ("snell", "solve-one"):
        assert run(command, "--config", path, "--out", tmp_path / command) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "TerminalBelowBarrier" in errors[0]
    assert not (tmp_path / "snell" / "snell.json").exists()


def test_contraction_study(tmp_path):
    assert run("contraction-study", "--config", CONFIGS / "contraction.json",
               "--out", tmp_path, "--alpha-list", "2.0,8.0") == 0
    rows = read_csv(tmp_path / "contraction.csv")
    assert len(rows) == 2
    assert all(r["converged"] == "true" for r in rows)
    assert all(float(r["max_ratio"]) < 1.0 for r in rows)


def _truncate_levels(payload):
    payload["nodes"]["y"] = payload["nodes"]["y"][:-1]


def _shorten_level(payload):
    payload["nodes"]["k"][3] = payload["nodes"]["k"][3][:-1]


def _drop_field(payload):
    del payload["nodes"]["k_c"]


def _drop_kind(payload):
    del payload["kind"]


def _ragged_marks(payload):
    payload["nodes"]["v"][1][0] = []


def _text_values(payload):
    payload["nodes"]["z"][0] = ["x"]


# entries that a conversion to float would take as the numbers 1.0, 1.0 and NaN
def _numeric_string(payload):
    payload["nodes"]["y"][2][0] = "1.0"


def _boolean_entry(payload):
    payload["nodes"]["y"][2][0] = True


def _null_entry(payload):
    payload["nodes"]["y"][2][0] = None


# a JSON integer that no float holds
def _huge_integer(payload):
    payload["nodes"]["y"][2][0] = 10 ** 400


NOT_FLOATS = (_numeric_string, _boolean_entry, _null_entry, _huge_integer)


@pytest.fixture(scope="module")
def counterexample_solution(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve-one")
    assert run("solve-one", "--config", CONFIGS / "counterexample.json",
               "--out", out) == 0
    return out / "solution.json"


@pytest.mark.parametrize("damage", [_truncate_levels, _shorten_level, _drop_field,
                                    _drop_kind, _ragged_marks, _text_values, *NOT_FLOATS])
def test_verify_malformed_solution_exits_2(tmp_path, capsys, counterexample_solution,
                                           damage):
    payload = json.loads(counterexample_solution.read_text())
    damage(payload)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", broken, "--out", tmp_path / "v") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if damage in NOT_FLOATS:
        assert err.startswith("configuration error: malformed solution file")
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def band_solution(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve-two")
    assert run("solve-two", "--config", CONFIGS / "two_barrier_band.json", "--full",
               "--out", out) == 0
    return out / "solution.json"


def _as_standard(path, tmp_path):
    payload = json.loads(path.read_text())
    payload["kind"] = "standard"
    standard = tmp_path / "standard.json"
    standard.write_text(json.dumps(payload))
    return standard


def test_verify_names_a_solution_of_another_kind(tmp_path, capsys, counterexample_solution,
                                                 band_solution):
    """The kind is compared before any field is read, whichever the dump and config."""
    one, two = CONFIGS / "counterexample.json", CONFIGS / "two_barrier_band.json"
    cases = [(two, counterexample_solution), (one, band_solution),
             (one, _as_standard(counterexample_solution, tmp_path))]
    for i, (config, solution) in enumerate(cases):
        assert run("verify", "--config", config, "--solution", solution,
                   "--out", tmp_path / f"v{i}") == 2
        err = capsys.readouterr().err
        assert err == "configuration error: solution kind does not match the configuration\n"
        assert not (tmp_path / f"v{i}").exists()


def test_verify_a_solution_that_is_no_mapping_exits_2(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", listed, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err.startswith("configuration error: malformed solution file")


def test_verify_nan_solution_exits_4(tmp_path, capsys, counterexample_solution):
    payload = json.loads(counterexample_solution.read_text())
    payload["nodes"]["k"][3][1] = float("nan")
    payload["nodes"]["z"][2][0] = float("nan")
    poisoned = tmp_path / "nan.json"
    poisoned.write_text(json.dumps(payload))
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", poisoned, "--out", tmp_path / "v") == 4
    assert "verification failed" in capsys.readouterr().err
    clauses = json.loads((tmp_path / "v" / "report.json").read_text())["clauses"]
    assert not clauses["dynamics"]["passed"]
    assert not clauses["compensator_monotone"]["passed"]


def test_verify_reads_a_stored_k_c_as_it_is(tmp_path, capsys, counterexample_solution):
    payload = json.loads(counterexample_solution.read_text())
    # the dumped k_c is k - k_d; moved at one node, only a K_c read as stored fails the split
    payload["nodes"]["k_c"][-1][1] += 1e-6
    tampered = tmp_path / "k_c.json"
    tampered.write_text(json.dumps(payload))
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", tampered, "--out", tmp_path / "v") == 4
    assert "verification failed" in capsys.readouterr().err
    clauses = json.loads((tmp_path / "v" / "report.json").read_text())["clauses"]
    assert not clauses["compensator_monotone"]["passed"]
    assert clauses["compensator_monotone"]["residual"] == pytest.approx(1e-6, rel=1e-6)


def test_verify_cut_off_solution_file_exits_2(tmp_path, counterexample_solution):
    cut = tmp_path / "cut.json"
    cut.write_bytes(counterexample_solution.read_bytes()[:5000])
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", cut, "--out", tmp_path / "v") == 2


BASE_CONFIG = {
    "grid": {"steps": 4},
    "terminal": {"kind": "constant", "value": 0.5},
    "driver": {"g": [[0.0, 0.1], [0.5, 0.2]]},
    "barrier": {"pieces": [[0.0, 0.0]]},
    "solver": {"kind": "one_barrier"},
}


# NaN, Infinity and 1e400 (which overflows) parse to floats that are not finite;
# an integer literal of 400 digits stays an int that float() cannot convert.
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400",
                                   pytest.param("1" + "0" * 400, id="int-1e400")])
def test_non_finite_config_file_exits_2(tmp_path, capsys, token):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BASE_CONFIG).replace('"value": 0.5', f'"value": {token}'))
    assert token in path.read_text()
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["terminal", "driver"])
def test_non_finite_config_mapping_rejected(where):
    from rbsde import ConfigError
    from rbsde.config import parse_config
    data = json.loads(json.dumps(BASE_CONFIG))
    if where == "terminal":
        data["terminal"]["value"] = float("nan")
    else:
        data["driver"]["g"][1][1] = float("inf")
    with pytest.raises(ConfigError, match="finite"):
        parse_config(data)


@pytest.mark.parametrize("pieces", [[[0.5, 1.0], [0.2, 3.0]], [[0.25, 1.0]],
                                    [[0.0, 1.0], [0.5, 2.0], [0.5, 3.0]],
                                    [[0.0, 1.0], [1.5, 2.0]]])
def test_driver_g_pieces_validated(tmp_path, capsys, pieces):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["driver"]["g"] = pieces
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 2
    assert "driver g pieces" in capsys.readouterr().err


def test_driver_g_pieces_step_function():
    from rbsde.config import parse_config
    problem, _ = parse_config(BASE_CONFIG)
    assert [problem.driver.base_at(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)] == \
        [0.1, 0.1, 0.2, 0.2, 0.2]


# Every command that reads a configuration; a solve is forced to dump per-node
# data and is followed by a verify of its dump.
CONFIG_COMMANDS = (("solve-one", "--full"), ("solve-two", "--full"),
                   ("penalize-sweep", "--n-list", "1,2"), ("snell",), ("contraction-study",))


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.sampled_from(_base_configs()), _generated()))
def test_cli_exit_codes_on_schema_valid_configs(config):
    """Every schema-valid config ends in a documented exit code, never a traceback.

    The generator keeps N <= 6 and the configs under ``configs/`` N <= 8.
    """
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        for command in CONFIG_COMMANDS:
            out = Path(folder) / command[0]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(*command, "--config", path, "--out", out)
                assert code in (0, 2, 3, 4), (command, config)
                if code == 0 and command[0].startswith("solve"):
                    assert run("verify", "--config", path, "--out", out / "verify",
                               "--solution", out / "solution.json") == 0, config


@settings(derandomize=True, max_examples=1, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(_solvable(), min_size=24, max_size=24))
def test_generated_solvable_configs_reach_the_solvers(configs):
    """The fuzz's solvable branch mostly solves, checks and verifies."""
    solved = 0
    with tempfile.TemporaryDirectory() as folder:
        for i, config in enumerate(configs):
            path = Path(folder) / f"config{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            out = Path(folder) / f"out{i}"
            command = "solve-one" if config["solver"]["kind"] == "one_barrier" else "solve-two"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if (run(command, "--config", path, "--out", out, "--full") == 0
                        and run("verify", "--config", path, "--out", out / "verify",
                                "--solution", out / "solution.json") == 0):
                    solved += 1
    assert solved >= len(configs) // 2, solved


def test_solve_one_on_values_whose_squares_overflow(tmp_path, capsys):
    # the summary's variance squares values near 1e201, past the largest float
    config = {"grid": {"steps": 4},
              "terminal": {"kind": "call", "strike": -1e201, "w_coeff": 1},
              "driver": {"g": 0}, "barrier": {"pieces": [[0, 1e200]]},
              "solver": {"kind": "one_barrier"}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 0
    first = read_csv(tmp_path / "out" / "summary.csv")[0]
    assert float(first["y_mean"]) == 1e201
    assert float(first["y_std"]) == 0.0


def test_summary_statistics_scale_exactly_by_powers_of_two():
    # squares near 2**600 overflow and near 2**-600 underflow; 2**1023 is the
    # largest power of two, and the largest |value| here is 1
    from rbsde import MarkSet, build_tree
    from rbsde.cli import _stats
    tree = build_tree(3, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    values = np.random.default_rng(5).normal(size=tree.level_size(3))
    values /= np.max(np.abs(values))
    unit = _stats(tree, 3, values)
    for power in (600, -600, 1023):
        assert _stats(tree, 3, values * 2.0 ** power) == {
            key: value * 2.0 ** power for key, value in unit.items()}, power


def test_solve_one_on_a_terminal_near_the_largest_float(tmp_path, capsys):
    config = json.loads((CONFIGS / "counterexample.json").read_text())
    config["terminal"] = {"kind": "constant", "value": 1e308}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 0
    first = read_csv(tmp_path / "out" / "summary.csv")[0]
    assert float(first["y_mean"]) == 1e308
    assert float(first["y_std"]) == 0.0


@pytest.mark.parametrize("steps", [4000, 10 ** 9])
def test_grids_past_the_node_cap_exit_3_quickly_with_a_short_message(tmp_path, capsys,
                                                                     steps):
    config = json.loads((CONFIGS / "counterexample.json").read_text())
    config["grid"]["steps"] = steps
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(config))
    start = time.perf_counter()
    assert run("solve-one", "--config", path, "--out", tmp_path / "out") == 3
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "TreeTooLarge: more than 5000000 nodes" in err
    assert len(err) < 200


def _config(name, **sections):
    config = json.loads((CONFIGS / name).read_text())
    config.update(sections)
    return config


LINEAR_1E308 = {"kind": "linear", "w_coeff": 1e308}
# a source near the largest float: its solution, or its stopping payoff, overflows
HUGE_SOURCE = {"driver": {"g": 1e308, "a": 1.0}}
HUGE_PAYOFF = {"driver": {"g": 1e308}, "terminal": {"kind": "constant", "value": 1e308}}
# problem data or a Picard weight past the largest float, and the error each raises
OVERFLOWS = {
    "obstacle": ("solve-one", _config("counterexample.json", barrier={
        "pieces": [[0.0, 1.0], [0.5, 0.0]], "stochastic": LINEAR_1E308}), (),
        "NonFiniteData: obstacle is not finite at level 6"),
    "terminal": ("solve-one", _config("counterexample.json", terminal=LINEAR_1E308), (),
                 "NonFiniteData: terminal payoff must be finite on every leaf"),
    "default alpha": ("contraction-study", _config("contraction.json", driver={"a": 5e307}),
                      (), "WeightOverflow: the weight exponent"),
    "given alpha": ("contraction-study", _config("counterexample.json"),
                    ("--alpha-list", "1e308"), "WeightOverflow: e^(alpha t) overflows"),
    "default weight": ("contraction-study", {
        "grid": {"steps": 15}, "terminal": {"kind": "constant", "value": 0.5},
        "driver": {"g": 0.0, "a": 14.5}, "solver": {"kind": "standard"}}, (),
        "WeightOverflow: e^(alpha t) overflows at t = 0.933333 with alpha = 872"),
    "solution": ("solve-one", _config("counterexample.json", **HUGE_SOURCE), (),
                 "NonFiniteData: the solution Y is not finite at level 0"),
    "picard moves": ("contraction-study", _config("counterexample.json", **HUGE_SOURCE), (),
                     "NonFiniteData: the move of round 1 is NaN"),
    "stopping payoff": ("snell", _config("counterexample.json", **HUGE_PAYOFF), (),
                        "NonFiniteData: the stopping payoff is not finite at level 8"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflowing_data_or_weights_exit_3_quickly_with_one_line(tmp_path, capsys, case):
    command, config, flags, message = OVERFLOWS[case]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(config))
    start = time.perf_counter()
    assert run(command, "--config", path, "--out", tmp_path / "out", *flags) == 3
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1, err


@pytest.mark.filterwarnings("error")
def test_picard_runs_on_through_infinite_first_distances(tmp_path, capsys):
    # the first moves of a terminal near 1e200 square past the largest float
    config = _config("counterexample.json", terminal={"kind": "constant", "value": 1e200},
                     driver={"g": 0.0, "a": 0.5})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    assert run("contraction-study", "--config", path, "--out", tmp_path / "out") == 0
    (row,) = read_csv(tmp_path / "out" / "contraction.csv")
    assert row["converged"] == "true"
    assert row["ratios"].startswith("nan|")
    # the largest ratio is taken over those that are not NaN
    assert math.isfinite(float(row["max_ratio"]))


def test_checker_report_does_not_depend_on_blas_threads(tmp_path):
    # The left-limit integrals sum over up to 2**15 parents per block here.
    # A BLAS dot product splits such a sum by thread count, and this
    # problem's left-limit residual is nonzero rounding, so a split sum
    # would change its last digits.
    config = {"grid": {"steps": 17},
              "terminal": {"kind": "put", "strike": 0.2, "w_coeff": 0.21},
              "driver": {"g": [[0.0, -0.19], [10 / 17, -0.12]]},
              "barrier": {"pieces": [[0.0, -0.057], [10 / 17, 0.236], [15 / 17, -0.296]]},
              "solver": {"kind": "one_barrier"}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(config))
    src = Path(__file__).resolve().parent.parent / "src"
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        subprocess.run([sys.executable, "-m", "rbsde.cli", "solve-one", "--config", str(path),
                        "--out", str(tmp_path / threads)],
                       env=env, capture_output=True, check=True, timeout=120)
        reports.append((tmp_path / threads / "report.json").read_bytes())
    assert json.loads(reports[0])["clauses"]["left_limit_skorokhod"]["residual"] != 0.0
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command, section", [
    ("solve-one", ("barrier",)), ("solve-two", ("barriers", "lower")),
    ("solve-two", ("barriers", "upper"))])
def test_obstacle_pieces_whose_jump_overflows_exit_2(tmp_path, capsys, command, section):
    if command == "solve-one":
        config = json.loads(json.dumps(BASE_CONFIG))
    else:
        config = json.loads((CONFIGS / "two_barrier_band.json").read_text())
    obj = config
    for key in section:
        obj = obj[key]
    obj.pop("jumps", None)
    obj["pieces"] = [[0.0, 1e308], [0.5, -1e308]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run(command, "--config", path, "--out", tmp_path / "out") == 2
    assert f"$.{'.'.join(section)}.pieces[1]" in capsys.readouterr().err


def test_driver_g_pieces_may_jump_past_the_largest_float():
    from rbsde.config import parse_config
    config = json.loads(json.dumps(BASE_CONFIG))
    config["driver"]["g"] = [[0.0, 1e308], [0.5, -1e308]]
    problem, _ = parse_config(config)
    assert problem.driver.base_at(0.75) == -1e308


@pytest.mark.parametrize("case", ["wrong kind", "tree too large", "missing solution"])
def test_a_command_that_fails_before_it_writes_leaves_no_out_directory(tmp_path, capsys,
                                                                       case):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_config("counterexample.json", grid={"steps": 10 ** 9})))
    code, argv = {
        "wrong kind": (2, ["solve-two", "--config", CONFIGS / "counterexample.json"]),
        "tree too large": (3, ["solve-one", "--config", huge]),
        "missing solution": (2, ["verify", "--config", CONFIGS / "counterexample.json",
                                 "--solution", tmp_path / "missing.json"]),
    }[case]
    assert run(*argv, "--out", tmp_path / "out" / "nested") == code
    assert not (tmp_path / "out").exists()


def test_an_out_that_names_a_file_exits_2_with_one_line(tmp_path, capsys):
    named = tmp_path / "named"
    named.write_text("kept\n")
    assert run("solve-one", "--config", CONFIGS / "counterexample.json", "--out", named) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write output: ")
    assert err.count("\n") == 1
    assert named.read_text() == "kept\n"


def test_a_check_that_fails_still_writes_its_report(tmp_path, capsys, counterexample_solution):
    payload = json.loads(counterexample_solution.read_text())
    payload["nodes"]["k"][4] = [v + 0.1 for v in payload["nodes"]["k"][4]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    out = tmp_path / "new" / "check"
    assert run("verify", "--config", CONFIGS / "counterexample.json",
               "--solution", tampered, "--out", out) == 4
    assert json.loads((out / "report.json").read_text())["passed"] is False


_JSON_CASES = (
    {"num": [-0.0, 0.0, 1e-300, -1e-320, 1e16, 1.5e308, 3, -7, 10 ** 20],
     "empty": [], "none": {}, "flags": [True, False, None], "text": ["a, b", "[]", "x"],
     "v": [[[0.1, -0.0], [1, 2]], [], [[3.0]], [[], [1.0]], [[1.0], []]],
     "nested": {"z": [[1e308, -1e-320]], "k": [], "deep": [[[[1.0]]], [[2.0], [3.0, 4.0]]]}},
    [[1], 2, [3]], [[1, [2]]], [1, [2]], [[1.0], "a"], [(1.0, 2.0), (3.0,)],
    [float("nan"), float("inf"), -float("inf")], [], {}, [[]], 1.5, "s", None,
)


@pytest.mark.parametrize("payload", _JSON_CASES)
def test_json_writer_writes_the_bytes_of_the_indented_stdlib_dump(payload):
    from rbsde.cli import _dumps
    assert _dumps(payload) == json.dumps(payload, sort_keys=True, indent=1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
              st.text(max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=30))
def test_json_writer_matches_the_stdlib_on_drawn_payloads(payload):
    from rbsde.cli import _dumps
    assert _dumps(payload) == json.dumps(payload, sort_keys=True, indent=1)


def test_a_full_dump_has_the_bytes_of_the_indented_stdlib_dump(tmp_path):
    assert run("solve-two", "--config", CONFIGS / "two_barrier_band.json", "--full",
               "--out", tmp_path) == 0
    text = (tmp_path / "solution.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
