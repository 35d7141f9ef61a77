"""CLI outputs on configs/*.json stay byte-identical to the stored goldens.

``tests/golden/<command>/`` holds every file the command writes, except
files above 64 KiB (the per-node ``solution.json`` dumps), which are
pinned by their SHA-256 digest in ``tests/golden/SHA256SUMS``.  A change
that alters any of these bytes on purpose regenerates the goldens and
says why in CHANGES.md: run ``rbsde <command> --config configs/<config>
--out tests/golden/<command>`` for each entry of ``COMMANDS``, then
delete each file above 64 KiB and put its digest in ``SHA256SUMS`` as
``<digest>  <command>/<file>``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rbsde.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ROOT / "configs"

COMMANDS = {
    "solve-one": ("counterexample.json", ["solution.json", "report.json", "summary.csv"]),
    "penalize-sweep": ("counterexample.json", ["sweep.csv", "sweep.json"]),
    "snell": ("counterexample.json", ["snell.csv", "snell.json"]),
    "solve-two": ("two_barrier_band.json", ["solution.json", "report.json", "summary.csv"]),
    "contraction-study": ("contraction.json", ["contraction.csv"]),
}


def _digests() -> dict:
    out = {}
    for line in (GOLDEN / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        out[name] = digest
    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_outputs_match_golden(command, tmp_path):
    config, names = COMMANDS[command]
    assert main([command, "--config", str(CONFIGS / config), "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(names)
    digests = _digests()
    for name in names:
        produced = (tmp_path / name).read_bytes()
        key = f"{command}/{name}"
        if key in digests:
            assert hashlib.sha256(produced).hexdigest() == digests[key], key
        else:
            assert produced == (GOLDEN / command / name).read_bytes(), key


@pytest.mark.parametrize("threads", ["1", "2"])
def test_penalize_sweep_bytes_do_not_depend_on_blas_threads(threads, tmp_path):
    # weighted level sums avoid BLAS dot products, which OpenBLAS splits by
    # thread count; the ladder's k_gap column showed it in its last digits
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-m", "rbsde.cli", "penalize-sweep", "--config",
                    str(CONFIGS / "counterexample.json"), "--out", str(tmp_path)],
                   env=env, capture_output=True, check=True, timeout=120)
    for name in COMMANDS["penalize-sweep"][1]:
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / "penalize-sweep" / name).read_bytes(), name
