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
