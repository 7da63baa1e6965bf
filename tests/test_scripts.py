"""Each report script runs to completion on tiny arguments."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

TINY_ARGS = {
    "extremal_table.py": ["--n", "3"],
    "layer_probe.py": ["--n-min", "3", "--n-max", "4"],
    "tail_diagnostic.py": ["--n", "16"],
}


def test_every_script_is_listed():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_runs(name):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *TINY_ARGS[name]],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
