"""Smoke tests: the example scripts run to completion from a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def test_run_expressiveness(tmp_path):
    proc = run_script("run_expressiveness.py", "--seeds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "spd                      distinguished=False" in proc.stdout


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_invalid_arguments_are_usage_errors(tmp_path, seeds):
    proc = run_script("run_expressiveness.py", "--seeds", seeds, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "run_expressiveness.py: error: " in proc.stderr
    assert proc.stdout == ""
