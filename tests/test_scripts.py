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


def test_run_demo(tmp_path):
    out = tmp_path / "metrics.csv"
    proc = run_script("run_demo.py", "--seeds", "1", "--epochs", "2",
                      "-o", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "encoding,seed0,mean"
    assert [line.split(",")[0] for line in lines[1:]] == ["none", "spd",
                                                          "hdse"]
    assert "hdse  seed=0" in proc.stdout


def test_run_expressiveness(tmp_path):
    proc = run_script("run_expressiveness.py", "--seeds", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "spd                      distinguished=False" in proc.stdout


@pytest.mark.parametrize("name, args", [
    ("run_demo.py", ["--epochs", "0"]),
    ("run_demo.py", ["--lr", "inf"]),
    ("run_demo.py", ["--seeds", "0"]),
    ("run_expressiveness.py", ["--seeds", "0"]),
    ("run_expressiveness.py", ["--seeds", "-2"]),
])
def test_invalid_arguments_are_usage_errors(tmp_path, name, args):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{name}: error: " in proc.stderr
    assert proc.stdout == ""
