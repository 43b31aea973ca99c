"""Smoke test: every script under demos/ runs to completion against the
package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_demo(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr


def test_worked_instance_output_is_stable():
    # The demo prints no timings, so two runs give the same bytes.
    first, second = (run_demo(ROOT / "demos" / "worked_instance.py") for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.endswith("brute force agrees: True\n")
