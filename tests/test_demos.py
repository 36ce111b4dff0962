"""The example scripts under demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_three_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "graph_transform_lab.py", "power_family_safari.py", "twisted_families_tour.py"
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
