"""Smoke test: each quick demo runs to completion as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["conditions_walkthrough.py", "expressions_and_gradients.py",
         "falsification.py", "open_question.py", "sigma_star.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
