"""The demo scripts run to completion, and each prints exactly the text kept
in tests/data."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("demo_frobenius_and_action", "demo_perfectoid_embedding",
         "demo_witt_vectors")


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    script = ROOT / "demos" / (name + ".py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_list_is_complete():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == \
        list(DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    assert run_demo(name)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_unchanged(name):
    golden = ROOT / "tests" / "data" / (name + ".out")
    assert run_demo(name) == golden.read_text()
