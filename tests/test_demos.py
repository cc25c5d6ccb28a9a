"""The fast ``demos/`` scripts run to the end, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "counterexample_blowup", "maximal_and_choquet", "redundancy_constants",
    "weight_characteristics", "adversarial_search_demo",
])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
