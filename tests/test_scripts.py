"""Smoke test of the experiment drivers in scripts/: each runs end to end
at a tiny size and writes a curve CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_harness import CURVE_HEADER

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["greedy_mse_curves.py", "greedy_vs_best.py", "haar_vs_dct.py"])
def test_script_writes_curve_csv(tmp_path, script):
    out = tmp_path / "curves.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--trials", "3", "--m", "2,4",
         "--grid-log2", "6", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CURVE_HEADER and len(lines) > 1
