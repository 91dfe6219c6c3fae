"""Smoke tests: each experiment script runs at a small size and writes data."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("orbit_growth.py", ["--t-max", "8", "--checkpoints", "6"]),
    ("pressure_surface_sweep.py", ["--group", "fixture:toy2", "--points", "3"]),
    ("spectral_gap_heatmap.py", ["--t-count", "2", "--v-count", "2"]),
], ids=["orbit_growth", "pressure_surface_sweep", "spectral_gap_heatmap"])
def test_script_writes_data(tmp_path, script, args):
    out = tmp_path / "data.dat"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                           "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0
