"""The narrative demos run to completion from a clean working directory.

Demo 05 is left out: its three decompositions take about 20 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_circle_and_winding.py",
                                  "02_groups_and_quantized_transforms.py",
                                  "03_symbol_algebra_and_ellipticity.py",
                                  "04_fredholm_index.py",
                                  "06_semiclassical_traces.py",
                                  "07_algebraic_index_theorem.py",
                                  "08_experiment_configs.py"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
