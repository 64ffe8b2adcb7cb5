"""The quick demos run to completion as scripts.

Demos 03, 05 and 06 take from several seconds to over half a minute each,
so they are run by hand rather than here.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", [
    "01_autodiff_and_gradient_checking.py",
    "02_synthetic_benchmark.py",
    "04_missing_modalities_and_ablation.py",
    "07_decode_cost.py",
])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
