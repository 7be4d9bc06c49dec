"""The example scripts run to completion at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dasvit

SRC = Path(dasvit.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("desk_search.py", ["--out", "desk", "--retrain-epochs", "1"]),
    ("skip_dominance_study.py", ["--out", "fairness.csv", "--epochs", "1"]),
])
def test_script_exits_cleanly(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
