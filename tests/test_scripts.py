"""The example scripts run to completion at their smallest settings."""

import json
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
    proc = _run(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr


def test_desk_search_reports_a_refused_search_and_scores_the_reference(tmp_path):
    # seed 2's desk search ends with every edge into a node Zero-dominant
    proc = _run(tmp_path, "desk_search.py",
                ["--out", "desk", "--seed", "2", "--retrain-epochs", "1"])
    assert proc.returncode == 0, proc.stderr
    refusal = "derive: every incoming edge of node 2 is Zero-dominant; alpha weights:"
    assert f"search refused: {refusal}" in proc.stdout
    report = json.loads(proc.stdout[proc.stdout.index("\n{") + 1:])
    assert report["searched"] == {"refused": refusal}
    assert 0.0 <= report["reference"]["test"]["top1"] <= 1.0
    assert not (tmp_path / "desk" / "retrain_searched").exists()


def _run(cwd, script, args):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
