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


def test_paper_probe_reports_a_stage_at_desk_geometry(tmp_path):
    proc = _run(tmp_path, "paper_probe.py",
                ["--geometry", "desk", "--stage", "2", "--batch", "2", "--steps", "2"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["stage"], report["layers"], len(report["candidates"])) == (2, 4, 5)
    assert len(report["steps"]) == 2
    assert all(step[k] > 0 for step in report["steps"] for k in ("alpha_s", "weight_s"))
    assert 0 < report["rss_after_build_mb"] <= report["peak_rss_mb"]
    sizes = report["bytes"]
    # float32 weights, every one stepped by AdamW, so two moments apiece
    assert sizes["weights"] == 4 * report["parameters"]
    assert sizes["moments"] == 2 * sizes["weights"]
    assert 0 < sizes["gradients"] <= sizes["weights"]


def _run(cwd, script, args):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
