"""The benchmark's child process against the program it measures.

perfbench/child.py reads names of the program (harness, assemble, the
system's free, trace_weights and stiffness; for check, classify_boundary,
embedding_constants and build_report) that a change could rename.  Each
child runs in a subprocess, as the benchmark runs it, because its plain
mode wraps functions of harness in place.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beamstab import harness

ROOT = Path(__file__).resolve().parents[1]
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child(rundir, mode, text, command="simulate"):
    rundir.mkdir()
    (rundir / "config.ini").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{name: "1" for name in THREADS})
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), mode,
                           command, "test"], cwd=rundir, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads((rundir / "result.json").read_text())


@pytest.mark.parametrize("workload", ["ref1d", "rect64_saturating"])
def test_plain_and_traced_children_agree(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    text = workloads.config_text(workloads.WORKLOADS[workload], 0, steps=2)
    _, _, system = harness.build_problem(harness.parse_config(text=text))
    results = [_child(tmp_path / mode, mode, text) for mode in ("plain", "traced")]
    for result in results:
        assert result["exit_code"] == harness.EXIT_OK
        assert result["summary"]["bound_violations"] == "0"
        assert result["summary"]["samples"] == "3"
        assert result["problem"]["free_dofs"] == 2 * len(system.free)
        assert result["problem"]["nnz_K"] == system.stiffness.nnz
    plain, traced = results
    assert plain["trace_csv_sha256"] is not None
    assert plain["trace_csv_sha256"] == traced["trace_csv_sha256"]


def test_plain_and_traced_check_children_agree(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    text = workloads.config_text(workloads.WORKLOADS["certify_fine"], 0)
    results = [_child(tmp_path / mode, mode, text, "check") for mode in ("plain", "traced")]
    for result in results:
        assert result["exit_code"] == harness.EXIT_OK
        certificate = result["certificate"]
        assert certificate["admissible"] == "true"
        for name in ("eta", "M", "N"):
            assert math.isfinite(float(certificate[name])) and float(certificate[name]) > 0
    plain, traced = results
    assert plain["check_csv_sha256"] is not None
    assert plain["check_csv_sha256"] == traced["check_csv_sha256"]
