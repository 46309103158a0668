"""Tests of the benchmark itself.

Each correctness check must pass on a real (small) study and fail on a
deliberately corrupted copy of it; the traced self times must add up to
the traced study time; the driver must refuse to run without the
program's sources.  Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import study

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def results():
    return {name: study.execute(name, seed=7, trace=0, small=True) for name in study.WORKLOADS}


def _verdicts(workload, result):
    return {name: ok for name, ok, _ in checks.run_checks(study.WORKLOADS[workload], result)}


@pytest.mark.parametrize("workload", sorted(study.WORKLOADS))
def test_clean_study_passes_every_check(results, workload):
    verdicts = _verdicts(workload, results[workload])
    assert verdicts and all(verdicts.values()), verdicts


def _scale(key, index, factor):
    def corrupt(result):
        result["rows"][key][index] *= factor

    return corrupt


def _perturb_field(name, factor):
    def corrupt(result):
        result[name]["coeffs"] *= factor

    return corrupt


def _shift_ndof(index, delta):
    def corrupt(result):
        result["rows"]["ndof_total"][index] += delta

    return corrupt


def _bad_residual(result):
    result["residuals"][-1] = 1e-6


CORRUPTIONS = [
    ("square-s2-uniform", "exact_error", _perturb_field("u", 1.001)),
    ("jitter-s1-p1", "exact_error", _perturb_field("sigma", 1.001)),
    ("square-s2-uniform", "dof_count", _shift_ndof(-1, 1)),
    ("sector-s2-adaptive", "dof_count", _shift_ndof(3, -1)),
    ("square-s2-uniform", "decrease", _scale("err_u", 2, 2.5)),
    ("sector-s2-adaptive", "decrease", _scale("eta", 5, 1.3)),
    ("square-s2-uniform", "rate_err_sigma", _scale("err_sigma", -1, 1.15)),
    ("square-s2-uniform", "rate_eta", _scale("eta", -1, 1.2)),
    ("sector-s2-adaptive", "rate_eta", _scale("eta", -1, 0.5)),
    ("jitter-s1-p1", "rate_err_u", _scale("err_u", -1, 1.3)),
    ("square-s2-uniform", "err_eta_band", _scale("err_sigma", 0, 1.3)),
    ("jitter-s1-p1", "err_eta_band", _scale("eta", 0, 3.0)),
    ("sector-s2-adaptive", "residual", _bad_residual),
]


@pytest.mark.parametrize(
    "workload, check, corrupt", CORRUPTIONS, ids=[f"{w}-{c}" for w, c, _ in CORRUPTIONS]
)
def test_check_fails_on_corrupted_result(results, workload, check, corrupt):
    result = copy.deepcopy(results[workload])
    corrupt(result)
    assert _verdicts(workload, result)[check] is False


def test_layer_self_times_add_up_to_traced_study_time():
    layers = study.execute("sector-s2-adaptive", seed=7, trace=1, small=True)["layers"]
    self_times = [value for name, value in layers.items()
                  if name.endswith("_s") and name != "study.traced_s"]
    assert sum(self_times) == pytest.approx(layers["study.traced_s"], rel=1e-9)
    assert layers["mesh.refine_s"] > 0 and layers["linsolve.solve_s"] > 0


def test_driver_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "square-s2-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    with pytest.raises((IndexError, json.JSONDecodeError)):
        json.loads(lines[-1])
