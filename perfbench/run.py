"""Benchmark of bilap-dpg refinement studies.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every set-up and every study runs in a fresh interpreter
(``study.py``) with one BLAS thread and checks its outputs
(``checks.py``).  After one warm-up set-up, a run repeats rounds of
``SETUP_BATCH`` timed set-ups (untraced runs only) and one whole study
until ``--seconds`` have passed, at least one round.  Set-ups are spread
over the run rather than timed in one burst because the CPU speed of a
shared host drifts over tens of seconds.

The run reports the medians of the end-to-end metrics (``--trace 0``),
or the per-layer metrics of the study with the median traced time
(``--trace 1``), whose layer self times add up to that time.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` (level solves) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from study import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_BATCH = 3
CHILD_TIMEOUT_S = 120
BLAS_THREADS = "1"

END_TO_END = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB", "err_sigma_final": "1"}
PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.refine_s": "s",
    "mesh.mark_s": "s",
    "trace_space.bc_s": "s",
    "forms.local_s": "s",
    "forms.us_per_element": "us",
    "forms.repeated_shape_share": "1",
    "linsolve.solve_s": "s",
    "linsolve.nnz_final": "count",
    "linsolve.factor_nnz_final": "count",
    "linsolve.rel_residual_final": "1",
    "dpg_solver.assemble_self_s": "s",
    "dpg_solver.estimate_s": "s",
    "problems.l2_s": "s",
    "study.self_s": "s",
    "study.traced_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run a measurement."""


def _child(mode, workload, seed, trace=0):
    env = dict(os.environ)
    # byte code is cached, as for an installed CLI, whatever the caller sets
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    cmd = [sys.executable, str(HERE / "study.py"), mode, "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} of {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} of {workload} exited with code {proc.returncode}")
    return proc.stdout


def time_setup(workload, seed):
    """Wall seconds of one fresh interpreter doing the workload's set-up."""
    start = time.perf_counter()
    _child("setup", workload, seed)
    return time.perf_counter() - start


def measure(workload, seed, seconds, trace):
    if not (SRC / "bilap_dpg" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    time_setup(workload, seed)  # warm-up: byte-code cache and file cache
    setups, reports = [], []
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < seconds:
        if not trace:
            setups += [time_setup(workload, seed) for _ in range(SETUP_BATCH)]
        reports.append(json.loads(_child("study", workload, seed, trace).splitlines()[-1]))
    metrics = {"setup_s": statistics.median(setups)} if setups else {}
    ok = [r for r in reports if not r["failed"]]
    if not ok:
        raise BenchError(f"every study of {workload} failed")
    if trace:
        # all layers of one study, the median one, so that they add up
        by_time = sorted(ok, key=lambda r: r["study_s"])
        layers = by_time[(len(by_time) - 1) // 2]["layers"]
        metrics.update((name, layers[name]) for name in PER_LAYER)
    else:
        for name in ("study_s", "peak_rss_mb", "err_sigma_final"):
            metrics[name] = statistics.median(r[name] for r in ok)
    checks = [check for r in reports for check in r["checks"]]
    for name, passed, detail in checks:
        if not passed:
            print(f"check {name} FAILED: {detail}", file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(f"{workload}: studies of {[round(r['study_s'], 3) for r in reports]} s, "
          f"set-ups of {[round(t, 3) for t in setups]} s, "
          f"{len(checks)} checks, {sum(not c[1] for c in checks)} failed")
    return {
        "correct": bool(ok) and all(c[1] for c in checks),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
