"""One benchmark study, or one set-up, in the current process.

``run.py`` starts this file in a fresh interpreter for every
measurement::

    python3 perfbench/study.py setup --workload W --seed N
    python3 perfbench/study.py study --workload W --seed N --trace 0|1

``setup`` does what a command-line user pays before the first level:
imports, the problem, the formulation and the initial mesh.  ``study``
runs the whole study through ``bilap_dpg.cli.run_study``, the path
``bilap-dpg study`` takes, checks its outputs (``checks.py``) and
prints one JSON line.  With ``--trace 1`` the program's module
attributes are also wrapped in spans (``tracing.py``) and the line
carries per-layer figures as well.

Only the standard library and ``tracing.py`` are imported at module
level, so that the set-up time measures the program's imports and
nothing of the benchmark's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path

from tracing import BENCH, Patches, Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "_out"

#: interior vertices of the jittered squares move by up to this share
#: of the grid spacing in x and in y; 0.15 keeps every element far from
#: inverting (the smallest vertex-to-opposite-edge distance is h/sqrt(2))
JITTER = 0.15

#: per workload: the ``StudyConfig`` fields, smaller overrides for the
#: benchmark's own tests, and what the checks expect (``checks.py``)
WORKLOADS = {
    "square-s2-uniform": {
        "config": dict(problem="smooth", scheme=2, refine="uniform", levels=6,
                       field_degree=0, test_degree=4),
        "small": dict(levels=4),
        "expect": {
            "rates": [("err_sigma", "h", 2, 0.9, 1.1), ("eta", "h", 2, 0.9, 1.1)],
            "band": (0.6, 1.0),
        },
    },
    "sector-s2-adaptive": {
        "config": dict(problem="singular", scheme=2, refine="adaptive", theta=0.5,
                       max_dofs=20000, field_degree=0, test_degree=4),
        "small": dict(max_dofs=2000),
        "expect": {
            "rates": [("eta", "ndof", 8, 0.4, 0.6)],
            "band": (0.45, 0.8),
        },
    },
    "jitter-s1-p1": {
        "config": dict(problem="smooth", scheme=1, refine="uniform", levels=6,
                       field_degree=1, test_degree=4),
        "small": dict(levels=4),
        "jitter": True,
        "expect": {
            # h_max of a jittered mesh is random; ndof is not
            "rates": [("err_u", "ndof", 2, 0.9, 1.1), ("eta", "ndof", 2, 0.425, 0.575)],
            # scheme 1's sigma error stalls while eta keeps its rate, so the
            # ratio drifts upwards with the level; the band allows for it
            "band": (0.01, 0.5),
        },
    },
}


def jittered_square(n, rng):
    """Unit-square mesh laid out as ``make_unit_square(n)`` with every
    interior vertex moved by a uniform offset in [-JITTER/n, JITTER/n]^2."""
    import numpy as np

    from bilap_dpg.mesh import Mesh

    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ll = (jj * (n + 1) + ii).ravel()
    lr, ul = ll + 1, ll + n + 1
    ur = ul + 1
    triangles = np.stack([np.column_stack([ur, ll, lr]), np.column_stack([ll, ur, ul])], axis=1)
    interior = np.nonzero((vertices > 0.0).all(axis=1) & (vertices < 1.0).all(axis=1))[0]
    vertices[interior] += rng.uniform(-JITTER / n, JITTER / n, size=(len(interior), 2))
    return Mesh(vertices, triangles.reshape(-1, 3))


def _config(spec, small):
    config = dict(spec["config"])
    if small:
        config.update(spec["small"])
    return config


def setup(workload, seed):
    """Imports, problem, formulation and initial mesh of one workload."""
    from bilap_dpg import cli, forms, problems

    spec = WORKLOADS[workload]
    config = cli.StudyConfig(**_config(spec, False))
    problem = problems.smooth_problem() if config.problem == "smooth" else problems.singular_problem()
    forms.Formulation(config.scheme, config.field_degree, config.test_degree)
    if "jitter" in spec:
        import numpy as np

        return jittered_square(2, np.random.default_rng(seed))
    if config.refine == "adaptive":
        return problem.make_domain()
    return cli.make_unit_square(2)


def _shape_share(mesh):
    """Share of elements whose shape up to translation and scale (vertex
    order kept) occurs more than once in the mesh."""
    import numpy as np

    coords = mesh.triangle_coords()
    rel = (coords[:, 1:] - coords[:, :1]) / mesh.diameters[:, None, None]
    keys = np.round(rel.reshape(len(rel), -1), 9)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    return float(np.mean(counts[inverse.ravel()] > 1))


def _install_layers(patches, tracer):
    """Span every public entry point the study calls, by the name the
    calling module looks it up under."""
    import scipy.sparse.linalg

    from bilap_dpg import cli, dpg_solver, forms, mesh, problems

    def span(layer, owner, name):
        patches.set(owner, name, tracer.wrap(layer, getattr(owner, name)))

    span("mesh.build", mesh.Mesh, "__post_init__")
    span("mesh.build", cli, "make_unit_square")
    span("mesh.build", problems, "make_sector_domain")
    span("mesh.refine", dpg_solver, "refine_nvb")
    span("mesh.mark", dpg_solver, "doerfler_mark")
    for name in ("build_trace_space", "apply_clamped_bc", "interpolate_boundary_data"):
        span("trace_space.bc", dpg_solver, name)
    span("dpg_solver.assemble", dpg_solver, "assemble_and_solve")
    span("dpg_solver.estimate", dpg_solver, "error_indicators")
    span("linsolve.solve", dpg_solver, "sparse_spd_solve")
    span("problems.l2", problems, "l2_errors")

    local = forms.build_local_systems

    def build_local_systems(mesh, *args, **kwargs):
        with tracer.span("forms.local"):
            out = local(mesh, *args, **kwargs)
        with tracer.span(BENCH):
            counts = tracer.counts
            counts["elements"] = counts.get("elements", 0) + mesh.num_triangles
            counts["repeated_shapes"] = (
                counts.get("repeated_shapes", 0.0) + _shape_share(mesh) * mesh.num_triangles
            )
        return out

    patches.set(forms, "build_local_systems", build_local_systems)

    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        tracer.counts["factor_nnz"] = lu.nnz
        return lu

    patches.set(scipy.sparse.linalg, "splu", counting_splu)


class Capture:
    """Data for the checks, taken at the program's module boundaries.

    The fields of the finest level, the mesh of every level and the
    relative residual of every linear solve.  Its work runs in ``bench``
    spans, which the study time leaves out.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.meshes = []
        self.fields = None
        self.residuals = []
        self.entered = 0
        self.nnz = None

    def install(self, patches):
        import numpy as np

        from bilap_dpg import cli, dpg_solver

        solve_and_record = dpg_solver.solve_and_record
        sparse_spd_solve = dpg_solver.sparse_spd_solve

        def captured_solve_and_record(mesh, *args, **kwargs):
            self.entered += 1
            out = solve_and_record(mesh, *args, **kwargs)
            with self.tracer.span(BENCH):
                solution = out[1]
                self.meshes.append((mesh.vertices, mesh.triangles))
                self.fields = {
                    name: dict(
                        coeffs=field.coeffs.copy(),
                        centroid=field.centroid,
                        h=field.h,
                        trial_chol=field.trial_chol,
                        degree=field.degree,
                    )
                    for name, field in (("u", solution.u), ("sigma", solution.sigma))
                }
            return out

        def captured_sparse_spd_solve(a, b, *args, **kwargs):
            x = sparse_spd_solve(a, b, *args, **kwargs)
            with self.tracer.span(BENCH):
                self.residuals.append(float(np.linalg.norm(a @ x - b) / np.linalg.norm(b)))
                self.nnz = int(a.nnz)
            return x

        patches.set(dpg_solver, "solve_and_record", captured_solve_and_record)
        patches.set(cli, "solve_and_record", captured_solve_and_record)
        patches.set(dpg_solver, "sparse_spd_solve", captured_sparse_spd_solve)


def execute(workload, seed, trace, small=False):
    """Run one study in this process and return its figures and the
    data the checks need.  Every patch is undone before returning."""
    import numpy as np

    from bilap_dpg import cli
    from checks import read_study_csv

    spec = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{workload}-{os.getpid()}.csv"
    config = cli.StudyConfig(**_config(spec, small), output=str(csv_path))
    tracer = Tracer()
    capture = Capture(tracer)
    patches = Patches()
    failed = 0
    try:
        if "jitter" in spec:
            rng = np.random.default_rng(seed)
            patches.set(cli, "make_unit_square", lambda n: jittered_square(n, rng))
        if trace:
            _install_layers(patches, tracer)
        capture.install(patches)
        try:
            with tracer.span("study"):
                cli.run_study(config)
        except Exception:  # a failed level is counted, not fatal
            traceback.print_exc()
            failed = 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        patches.undo()
    rows = None if failed else read_study_csv(csv_path)
    csv_path.unlink(missing_ok=True)

    times = tracer.self_times()
    study_s = tracer.total("study") - tracer.total(BENCH)
    out = {
        "attempted": capture.entered,
        "failed": failed,
        "study_s": study_s,
        "peak_rss_mb": peak_rss_mb,
        "rows": rows,
        "meshes": capture.meshes,
        "residuals": capture.residuals,
    }
    if capture.fields:
        out.update(capture.fields)
    if trace and not failed:
        counts = tracer.counts
        layers = {f"{layer}_s": times.get(layer, 0.0) for layer in (
            "mesh.build", "mesh.refine", "mesh.mark", "trace_space.bc", "forms.local",
            "linsolve.solve", "dpg_solver.estimate", "problems.l2")}
        layers["dpg_solver.assemble_self_s"] = times.get("dpg_solver.assemble", 0.0)
        layers["study.self_s"] = times.get("study", 0.0)
        layers["study.traced_s"] = study_s
        layers["forms.us_per_element"] = 1e6 * layers["forms.local_s"] / counts["elements"]
        layers["forms.repeated_shape_share"] = counts["repeated_shapes"] / counts["elements"]
        layers["linsolve.nnz_final"] = capture.nnz
        layers["linsolve.factor_nnz_final"] = counts["factor_nnz"]
        layers["linsolve.rel_residual_final"] = capture.residuals[-1]
        out["layers"] = layers
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "study"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed)
        return 0

    from checks import run_checks

    result = execute(args.workload, args.seed, args.trace)
    checks = [] if result["failed"] else run_checks(WORKLOADS[args.workload], result)
    report = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "study_s": result["study_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "err_sigma_final": None if result["failed"] else float(result["rows"]["err_sigma"][-1]),
        "checks": checks,
        "layers": result.get("layers"),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
