"""The benchmark's by-name patches still find what they patch, and its
field reader still reads the program's fields.

`perfbench/study.py` wraps program functions by the names their callers
look them up under, for `--trace 1` runs and for the data its checks
read.  A deleted or renamed one must fail here, not in the benchmark.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from bilap_dpg import shape
from bilap_dpg.dpg_solver import BrokenField
from bilap_dpg.forms import Formulation, build_local_systems
from bilap_dpg.mesh import make_unit_square, refine_nvb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_patches_install_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    study = importlib.import_module("study")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    try:
        study._install_layers(patches, tracer)
        study.Capture(tracer).install(patches)
        saved = list(patches._saved)
    finally:
        patches.undo()
    assert saved
    # an attribute patched twice was first saved with its own value
    originals = {}
    for owner, name, value in saved:
        originals.setdefault((owner, name), value)
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, f"{owner}.{name} left patched"


def test_every_benchmark_patch_is_entered(monkeypatch, tmp_path):
    # a patched name the study no longer calls leaves its span silent:
    # count the calls through every patched attribute over a smooth
    # uniform study and a singular adaptive one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    study = importlib.import_module("study")
    tracing = importlib.import_module("tracing")
    from bilap_dpg import cli

    tracer = tracing.Tracer()
    patches = tracing.Patches()
    counts = {}
    try:
        study._install_layers(patches, tracer)
        study.Capture(tracer).install(patches)
        for key in dict.fromkeys((owner, name) for owner, name, _ in patches._saved):
            counts[key] = 0

            def counted(*args, _key=key, _fn=getattr(*key), **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            patches.set(*key, counted)
        output = str(tmp_path / "s.csv")
        cli.run_study(cli.StudyConfig(levels=2, output=output))
        cli.run_study(cli.StudyConfig(problem="singular", refine="adaptive", max_dofs=1000,
                                      output=output))
    finally:
        patches.undo()
    assert counts
    silent = [f"{getattr(owner, '__name__', owner)}.{name}"
              for (owner, name), n in counts.items() if n == 0]
    assert not silent, f"never entered: {silent}"


@pytest.mark.parametrize("degree", [1, 2])
def test_benchmark_field_reader_matches_the_program(monkeypatch, degree):
    # `checks.field_values` evaluates a field from the captured
    # coefficients, centroids, diameters and trial factors on its own:
    # it must agree with `BrokenField.eval`, whose trial factor is a
    # general (block-triangular) L with basis = monomials L^-T
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    mesh = refine_nvb(make_unit_square(2), [0, 5])  # elements of three sizes
    rng = np.random.default_rng(7)
    form = Formulation(scheme=1, field_degree=degree, test_degree=degree + 2)
    loc = build_local_systems(mesh, form, lambda x, y: np.ones_like(x))
    coeffs = rng.standard_normal((mesh.num_triangles, form.field_dim))
    field = BrokenField(degree, coeffs, loc.centroid, loc.h, loc.trial_chol)
    pts, _ = shape.map_to_triangle(shape.triangle_quadrature(6), mesh.triangle_coords())
    want = field.eval(np.arange(mesh.num_triangles), pts)
    captured = dict(
        coeffs=coeffs, centroid=loc.centroid, h=loc.h, trial_chol=loc.trial_chol, degree=degree
    )
    got = checks.field_values(captured, pts)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
