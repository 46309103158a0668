"""The benchmark's by-name patches still find what they patch.

`perfbench/study.py` wraps program functions by the names their callers
look them up under, for `--trace 1` runs and for the data its checks
read.  A deleted or renamed one must fail here, not in the benchmark.
"""

import importlib
from pathlib import Path

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
