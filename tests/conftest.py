"""Run the tests with one BLAS thread, as the benchmark does.

The adaptive sector study depends on the BLAS thread count: its last
levels and its final err_sigma move when the thread count changes
(ROADMAP item 3), so the expectations of the tests hold at one thread.
The variables are read when numpy loads its BLAS, so they must be set
before the first import of numpy.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could fix the BLAS thread count"
    )
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
