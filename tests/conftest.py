"""Run the tests with one BLAS thread, as the benchmark does.

The thread count changes the order of BLAS sums, so results can differ
in their last digits between thread counts, and the tests that compare
reruns bit for bit or pin measured figures are meant to see what the
benchmark sees.  The variables are read when numpy loads its BLAS, so
they must be set before the first import of numpy.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could fix the BLAS thread count"
    )
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
