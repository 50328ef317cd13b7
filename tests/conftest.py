"""Test-suite set-up: BLAS and OpenMP run on one thread, as in the benchmark.

The oracle kernels contract small arrays, for which starting BLAS threads
costs more than it saves.  This runs before any test module imports numpy;
a value already exported in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
