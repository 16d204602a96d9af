"""One BLAS/OpenMP thread per process; ``pin()`` must run before numpy is imported."""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin():
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
