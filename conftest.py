"""Pin the BLAS/OpenMP thread pools to one thread for every test run
(tests/ and perfbench/tests), as perfbench/run.py and the kgdial CLI do,
before any test module loads numpy; a value set in the environment wins.
The models are single-threaded, and unpinned BLAS splits the stacked
training products over every core for no gain."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
