"""Pin BLAS to one thread for the whole suite, as benchmark/run.py does for
its workers, so wall-time budgets do not depend on how many threads BLAS
starts next to other load.  The variables must be set before numpy is first
imported; setdefault keeps a value the caller exported.  Tests that start
their own processes pass their own environment."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
