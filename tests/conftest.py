"""Pin the BLAS thread pools to one thread before numpy is imported.

With default BLAS threads one full run of the suite exceeded 20 minutes,
and two threaded processes sharing the cores made small vector norms
hundreds of times slower.  An explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
