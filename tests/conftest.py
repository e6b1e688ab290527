"""Test-session setup: run BLAS on one thread, as ``perfbench`` does.

The last bits of a sample covariance depend on how many BLAS threads split
the product, so one thread gives the same results on any host.  It is also
faster here: the Monte Carlo tests run thousands of small independent
products and factorizations, and at p=500 a replication took about 40 ms on
one thread against 60-70 ms (and three times the CPU time) on two, on a
2-core host.  The variables must be set before NumPy loads OpenBLAS, which
this module, loaded ahead of the test modules, does.  A value already set in
the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
