"""Test-process settings shared by every test module.

BLAS runs one thread per process: the shooting tests fork pool workers,
and with a threaded BLAS in each of them the workers oversubscribe the
cores.  Set before numpy is first imported, which reads these once.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
