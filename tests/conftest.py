"""Test-process settings shared by every test module.

BLAS runs one thread in the test process, so its timings stay steady on a
small shared machine (shooting pool workers pin their own BLAS).  Set
before numpy is first imported, which reads these once.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
