"""Test-process settings and oracles shared by every test module.

BLAS runs one thread in the test process, so its timings stay steady on a
small shared machine (shooting pool workers pin their own BLAS).  Set
before numpy is first imported, which reads these once.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def poly_values(poly, y):
    """An exact polynomial's values on y, by Horner's rule on its complex
    coefficients (np.polyval): the per-mode oracle that the package's
    powers-table evaluations are compared against."""
    return np.polyval(np.array(poly.to_complex_coeffs())[::-1], y)
