"""Cap BLAS at one thread before any test module imports numpy.

The CLI pins the cap itself, but most tests call the library in
process, where OpenBLAS would otherwise start one thread per core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
