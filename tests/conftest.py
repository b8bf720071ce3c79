"""Cap BLAS at one thread before any test module imports numpy.

The CLI pins the cap itself, but most tests call the library in
process, where OpenBLAS would otherwise start one thread per core.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def no_draws(monkeypatch):
    """Any weight draw fails: ``np.random.default_rng`` now hands out a
    generator whose ``normal`` raises."""
    import numpy as np

    class NoDrawGenerator(np.random.Generator):
        def normal(self, *args, **kwargs):
            raise AssertionError("a weight was drawn")

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: NoDrawGenerator(np.random.PCG64(seed)))
