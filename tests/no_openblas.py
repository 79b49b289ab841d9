"""A pytest plugin that runs the suite as on a numpy without its bundled OpenBLAS.

    PYTHONPATH=src python -m pytest -p tests.no_openblas

Before any test runs, it replaces ``tensormp.gram._openblas`` with a function
that returns None. Every real level is then copied from numpy's own product,
and every solve goes through ``eigvalsh``: this is the fallback path that a
numpy not built from a wheel takes. The tests read ``gram._openblas()`` to
know which path runs. ``gram.blas_fingerprint()`` still reads the loaded
library, so the golden runs compare this path's bytes with the same digests
rather than skip. Tests started in a subprocess keep the binding. Only the
test suite loads this module; the package never imports it.
"""

import tensormp.gram


def _absent() -> None:
    return None


def pytest_configure(config):
    tensormp.gram._openblas = _absent
