"""Settings for the whole test run.

Every property test draws the same examples on each run: the one
Hypothesis profile registered here is derandomized and loaded by
default. A test's own ``@settings`` (``max_examples``, ``deadline``)
still apply on top of it.

Each test starts with the BLAS thread variables as the session found
them. Importing ``perfbench/run.py`` pins all three to 1, and the exact
search reads them to choose its threads, so without this a test's
threads would depend on whether perfbench's tests were collected or ran
before it; now they come only from what the test sets itself.
"""

import os

import pytest
from hypothesis import settings

from neartag.index import _BLAS_THREAD_VARS

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# Read when pytest loads this file, before any test module is collected.
_BLAS_AT_START = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}


@pytest.fixture(autouse=True)
def blas_threads_as_at_start(monkeypatch):
    for var, value in _BLAS_AT_START.items():
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
