"""Checks that hold around every test."""

import pytest

from repro.util import blas_threads


@pytest.fixture(autouse=True)
def _blas_threads_unchanged():
    """No test leaves the process at another BLAS thread count.

    The count is process-wide and ``repro serve`` sets it to 1
    (DESIGN.md §25); a test that ran that call for real would change
    the thread count, and with it the bits, of every later test's
    BLAS calls.
    """
    before = blas_threads()
    yield
    assert blas_threads() == before, "the test changed the BLAS thread count"
