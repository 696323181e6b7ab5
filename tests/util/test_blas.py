"""Tests for the OpenBLAS thread-count control (``repro.util.blas``)."""

import pytest

from repro.util import blas, blas_threads, set_blas_threads


@pytest.fixture()
def original():
    count = blas_threads()
    if count is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    yield count
    set_blas_threads(count)


@pytest.fixture()
def no_control(monkeypatch):
    """The lookup run against symbol names no BLAS exports."""
    blas._controls.cache_clear()
    monkeypatch.setattr(blas, "_SYMBOLS", (("no_such_get", "no_such_set"),))
    yield
    blas._controls.cache_clear()


def test_round_trip_restores_the_original_count(original):
    assert set_blas_threads(1) == 1
    assert blas_threads() == 1
    assert set_blas_threads(original) == original
    assert blas_threads() == original


def test_without_a_control_returns_none_and_changes_nothing(no_control):
    assert blas_threads() is None
    assert set_blas_threads(1) is None
