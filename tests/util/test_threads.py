"""Tests for the training-step scope (``repro.util.threads``)."""

import threading

import pytest

from repro.util import blas_threads, set_blas_threads, threads
from repro.util import one_blas_thread, training_step


@pytest.fixture()
def two_blas_threads():
    """The process at two BLAS threads, whatever it started at."""
    count = blas_threads()
    if count is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    set_blas_threads(2)
    yield
    set_blas_threads(count)


def test_a_step_runs_one_blas_thread_and_restores_the_count(
        two_blas_threads):
    with training_step():
        assert blas_threads() == 1
        with training_step():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_a_raising_step_restores_the_count(two_blas_threads):
    with pytest.raises(RuntimeError):
        with training_step():
            raise RuntimeError("step failed")
    assert blas_threads() == 2
    assert threads.step_workers() == 1


def test_the_last_of_overlapping_steps_restores_the_count(
        two_blas_threads):
    """Two threads' steps overlap: the first to leave keeps one BLAS
    thread for the other, the last restores the count."""
    entered, leave = threading.Event(), threading.Event()

    def other():
        with training_step():
            entered.set()
            leave.wait(30)

    with training_step():
        thread = threading.Thread(target=other)
        thread.start()
        assert entered.wait(30)
    assert blas_threads() == 1
    leave.set()
    thread.join(30)
    assert not thread.is_alive()
    assert blas_threads() == 2


def test_only_the_stepping_thread_splits_kernels(monkeypatch):
    monkeypatch.setattr(threads, "kernel_workers", lambda: 2)
    seen = {}

    def other():
        seen["other"] = threads.step_workers()

    assert threads.step_workers() == 1
    with training_step():
        seen["step"] = threads.step_workers()
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(30)
        assert not thread.is_alive()
        with one_blas_thread():
            seen["blas"] = threads.step_workers()
    assert seen == {"step": 2, "other": 1, "blas": 2}
    with one_blas_thread():
        assert threads.step_workers() == 1


def test_kernel_workers_follow_the_affinity(monkeypatch):
    monkeypatch.setattr(threads.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    assert threads.kernel_workers() == 3
    monkeypatch.setattr(threads.os, "sched_getaffinity",
                        lambda pid: set(range(64)), raising=False)
    assert threads.kernel_workers() == threads.MAX_KERNEL_WORKERS
