"""Spies on the eigensolver's sparse and dense paths, and the seam that sets
how many processes ``linalg._map_subdomains`` uses, shared by the tests.

A spy's log written in a forked worker of ``linalg._map_subdomains`` stays
in that worker, so every spy holds the map to one CPU (``one_cpu``).  No
test may leave a child process behind (``no_child_left``), so every forked
map a test runs is checked to reap its workers.
"""

import os
import signal

import pytest

from geneo import linalg


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, the process has no child left to wait for."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid gave {left}")


@pytest.fixture
def one_cpu(monkeypatch):
    """Subdomain maps run serially, in this process."""
    monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)


@pytest.fixture
def sparse_solves(monkeypatch, one_cpu):
    """Sizes of the sparse thresholded solves; ``None`` for a fallback."""
    log = []
    real = linalg._sparse_window

    def spy(M_A, M_B, tau):
        res = real(M_A, M_B, tau)
        log.append(None if res is None else res.size)
        return res

    monkeypatch.setattr(linalg, "_sparse_window", spy)
    return log


@pytest.fixture
def densified(monkeypatch, one_cpu):
    """Shapes of the matrices the dense paths densified."""
    log = []
    real = linalg._as_dense_symmetric

    def spy(M, *args, **kwargs):
        log.append(M.shape)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "_as_dense_symmetric", spy)
    return log


@pytest.fixture
def workers(monkeypatch):
    """Set how many processes ``linalg._map_subdomains`` uses (a forked
    child for each but one, whatever the machine's CPU count).  A test that
    still waits after two minutes fails."""

    def expire(*_):
        raise TimeoutError("a forked map is still waiting")

    def use(count):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: count)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield use
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
