"""Spies on the eigensolver's sparse and dense paths, shared by the tests."""

import pytest

from geneo import linalg


@pytest.fixture
def sparse_solves(monkeypatch):
    """Sizes of the sparse thresholded solves; ``None`` for a fallback."""
    log = []
    real = linalg._sparse_window

    def spy(M_A, M_B, tau, high):
        res = real(M_A, M_B, tau, high)
        log.append(None if res is None else res.size)
        return res

    monkeypatch.setattr(linalg, "_sparse_window", spy)
    return log


@pytest.fixture
def densified(monkeypatch):
    """Shapes of the matrices the dense paths densified."""
    log = []
    real = linalg._as_dense_symmetric

    def spy(M, *args, **kwargs):
        log.append(M.shape)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "_as_dense_symmetric", spy)
    return log
