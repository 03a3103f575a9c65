"""Kernels: pivoted Cholesky, pseudo-inverse, pencils, IC(0), orthonormalization."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from geneo.errors import (
    BreakdownNonpositivePivot,
    DimensionMismatch,
    IndefiniteMatrix,
    NotSymmetric,
    PencilNotDefinite,
)
from geneo.linalg import (
    gen_eig,
    incomplete_cholesky0,
    orthonormal_complement,
    orthonormalize_columns,
    pivoted_cholesky,
    split_threshold,
)
from helpers import dense_from_apply, random_spsd, random_spsd_conditioned


class TestPivotedCholesky:
    def test_identity_is_full_rank(self):
        f = pivoted_cholesky(np.eye(4), tol=1e-12)
        assert f.rank == 4
        assert f.kernel_basis.shape == (4, 0)

    def test_all_ones_kernel(self):
        # dense eigendecomposition oracle on the 2x2
        M = np.ones((2, 2))
        w, V = np.linalg.eigh(M)
        null = V[:, np.argmin(np.abs(w))]
        f = pivoted_cholesky(M)
        assert f.rank == 1
        z = f.kernel_basis[:, 0]
        assert abs(abs(z @ null) - 1.0) < 1e-12
        np.testing.assert_allclose(np.abs(z), np.full(2, np.sqrt(0.5)),
                                   atol=1e-12)

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            pivoted_cholesky(M)

    def test_rejects_indefinite(self):
        with pytest.raises(IndefiniteMatrix):
            pivoted_cholesky(np.diag([1.0, -1.0]))

    def test_reconstruction_and_kernel_quality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 31))
            M = random_spsd(rng, n, int(rng.integers(0, n + 1)))
            f = pivoted_cholesky(M)
            scale = max(np.abs(M).max(), 1.0)
            assert np.abs(f.reconstruct() - M).max() <= 1e-10 * scale
            Z = f.kernel_basis
            assert f.rank + Z.shape[1] == n
            if Z.shape[1]:
                assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() < 1e-12
                assert np.abs(M @ Z).max() <= 1e-8 * scale

    def test_matches_reference_loop(self):
        from geneo.linalg import _as_dense_symmetric, _pivoted_cholesky_reference

        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            M = random_spsd(rng, n, int(rng.integers(1, n + 1)))
            fast = pivoted_cholesky(M)
            ref = _pivoted_cholesky_reference(_as_dense_symmetric(M, 1e-10), 1e-10)
            assert fast.rank == ref.rank
            if fast.kernel_basis.shape[1]:
                ang = sla.subspace_angles(fast.kernel_basis, ref.kernel_basis)
                assert ang.max() < 1e-8


class TestApplyPinv:
    def test_invertible_solves(self):
        rng = np.random.default_rng(0)
        M = random_spsd(rng, 6, 6) + np.eye(6)
        f = pivoted_cholesky(M)
        v = rng.standard_normal(6)
        out = f.apply_pinv(v)
        assert np.linalg.norm(M @ out - v) <= 1e-10 * np.linalg.norm(v)

    def test_kernel_vector_maps_to_zero(self):
        f = pivoted_cholesky(np.ones((2, 2)))
        z = f.kernel_basis[:, 0]
        assert np.abs(f.apply_pinv(z)).max() < 1e-12

    def test_all_ones_pinv_value(self):
        # Moore-Penrose via dense SVD oracle: pinv(ones(2)) @ (1,0) = (1/4, 1/4)
        expected = np.linalg.pinv(np.ones((2, 2))) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(expected, [0.25, 0.25], atol=1e-15)
        f = pivoted_cholesky(np.ones((2, 2)))
        np.testing.assert_allclose(f.apply_pinv(np.array([1.0, 0.0])),
                                   expected, atol=1e-14)

    def test_dimension_mismatch(self):
        f = pivoted_cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            f.apply_pinv(np.ones(4))

    def test_moore_penrose_identities(self):
        # all three pseudo-inverse identities, dims 1..30
        rng = np.random.default_rng(11)
        for n in range(1, 31):
            M = random_spsd_conditioned(rng, n, int(rng.integers(0, n + 1)))
            f = pivoted_cholesky(M)
            P = dense_from_apply(f.apply_pinv, n)
            mscale = max(np.abs(M).max(), 1e-30)
            pscale = max(np.abs(P).max(), 1e-30)
            assert np.abs(P @ M @ P - P).max() <= 1e-12 * pscale
            assert np.abs(M @ P @ M - M).max() <= 1e-12 * mscale
            # range(M^+) = range(M): P maps onto range, annihilates kernel
            Z = f.kernel_basis
            if Z.shape[1]:
                assert np.abs(P @ Z).max() <= 1e-12 * max(pscale, 1.0)
                assert np.abs(Z.T @ P).max() <= 1e-12 * max(pscale, 1.0)


class TestGenEig:
    def test_identity_pencil(self):
        res = gen_eig(np.eye(3), np.eye(3))
        np.testing.assert_allclose(res.eigenvalues, np.ones(3), atol=1e-14)

    def test_decoupled_ratios(self):
        res = gen_eig(np.diag([2.0, 8.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(res.eigenvalues, [2.0, 4.0], atol=1e-12)

    def test_invariants_against_lapack_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 5
            MB = random_spsd(rng, n, n) + n * np.eye(n)
            MA = random_spsd(rng, n, int(rng.integers(0, n + 1)))
            res = gen_eig(MA, MB)
            oracle = sla.eigh(MA, MB, eigvals_only=True)
            scale = max(np.abs(oracle).max(), 1.0)
            np.testing.assert_allclose(res.eigenvalues, oracle,
                                       atol=1e-10 * scale)
            Y = res.eigenvectors
            assert np.abs(Y.T @ MB @ Y - np.eye(n)).max() < 1e-10
            D = Y.T @ MA @ Y
            assert np.abs(D - np.diag(res.eigenvalues)).max() \
                <= 1e-10 * max(np.abs(MA).max(), 1.0)

    def test_residual_per_column(self):
        rng = np.random.default_rng(9)
        MA = random_spsd(rng, 8, 5)
        MB = random_spsd(rng, 8, 8) + 8 * np.eye(8)
        res = gen_eig(MA, MB)
        for lam, y in zip(res.eigenvalues, res.eigenvectors.T):
            r = MA @ y - lam * (MB @ y)
            bound = 1e-9 * (np.abs(MA).max() + abs(lam) * np.abs(MB).max())
            assert np.abs(r).max() <= bound

    def test_not_definite_pencil(self):
        with pytest.raises(PencilNotDefinite):
            gen_eig(np.eye(2), np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gen_eig(np.eye(2), np.eye(3))


class TestSplitThreshold:
    def _result(self):
        MA = np.diag([0.0, 0.5, 1.0, 2.0])
        return gen_eig(MA, np.eye(4))

    def test_all_below(self):
        res = self._result()
        sel = split_threshold(res, 10.0)
        assert sel.m_L == 4 and sel.high.shape[1] == 0

    def test_all_at_or_above(self):
        res = self._result()
        sel = split_threshold(res, 1e-15)
        # strict < tau: even the zero eigenvalue is below any positive tau
        assert sel.m_L == 1
        sel = split_threshold(gen_eig(np.eye(3), np.eye(3)), 1.0)
        assert sel.m_L == 0 and sel.low.shape[1] == 0

    def test_tie_goes_high(self):
        sel = split_threshold(self._result(), 1.0)
        assert sel.m_L == 2
        np.testing.assert_allclose(sel.high_eigenvalues, [1.0, 2.0], atol=1e-12)

    def test_spectral_estimates_and_conjugacy(self):
        rng = np.random.default_rng(13)
        MA = random_spsd(rng, 9, 6)
        MB = random_spsd(rng, 9, 9) + 9 * np.eye(9)
        res = gen_eig(MA, MB)
        tau = float(np.median(res.eigenvalues[res.eigenvalues > 1e-12]))
        sel = split_threshold(res, tau)
        for _ in range(20):
            if sel.m_L:
                y = sel.low @ rng.standard_normal(sel.m_L)
                assert y @ MA @ y < tau * (y @ MB @ y) + 1e-10
            if sel.high.shape[1]:
                y = sel.high @ rng.standard_normal(sel.high.shape[1])
                assert y @ MA @ y >= tau * (y @ MB @ y) - 1e-10
        if sel.m_L and sel.high.shape[1]:
            cross = sel.low.T @ MB @ sel.high
            assert np.abs(cross).max() < 1e-10
        # the two blocks together span the whole space
        assert np.linalg.matrix_rank(np.hstack([sel.low, sel.high])) == 9


class TestIncompleteCholesky:
    def test_diagonal_exact(self):
        A = sp.diags([4.0, 9.0, 16.0]).tocsr()
        L = incomplete_cholesky0(A)
        np.testing.assert_allclose(L.toarray(), np.diag([2.0, 3.0, 4.0]),
                                   atol=1e-15)

    def test_tridiagonal_no_fill_is_exact(self):
        n = 6
        A = sp.diags([[-1.0] * (n - 1), [4.0] * n, [-1.0] * (n - 1)],
                     [-1, 0, 1]).tocsr()
        L = incomplete_cholesky0(A)
        exact = np.linalg.cholesky(A.toarray())
        assert np.abs(L.toarray() - exact).max() <= 1e-12

    def test_arrowhead_no_fill_is_exact(self):
        # dense LAST row/col: elimination creates no fill outside the pattern
        n = 5
        A = np.eye(n) * 4.0
        A[n - 1, :] = 1.0
        A[:, n - 1] = 1.0
        A[n - 1, n - 1] = 4.0
        L = incomplete_cholesky0(sp.csr_matrix(A))
        exact = np.linalg.cholesky(A)
        assert np.abs(L.toarray() - exact).max() <= 1e-12

    def test_laplacian_pattern_and_spectrum(self):
        g = 8
        I = sp.eye(g)
        T = sp.diags([[-1.0] * (g - 1), [4.0] * g, [-1.0] * (g - 1)], [-1, 0, 1])
        off = sp.diags([[-1.0] * (g - 1)], [-1])
        A = (sp.kron(I, T) + sp.kron(off, I) + sp.kron(off.T, I)).tocsr()
        L = incomplete_cholesky0(A)
        lowA = sp.tril(A).tocsr()
        lowA.sort_indices()
        L.sort_indices()
        assert np.array_equal(L.indices, lowA.indices)
        assert np.array_equal(L.indptr, lowA.indptr)
        E = A.toarray() - (L @ L.T).toarray()
        rel = np.linalg.norm(E) / np.linalg.norm(A.toarray())
        assert 0.0 < rel < 0.2
        # dense spectrum oracle of the preconditioned operator
        lam = sla.eigh(A.toarray(), (L @ L.T).toarray(), eigvals_only=True)
        np.testing.assert_allclose(lam.min(), 0.31984, atol=1e-4)
        np.testing.assert_allclose(lam.max(), 1.17819, atol=1e-4)

    def test_spd_breakdown_raises(self):
        # spd but IC(0) hits a negative pivot (Kershaw-type matrix)
        K = np.array([[3.0, -2.0, 0.0, 2.0],
                      [-2.0, 3.0, -2.0, 0.0],
                      [0.0, -2.0, 3.0, -2.0],
                      [2.0, 0.0, -2.0, 3.0]])
        assert np.linalg.eigvalsh(K).min() > 0
        with pytest.raises(BreakdownNonpositivePivot):
            incomplete_cholesky0(sp.csr_matrix(K))


class TestOrthonormalize:
    def test_orthonormal_input_kept(self):
        Q0, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 3)))
        Q = orthonormalize_columns(Q0, 1e-10)
        assert Q.shape == (8, 3)
        ang = sla.subspace_angles(Q, Q0)
        assert ang.max() < 1e-12

    def test_duplicate_column_dropped(self):
        v = np.arange(1.0, 6.0)
        Q = orthonormalize_columns(np.column_stack([v, v]), 1e-10)
        assert Q.shape[1] == 1

    def test_rank_deficient_projector(self):
        rng = np.random.default_rng(2)
        V = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 6))
        Q = orthonormalize_columns(V, 1e-10)
        assert Q.shape[1] == 4
        U = np.linalg.svd(V, full_matrices=False)[0][:, :4]
        assert np.abs(Q @ Q.T - U @ U.T).max() <= 1e-10

    def test_empty_input(self):
        Q = orthonormalize_columns(np.zeros((5, 0)), 1e-10)
        assert Q.shape == (5, 0)

    def test_complement(self):
        rng = np.random.default_rng(4)
        Z, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        W = orthonormal_complement(Z, 7)
        assert W.shape == (7, 5)
        assert np.abs(W.T @ W - np.eye(5)).max() < 1e-12
        assert np.abs(W.T @ Z).max() < 1e-12
        assert orthonormal_complement(np.zeros((4, 0)), 4).shape == (4, 4)
