"""Kernels: pivoted Cholesky, pseudo-inverse, pencils, IC(0), orthonormalization."""

from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from geneo import linalg
from geneo.errors import (
    BreakdownNonpositivePivot,
    DimensionMismatch,
    IndefiniteMatrix,
    NonFiniteValue,
    NotSymmetric,
    PencilNotDefinite,
)
from geneo.linalg import (
    PivotedFactor,
    gen_eig,
    incomplete_cholesky0,
    orthonormal_complement,
    orthonormalize_columns,
    pivoted_cholesky,
)
from helpers import (
    dense_from_apply,
    desk,
    random_spsd,
    random_spsd_conditioned,
    toy,
)


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
            _, _, rank, kernel = _pivoted_cholesky_reference(
                _as_dense_symmetric(M, 1e-10), 1e-10)
            assert fast.rank == rank
            if fast.kernel_basis.shape[1]:
                ang = sla.subspace_angles(fast.kernel_basis, kernel)
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


def solve_kind(f):
    """The full-rank solve a factor picked at its first apply, or ``None``."""
    if f._solve is None:
        return None
    if isinstance(getattr(f._solve, "__self__", None), spla.SuperLU):
        return "sparse LU"
    if isinstance(f._solve, partial) and f._solve.func is sla.cho_solve:
        return "dense Cholesky"
    return "triangular pair"


class TestSparseFullRankApply:
    """Full-rank factors of sparse matrices apply a certified sparse LU.

    The reference is the dense path of the densified matrix: the triangular
    pair of ``pivoted_cholesky`` of ``source.toarray()``.
    """

    @pytest.mark.parametrize("setup", [toy, desk])
    @pytest.mark.parametrize("variant", ["as", "nn"])
    def test_matches_dense_triangular_path(self, setup, variant, monkeypatch):
        rng = np.random.default_rng(8)
        factors = setup().local_solvers(variant).factors
        assert all(sp.issparse(f.source) for f in factors)
        cases = []
        for f in factors:
            if f.full_rank:
                ref = pivoted_cholesky(f.source.toarray())
                assert not sp.issparse(ref.source)
                cases += [(f, v, ref.apply_pinv(v)) for v in (
                    rng.standard_normal(f.dim), rng.standard_normal((f.dim, 5)))]
                assert solve_kind(ref) == "triangular pair"
                scale = abs(f.source).max()
                assert np.abs(f.reconstruct() - f.source.toarray()).max() \
                    <= 1e-10 * scale
        assert cases

        def dense_solve(*args, **kwargs):
            raise AssertionError("dense triangular solve on the sparse path")

        monkeypatch.setattr(linalg.sla, "solve_triangular", dense_solve)
        for f, v, want in cases:
            got = f.apply_pinv(v)
            assert got.shape == v.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            assert solve_kind(f) == "sparse LU"
        for f in factors:
            if not f.full_rank:         # the dense augmented path serves
                f.apply_pinv(rng.standard_normal(f.dim))
                assert solve_kind(f) == "dense Cholesky"

    @pytest.mark.parametrize("verdict", ["no factor", "negative pivot"])
    def test_uncertified_inertia_gives_dense_result(self, monkeypatch, verdict):
        real = linalg._symmetric_inertia

        def uncertified(M):
            lu, _ = real(M)
            return None if verdict == "no factor" else (lu, 1)

        monkeypatch.setattr(linalg, "_symmetric_inertia", uncertified)
        M = toy().dirichlet_locals[0]
        f = pivoted_cholesky(M)
        ref = pivoted_cholesky(M.toarray())
        rng = np.random.default_rng(9)
        for v in (rng.standard_normal(f.dim), rng.standard_normal((f.dim, 5))):
            np.testing.assert_array_equal(f.apply_pinv(v), ref.apply_pinv(v))
        assert solve_kind(f) == "triangular pair"


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


def _chain_pencil(n, neumann=True):
    """1D stiffness and mass matrices of ``n`` nodes (CSR, ascending spectrum).

    With ``neumann`` the stiffness matrix is singular (constant kernel);
    otherwise both ends are clamped and it is spd.
    """
    main = np.full(n, 2.0)
    if neumann:
        main[[0, -1]] = 1.0
    K = sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1])
    M = sp.diags([np.full(n - 1, 1.0), np.full(n, 4.0), np.full(n - 1, 1.0)],
                 [-1, 0, 1]) / 6.0
    return K.tocsr(), M.tocsr()


def _low(tau):
    return dict(tau=tau)


def _high(tau):
    return dict(tau=tau, high=True)


class TestSparseWindow:
    """The inertia-counted sparse path of ``gen_eig`` with a threshold."""

    @pytest.mark.parametrize("window", [_low(0.05), _low(0.4), _high(11.0),
                                        _high(11.9)],
                             ids=["low-few", "low-more", "high-more",
                                  "high-few"])
    @pytest.mark.parametrize("neumann", [True, False])
    def test_matches_dense_window(self, window, neumann, densified,
                                  sparse_solves):
        K, M = _chain_pencil(60, neumann)
        got = gen_eig(K, M, **window)
        assert densified == [] and sparse_solves == [got.size]
        assert got.size > 0
        full = gen_eig(K.toarray(), M.toarray())
        below = full.eigenvalues < window["tau"]
        inside = ~below if window.get("high") else below
        scale = np.abs(full.eigenvalues).max()
        assert got.size == np.count_nonzero(inside)
        assert np.abs(got.eigenvalues - full.eigenvalues[inside]).max() \
            <= 1e-10 * scale
        assert sla.subspace_angles(got.eigenvectors,
                                   full.eigenvectors[:, inside]).max() <= 1e-8
        Y = got.eigenvectors
        assert np.abs(Y.T @ (M @ Y) - np.eye(got.size)).max() <= 1e-10

    def test_empty_window_skips_lanczos(self, densified, monkeypatch):
        def no_lanczos(*args, **kwargs):
            raise AssertionError("an empty window needs no eigensolve")

        monkeypatch.setattr(linalg.spla, "eigsh", no_lanczos)
        K, M = _chain_pencil(40, neumann=False)
        for window in (_low(1e-4), _high(13.0)):
            res = gen_eig(K, M, **window)
            assert res.eigenvalues.shape == (0,)
            assert res.eigenvectors.shape == (40, 0)
        assert densified == []

    def _assert_dense_result(self, K, M, window):
        got = gen_eig(K, M, **window)
        ref = gen_eig(K.toarray(), M.toarray(), **window)
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.eigenvectors, ref.eigenvectors)

    @staticmethod
    def _tamper_lanczos(monkeypatch, tamper):
        real = spla.eigsh

        def tampered(*args, **kwargs):
            lam, Y = real(*args, **kwargs)
            return lam, tamper(Y.copy())

        monkeypatch.setattr(linalg.spla, "eigsh", tampered)

    @pytest.mark.parametrize("window", [_low(0.4), _high(11.0)],
                             ids=["low", "high"])
    def test_bad_residual_falls_back(self, window, monkeypatch,
                                     sparse_solves):
        # a small rotation inside the computed block keeps the vectors
        # orthonormal and the pairs on their sides of tau, but they are no
        # longer eigenvectors
        def rotate(Y):
            c, s = np.cos(1e-3), np.sin(1e-3)
            Y[:, [-2, -1]] = Y[:, [-2, -1]] @ np.array([[c, -s], [s, c]])
            return Y

        self._tamper_lanczos(monkeypatch, rotate)
        self._assert_dense_result(*_chain_pencil(60), window)
        assert sparse_solves == [None]

    @pytest.mark.parametrize("window", [_low(0.4), _high(11.0)],
                             ids=["low", "high"])
    def test_repeated_vector_falls_back(self, window, monkeypatch,
                                        sparse_solves):
        # a repeated eigenpair inside the window (both windows hold more
        # than three pairs) passes the residual and side checks; only the
        # M_B-orthonormality check sees that a direction is missing
        def repeat(Y):
            Y[:, 2] = Y[:, 1]
            return Y

        self._tamper_lanczos(monkeypatch, repeat)
        self._assert_dense_result(*_chain_pencil(60), window)
        assert sparse_solves == [None]

    @pytest.mark.parametrize("window", [_low(0.4), _high(11.0)],
                             ids=["low", "high"])
    def test_undercount_falls_back(self, window, monkeypatch, sparse_solves):
        # the count factorization (second inertia taken) reports one
        # eigenvalue too few inside the window, so the extra pair solved
        # falls inside the window too and the side certificate fails
        real = linalg._symmetric_inertia
        calls = []
        low = not window.get("high")

        def miscounted(M):
            lu, neg = real(M)
            calls.append(neg)
            if len(calls) == 2:
                neg += -1 if low else 1
            return lu, neg

        monkeypatch.setattr(linalg, "_symmetric_inertia", miscounted)
        self._assert_dense_result(*_chain_pencil(60), window)
        assert sparse_solves == [None]

    def test_inputs_checked_like_dense(self, sparse_solves, monkeypatch):
        # every invalid input leaves the sparse path before the eigensolve,
        # and the dense path raises its error
        def no_lanczos(*args, **kwargs):
            raise AssertionError("an invalid input reached the eigensolve")

        monkeypatch.setattr(linalg.spla, "eigsh", no_lanczos)
        K, M = _chain_pencil(30)
        skew = K.tolil()
        skew[0, 1] = 5.0
        bad_B = M - sp.diags(np.r_[1.0, np.zeros(29)])
        cases = [
            (NotSymmetric, skew.tocsr(), M),
            (PencilNotDefinite, K, bad_B.tocsr()),
            (PencilNotDefinite, K, sp.csr_matrix((30, 30))),
            (DimensionMismatch, K, _chain_pencil(31)[1]),
            (DimensionMismatch, K[:, :29], M[:, :29]),
        ]
        for error, MA, MB in cases:
            for window in (_low(0.4), _high(11.0)):
                with pytest.raises(error):
                    gen_eig(MA, MB, **window)
                with pytest.raises(error):
                    gen_eig(MA.toarray(), MB.toarray(), **window)
        assert set(sparse_solves) == {None}

    def test_dense_inputs_and_full_spectrum_stay_dense(self, sparse_solves):
        K, M = _chain_pencil(30)
        gen_eig(K.toarray(), M.toarray(), **_low(0.4))
        gen_eig(K, M.toarray(), **_low(0.4))
        gen_eig(K, M)
        assert sparse_solves == []


def ic0_factor(A):
    """A ``PivotedFactor`` of the IC(0) product in RCM order, as for "is"."""
    perm = np.asarray(reverse_cuthill_mckee(A, symmetric_mode=True))
    L = incomplete_cholesky0(A[perm][:, perm])
    inv = np.argsort(perm)
    return PivotedFactor((L @ L.T)[inv][:, inv].tocsr(), perm, L, A.shape[0],
                         np.zeros((A.shape[0], 0)))


class TestSparseCholeskyFactor:
    """``PivotedFactor`` with a sparse IC(0) ``L``: its apply against dense
    triangular solves with the same L."""

    @staticmethod
    def _dense_apply(factor, v):
        L = factor.lower_factor.toarray()
        p = factor.permutation
        y = sla.solve_triangular(L, v[p], lower=True)
        y = sla.solve_triangular(L, y, lower=True, trans="T")
        out = np.empty_like(y)
        out[p] = y
        return out

    def _check(self, factor, rng):
        n = factor.dim
        for v in (rng.standard_normal(n), rng.standard_normal((n, 5))):
            want = self._dense_apply(factor, v)
            got = factor.apply_pinv(v)
            assert got.shape == v.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert solve_kind(factor) == "triangular pair"

    def test_laplacian_factor(self):
        g = 9
        T = sp.diags([[-1.0] * (g - 1), [4.0] * g, [-1.0] * (g - 1)], [-1, 0, 1])
        off = sp.diags([[-1.0] * (g - 1)], [-1])
        A = (sp.kron(sp.eye(g), T) + sp.kron(off, sp.eye(g))
             + sp.kron(off.T, sp.eye(g))).tocsr()
        factor = ic0_factor(A)
        assert (factor.rank, factor.kernel_dim, factor.full_rank) == (g * g, 0, True)
        assert factor.kernel_basis.shape == (g * g, 0)
        assert sp.issparse(factor.source) and sp.issparse(factor.lower_factor)
        self._check(factor, np.random.default_rng(3))

    def test_is_local_solvers(self):
        rng = np.random.default_rng(5)
        ls = toy().local_solvers("is")
        for s, factor in enumerate(ls.factors):
            assert isinstance(factor, PivotedFactor)
            self._check(factor, rng)
            # the tilde matrix is the factor's source P^T L L^T P, kept
            # sparse, and the apply is its inverse
            T = ls.tilde_matrix(s)
            assert sp.issparse(T) and T is factor.source
            L = factor.lower_factor.toarray()
            inv = np.argsort(factor.permutation)
            want = (L @ L.T)[np.ix_(inv, inv)]
            assert np.abs(T.toarray() - want).max() <= 1e-12 * np.abs(want).max()
            x = rng.standard_normal(factor.dim)
            assert np.linalg.norm(factor.apply_pinv(T @ x) - x) \
                <= 1e-10 * np.linalg.norm(x)

    def test_wrong_rows_and_non_finite(self):
        L = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        factor = PivotedFactor(L @ L.T, np.arange(3), L, 3, np.zeros((3, 0)))
        for v in (np.ones(4), np.ones((2, 3))):
            with pytest.raises(DimensionMismatch):
                factor.apply_pinv(v)
        bad = sp.csr_matrix(np.diag([1.0, np.nan, 3.0]))
        with pytest.raises(NonFiniteValue):
            PivotedFactor(L @ L.T, np.arange(3), bad, 3, np.zeros((3, 0)))


class TestBelowThreshold:
    """``GenEigResult.below``: strictly below ``tau``, a tie goes high."""

    def _result(self):
        MA = np.diag([0.0, 0.5, 1.0, 2.0])
        return gen_eig(MA, np.eye(4))

    def test_all_below(self):
        res = self._result()
        low = res.below(10.0)
        assert low.size == 4 and res.eigenvectors[:, low.size:].shape[1] == 0

    def test_all_at_or_above(self):
        res = self._result()
        # strict < tau: even the zero eigenvalue is below any positive tau
        assert res.below(1e-15).size == 1
        low = gen_eig(np.eye(3), np.eye(3)).below(1.0)
        assert low.size == 0 and low.eigenvectors.shape == (3, 0)

    def test_tie_goes_high(self):
        res = self._result()
        low = res.below(1.0)
        assert low.size == 2
        np.testing.assert_array_equal(low.eigenvalues, res.eigenvalues[:2])
        np.testing.assert_allclose(res.eigenvalues[low.size:], [1.0, 2.0],
                                   atol=1e-12)

    def test_spectral_estimates_and_conjugacy(self):
        rng = np.random.default_rng(13)
        MA = random_spsd(rng, 9, 6)
        MB = random_spsd(rng, 9, 9) + 9 * np.eye(9)
        res = gen_eig(MA, MB)
        tau = float(np.median(res.eigenvalues[res.eigenvalues > 1e-12]))
        low = res.below(tau).eigenvectors
        high = res.eigenvectors[:, low.shape[1]:]
        for _ in range(20):
            if low.shape[1]:
                y = low @ rng.standard_normal(low.shape[1])
                assert y @ MA @ y < tau * (y @ MB @ y) + 1e-10
            if high.shape[1]:
                y = high @ rng.standard_normal(high.shape[1])
                assert y @ MA @ y >= tau * (y @ MB @ y) - 1e-10
        if low.shape[1] and high.shape[1]:
            cross = low.T @ MB @ high
            assert np.abs(cross).max() < 1e-10
        # the two blocks together span the whole space
        assert np.linalg.matrix_rank(np.hstack([low, high])) == 9


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
