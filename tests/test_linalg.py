"""Kernels: pivoted Cholesky, pseudo-inverse, pencils, IC(0), orthonormalization."""

from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import reverse_cuthill_mckee

from geneo import linalg
from geneo.cli import ExperimentConfig, run
from geneo.errors import (
    BreakdownNonpositivePivot,
    DimensionMismatch,
    IndefiniteMatrix,
    NonFiniteValue,
    NotSymmetric,
    PencilNotDefinite,
)
from geneo.linalg import (
    SPARSE_RESIDUAL_TOL,
    PivotedFactor,
    band_cholesky,
    dense_pivoted_cholesky,
    gen_eig,
    ic0_factor,
    incomplete_cholesky0,
    orthonormal_complement,
    orthonormalize_columns,
    pivoted_cholesky,
)
from helpers import (
    below,
    case_a,
    dense_from_apply,
    desk,
    jacobi_scaled,
    negative_inertia,
    random_spsd,
    random_spsd_conditioned,
    reference_window,
    rigid_body_modes,
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

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch, match="must be square"):
            pivoted_cholesky(np.ones((2, 3)))

    def test_dense_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue, match="non-finite entries"):
            dense_pivoted_cholesky(np.diag([1.0, np.nan]), 1e-10)

    def test_reconstruction_and_kernel_quality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 31))
            M = random_spsd(rng, n, int(rng.integers(0, n + 1)))
            f = pivoted_cholesky(M)
            scale = max(np.abs(M).max(), 1.0)
            assert np.abs(reconstruct(M) - M).max() <= 1e-10 * scale
            Z = f.kernel_basis
            assert f.rank + Z.shape[1] == n
            if Z.shape[1]:
                assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() < 1e-12
                assert np.abs(M @ Z).max() <= 1e-8 * scale

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            M = random_spsd(rng, n, int(rng.integers(1, n + 1)))
            fast = pivoted_cholesky(M)
            d = np.sqrt(np.diag(M))
            rank, Y = reference_pivoted_cholesky(M / np.outer(d, d), 1e-10)
            assert fast.rank == rank
            if fast.kernel_basis.shape[1]:
                kernel = np.linalg.qr(Y / d[:, None])[0]
                ang = sla.subspace_angles(fast.kernel_basis, kernel)
                assert ang.max() < 1e-8

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_rank_is_scale_invariant(self, sparse):
        # D M D has the kernel D^{-1} Ker(M), whatever the spread of D
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(4, 25))
            M = random_spsd(rng, n, int(rng.integers(1, n + 1)))
            D = 10.0 ** rng.uniform(-5.0, 5.0, n)
            DMD = D[:, None] * M * D[None, :]
            f = pivoted_cholesky(M)
            g = pivoted_cholesky(sp.csr_matrix(DMD) if sparse else DMD)
            assert g.kernel_dim == f.kernel_dim
            if f.kernel_dim:
                moved = np.linalg.qr(f.kernel_basis / D[:, None])[0]
                assert sla.subspace_angles(g.kernel_basis, moved).max() < 1e-6


def reconstruct(M):
    """``D P^T L L^T P D`` from ``dense_pivoted_cholesky`` of the Jacobi-scaled
    ``M / outer(d, d)``, ``D = diag(d)``, ``d = diag(M)^{1/2}`` (1 where 0)."""
    d = np.sqrt(np.abs(np.diag(M)))
    d[d == 0.0] = 1.0
    perm, L, _, _ = dense_pivoted_cholesky(M / np.outer(d, d), 1e-10)
    inv = np.argsort(perm)
    return (L @ L.T)[inv][:, inv] * np.outer(d, d)


def reference_pivoted_cholesky(A, tol):
    """Diagonal-pivoted Cholesky loop: ``(rank, kernel)`` of the spsd ``A``.

    It stops once the largest remaining diagonal entry drops to the
    absolute ``tol``, as :func:`dense_pivoted_cholesky` does.
    """
    n = A.shape[0]
    work, perm = A.copy(), np.arange(n)
    L = np.zeros((n, n))
    rank = n
    for k in range(n):
        dk = np.diag(work)
        j = k + int(np.argmax(dk[k:]))
        pivot = dk[j]           # dk is a view of work, swapped below
        if pivot <= tol:
            rank = k
            break
        work[[k, j], :] = work[[j, k], :]
        work[:, [k, j]] = work[:, [j, k]]
        L[[k, j], :] = L[[j, k], :]
        perm[[k, j]] = perm[[j, k]]
        L[k, k] = np.sqrt(pivot)
        col = work[k + 1:, k] / L[k, k]
        L[k + 1:, k] = col
        work[k + 1:, k + 1:] -= np.outer(col, col)
    # the kernel of [L1; L2] [L1; L2]^T: columns [-L1^{-T} L2^T; I]
    top = -sla.solve_triangular(L[:rank, :rank], L[rank:, :rank].T,
                                lower=True, trans="T")
    raw = np.empty((n, n - rank))
    raw[perm] = np.vstack([top, np.eye(n - rank)])
    return rank, raw


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
    """The solve a factor applies: a certified sparse LU of the Jacobi-scaled
    matrix, the dense Cholesky of ``N + Y Y^T``, a triangular pair, or
    ``None`` before a first apply sets it up."""
    if f._solve is None:
        return None
    for cell in f._solve.__closure__ or ():
        inner = cell.cell_contents
        if isinstance(getattr(inner, "__self__", None), spla.SuperLU):
            return "sparse LU"
        if isinstance(inner, partial) and inner.func is sla.cho_solve:
            return "dense Cholesky"
    return "triangular pair"


def dense_pinv(M, kernel):
    """Moore-Penrose apply of the sparse spsd ``M`` with kernel ``span(kernel)``.

    ``P S N^+ S P`` with ``P = I - Z Z^T`` for the orthonormalized
    ``kernel`` and ``N^+`` from the full eigendecomposition of the
    Jacobi-scaled ``N = S M S``, then two steps of iterative refinement with
    residuals in extended precision: an eigensolver reference for the
    factors, which use Cholesky and LU.
    """
    k = kernel.shape[1]
    d = 1.0 / np.sqrt(M.diagonal())
    w, U = np.linalg.eigh(jacobi_scaled(M))
    Z = np.linalg.qr(kernel)[0]
    P = np.eye(M.shape[0]) - Z @ Z.T
    X = P @ ((d[:, None] * U[:, k:] / w[k:]) @ (d[:, None] * U[:, k:]).T) @ P
    M_ext = M.toarray().astype(np.longdouble)

    def apply(v):
        Pv = P @ v
        x = X @ Pv
        for _ in range(2):
            r = Pv.astype(np.longdouble) - M_ext @ x.astype(np.longdouble)
            x = x + X @ r.astype(float)
        return P @ x
    return apply


class TestSparseFullRankApply:
    """``as``/``nn`` factors of sparse matrices against a dense reference.

    Full-rank factors apply the certified sparse LU, kernel factors the
    dense Cholesky of ``N + Y Y^T``.  Both match the Moore-Penrose inverse
    built on the exact kernel (the rigid body modes, scaled by the
    partition of unity, of a floating subdomain), and the kernel dimension
    is that of the Jacobi-scaled ``dpstrf``.
    """

    @pytest.mark.parametrize("setup", [toy, desk, case_a],
                             ids=["toy", "desk", "case_a"])
    @pytest.mark.parametrize("variant", ["as", "nn"])
    def test_matches_dense_reference(self, setup, variant, monkeypatch):
        rng = np.random.default_rng(8)
        s = setup()
        ls = s.local_solvers(variant)
        weights, Ms, _ = s.scaled("k_scaling")
        mats = Ms if variant == "nn" else ls.dirichlet

        def dense_solve(*args, **kwargs):
            raise AssertionError("dense triangular solve in a local apply")

        cases = []
        for sd, (M, f) in enumerate(zip(mats, ls.factors)):
            assert sp.issparse(f.source) and f.source is M
            kernel = rigid_body_modes(s, sd)
            if variant == "nn":
                kernel *= weights[sd][:, None]  # Ker(D^-1 A D^-1) = D Ker(A)
            if np.abs(M @ kernel).max() > 1e-12 * abs(M).max():
                kernel = kernel[:, :0]          # not floating
            assert f.kernel_dim == kernel.shape[1] \
                == pivoted_cholesky(jacobi_scaled(M)).kernel_dim
            X = dense_pinv(M, kernel)
            cases += [(M, f, X, v) for v in (
                rng.standard_normal(f.dim), rng.standard_normal((f.dim, 5)))]
        assert {f.kernel_dim for f in ls.factors} == ({0} if variant == "as"
                                                     else {0, 3})
        monkeypatch.setattr(linalg.sla, "solve_triangular", dense_solve)
        for M, f, X, v in cases:
            got, want = f.apply_pinv(v), X(v)
            assert got.shape == v.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            # backward error: M M^+ v is the part of v in range(M)
            Pv = v - f.kernel_basis @ (f.kernel_basis.T @ v)
            assert np.abs(M @ got - Pv).max() <= 1e-12 * abs(M).max() \
                * np.abs(got).max()
            assert solve_kind(f) == ("dense Cholesky" if f.kernel_dim
                                     else "sparse LU")

    @pytest.mark.parametrize("verdict", ["no factor", "negative pivot",
                                         "small eigenvalue"])
    def test_uncertified_matrix_takes_dense_path(self, monkeypatch, verdict):
        real = linalg._symmetric_inertia

        def uncertified(M):
            lu, _ = real(M)
            return None if verdict == "no factor" else (lu, 1)

        def tiny(*args, **kwargs):
            return np.array([0.5 * linalg.DEFAULT_PIVOT_TOL])

        if verdict == "small eigenvalue":
            monkeypatch.setattr(linalg.spla, "eigsh", tiny)
        else:
            monkeypatch.setattr(linalg, "_symmetric_inertia", uncertified)
        M = toy().dirichlet_locals[0]
        f = pivoted_cholesky(M)
        assert f.full_rank and solve_kind(f) is None
        X = dense_pinv(M, np.zeros((f.dim, 0)))
        rng = np.random.default_rng(9)
        for v in (rng.standard_normal(f.dim), rng.standard_normal((f.dim, 5))):
            want = X(v)
            assert np.abs(f.apply_pinv(v) - want).max() \
                <= 1e-10 * np.abs(want).max()
        assert solve_kind(f) == "dense Cholesky"


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


def _laplacian(i, j, w, n):
    """Weighted graph Laplacian of the edges ``(i, j)``, CSR."""
    rows, cols = np.r_[i, j, i, j], np.r_[i, j, j, i]
    return sp.csr_matrix((np.r_[w, w, -w, -w], (rows, cols)), shape=(n, n))


@st.composite
def sparse_pencil(draw):
    """``(M_A, M_B, tau)``: ``M_A`` the Laplacian of a sparse graph with edge
    weights ``10^U(0, c)``, ``c <= 12``, whose 0-3 components carry no
    ground term, so its kernel has that dimension (one grounded component
    when it is 0); ``M_B`` spd on the same edges, each weight scaled by
    ``10^U(-1, 1)``, plus a diagonal of ``10^U(-2, 0)`` times each node's
    weighted degree.  ``tau`` is log-uniform on ``[1e-4, 1]``, keeps the
    window under half the spectrum and no eigenvalue within a relative
    1e-3 of it (by inertia), so the window's span is well separated."""
    n = draw(st.integers(20, 60))
    kernel = draw(st.integers(0, 3))
    c = draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = [], []
    for part in np.array_split(np.arange(n), max(kernel, 1)):
        chords = rng.choice(part, size=(part.shape[0] // 2, 2))
        chords = chords[chords[:, 0] != chords[:, 1]]
        i += [part[:-1], chords[:, 0]]
        j += [part[1:], chords[:, 1]]
    i, j = np.concatenate(i), np.concatenate(j)
    w = 10.0 ** rng.uniform(0.0, c, i.shape[0])
    A = _laplacian(i, j, w, n)
    if kernel == 0:
        A = A + sp.csr_matrix(([10.0 ** rng.uniform(0.0, c)], ([0], [0])),
                              shape=(n, n))
    B = _laplacian(i, j, w * 10.0 ** rng.uniform(-1.0, 1.0, w.shape[0]), n)
    B = B + sp.diags(B.diagonal() * 10.0 ** rng.uniform(-2.0, 0.0, n))
    tau = 10.0 ** draw(st.floats(-4.0, 0.0))
    counts = [negative_inertia((A - t * B).toarray())
              for t in (tau * (1.0 - 1e-3), tau * (1.0 + 1e-3))]
    assume(counts[0] == counts[1] and 2 * (counts[0] + 1) <= n)
    return A.tocsr(), B.tocsr(), tau


class TestSparseWindow:
    """The inertia-counted sparse path of ``gen_eig`` with a threshold."""

    @pytest.mark.parametrize("tau", [0.05, 0.4], ids=["low-few", "low-more"])
    @pytest.mark.parametrize("neumann", [True, False])
    def test_matches_dense_window(self, tau, neumann, densified,
                                  sparse_solves):
        K, M = _chain_pencil(60, neumann)
        got = gen_eig(K, M, tau=tau)
        assert densified == [] and sparse_solves == [got.size]
        assert got.size > 0
        full = gen_eig(K.toarray(), M.toarray())
        inside = full.eigenvalues < tau
        scale = np.abs(full.eigenvalues).max()
        assert got.size == np.count_nonzero(inside)
        assert np.abs(got.eigenvalues - full.eigenvalues[inside]).max() \
            <= 1e-10 * scale
        assert sla.subspace_angles(got.eigenvectors,
                                   full.eigenvectors[:, inside]).max() <= 1e-8
        Y = got.eigenvectors
        assert np.abs(Y.T @ (M @ Y) - np.eye(got.size)).max() <= 1e-10

    def test_missed_copy_of_a_multiple_eigenvalue(self, sparse_solves,
                                                  monkeypatch):
        # three uncoupled Neumann chains: the eigenvalue 0 has three
        # copies, and a single-vector Lanczos may return fewer; one dropped
        # copy is searched for again on the complement of the pairs found
        K, M = _chain_pencil(20)
        K, M = sp.block_diag([K] * 3, "csr"), sp.block_diag([M] * 3, "csr")
        eigsh = linalg.spla.eigsh
        calls = []

        def drops_one_copy(*args, **kwargs):
            w, V = eigsh(*args, **kwargs)
            calls.append(kwargs["k"])
            if len(calls) > 1:
                return w, V
            top = np.argsort(w)[::-1]
            return w[top[1:]], V[:, top[1:]]

        monkeypatch.setattr(linalg.spla, "eigsh", drops_one_copy)
        got = gen_eig(K, M, tau=1e-3)
        assert calls == [4, 2] and sparse_solves == [3]
        assert np.abs(got.eigenvalues).max() <= 1e-12
        kernel = sp.block_diag([np.ones((20, 1))] * 3).toarray()
        assert sla.subspace_angles(got.eigenvectors, kernel).max() <= 1e-8

    def test_empty_window_skips_lanczos(self, densified, monkeypatch):
        def no_lanczos(*args, **kwargs):
            raise AssertionError("an empty window needs no eigensolve")

        monkeypatch.setattr(linalg.spla, "eigsh", no_lanczos)
        K, M = _chain_pencil(40, neumann=False)
        res = gen_eig(K, M, tau=1e-4)
        assert res.eigenvalues.shape == (0,)
        assert res.eigenvectors.shape == (40, 0)
        assert densified == []

    def test_factorization_count(self, monkeypatch, sparse_solves):
        # an empty selection factors M_B and M_A - tau M_B; a non-empty one
        # also M_A + |tau| M_B, the Lanczos shift
        real = linalg._symmetric_inertia
        calls = []

        def counted(M):
            calls.append(M.shape)
            return real(M)

        monkeypatch.setattr(linalg, "_symmetric_inertia", counted)
        K, M = _chain_pencil(40, neumann=False)
        assert gen_eig(K, M, tau=1e-4).size == 0 and len(calls) == 2
        calls.clear()
        res = gen_eig(K, M, tau=0.4)
        assert res.size > 0 and len(calls) == 3
        assert sparse_solves == [0, res.size]

    def _assert_dense_result(self, K, M, tau):
        got = gen_eig(K, M, tau=tau)
        ref = gen_eig(K.toarray(), M.toarray(), tau=tau)
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.eigenvectors, ref.eigenvectors)

    @staticmethod
    def _tamper_lanczos(monkeypatch, tamper):
        real = spla.eigsh

        def tampered(*args, **kwargs):
            lam, Y = real(*args, **kwargs)
            return lam, tamper(Y.copy())

        monkeypatch.setattr(linalg.spla, "eigsh", tampered)

    def test_bad_residual_falls_back(self, monkeypatch, sparse_solves):
        # a small rotation inside the computed block keeps the vectors
        # orthonormal and the pairs on their sides of tau, but they are no
        # longer eigenvectors
        def rotate(Y):
            c, s = np.cos(1e-3), np.sin(1e-3)
            Y[:, [-2, -1]] = Y[:, [-2, -1]] @ np.array([[c, -s], [s, c]])
            return Y

        self._tamper_lanczos(monkeypatch, rotate)
        self._assert_dense_result(*_chain_pencil(60), 0.4)
        assert sparse_solves == [None]

    def test_repeated_vector_falls_back(self, monkeypatch, sparse_solves):
        # a repeated eigenpair inside the window (it holds more than three
        # pairs) passes the residual and side checks; only the
        # M_B-orthonormality check sees that a direction is missing
        def repeat(Y):
            Y[:, 2] = Y[:, 1]
            return Y

        self._tamper_lanczos(monkeypatch, repeat)
        self._assert_dense_result(*_chain_pencil(60), 0.4)
        assert sparse_solves == [None]

    def test_undercount_falls_back(self, monkeypatch, sparse_solves):
        # the count factorization (second inertia taken) reports one
        # eigenvalue too few inside the window, so the extra pair solved
        # falls inside the window too and the side certificate fails
        real = linalg._symmetric_inertia
        calls = []

        def miscounted(M):
            lu, neg = real(M)
            calls.append(neg)
            return lu, neg - 1 if len(calls) == 2 else neg

        monkeypatch.setattr(linalg, "_symmetric_inertia", miscounted)
        self._assert_dense_result(*_chain_pencil(60), 0.4)
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
            with pytest.raises(error):
                gen_eig(MA, MB, tau=0.4)
            with pytest.raises(error):
                gen_eig(MA.toarray(), MB.toarray(), tau=0.4)
        assert set(sparse_solves) == {None}

    def test_dense_inputs_and_full_spectrum_stay_dense(self, sparse_solves):
        K, M = _chain_pencil(30)
        gen_eig(K.toarray(), M.toarray(), tau=0.4)
        gen_eig(K, M.toarray(), tau=0.4)
        gen_eig(K, M)
        assert sparse_solves == []

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(sparse_pencil())
    def test_ties_generalized_mode_reference(self, pencil):
        # the standard-form Lanczos on M_B's factor against ARPACK's
        # generalized mode: the same count, eigenvalues within the
        # reference's residual certificate read as an eigenvalue tolerance
        # (tol (|M_A| + |lambda| |M_B|) |y|^2 for M_B-normalized y), and the
        # same span
        A, B, tau = pencil
        ref = reference_window(A, B, tau)
        got = linalg._sparse_window(A, B, tau)
        assert got is not None and got.size == ref.size
        if not ref.size:
            return
        Y = ref.eigenvectors
        certificate = SPARSE_RESIDUAL_TOL * np.einsum("ij,ij->j", Y, Y) \
            * (spla.norm(A, 1) + np.abs(ref.eigenvalues) * spla.norm(B, 1))
        assert (np.abs(got.eigenvalues - ref.eigenvalues) <= certificate).all()
        assert sla.subspace_angles(got.eigenvectors, Y).max() <= 1e-8

    @pytest.mark.parametrize("fields", [
        dict(partition_method="strips_y", variant="is", mode="hybrid",
             tau_sharp=0.5, tau_flat=10.0, n_subdomains=2, nx=16, ny=8),
        dict(partition_method="strips_y", variant="nn", mode="projected",
             tau_sharp=0.5, n_subdomains=2, nx=16, ny=8),
        dict(partition_method="rcb", variant="is", mode="additive",
             tau_sharp=0.5, tau_flat=10.0, n_subdomains=2, nx=12, ny=6),
    ], ids=["paper", "multiload", "desk"])
    def test_no_fallback_on_benchmark_builds(self, fields, sparse_solves,
                                             tmp_path):
        # the benchmark's three configurations at their toy size: every
        # window solve is certified, none falls back to the dense reduction
        rc, _ = run(ExperimentConfig(coefficients="with_layers",
                                     scaling="k_scaling", track_error=False,
                                     output_dir=str(tmp_path), **fields))
        assert rc == 0
        assert sparse_solves and None not in sparse_solves
        assert sum(sparse_solves) > 0


def rcm_ic0(A):
    """``(p, L)``: the reverse Cuthill-McKee order of the sparse ``A`` and
    the IC(0) factor of ``A`` permuted to it, as :func:`ic0_factor` builds."""
    p = reverse_cuthill_mckee(A, symmetric_mode=True)
    return p, incomplete_cholesky0(A[p][:, p].tocsr())


class TestBandCholesky:
    def test_indefinite_is_a_typed_error(self):
        with pytest.raises(IndefiniteMatrix):
            band_cholesky(-toy().A)
        with pytest.raises(IndefiniteMatrix):
            band_cholesky(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))


class TestSparseCholeskyFactor:
    """``ic0_factor``: its apply against dense triangular solves with the
    IC(0) factor of the matrix in reverse Cuthill-McKee order."""

    @staticmethod
    def _dense_apply(A, v):
        p, L = rcm_ic0(A)
        L = L.toarray()
        y = sla.solve_triangular(L, v[p], lower=True)
        y = sla.solve_triangular(L, y, lower=True, trans="T")
        out = np.empty_like(y)
        out[p] = y
        return out

    def _check(self, A, factor, rng):
        n = factor.dim
        for v in (rng.standard_normal(n), rng.standard_normal((n, 5))):
            want = self._dense_apply(A, v)
            got = factor.apply_pinv(v)
            assert got.shape == v.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert solve_kind(factor) == "triangular pair"

    def test_laplacian_factor(self):
        g = 9
        A = laplacian_2d(g)
        factor = ic0_factor(A)
        assert (factor.rank, factor.kernel_dim, factor.full_rank) == (g * g, 0, True)
        assert factor.kernel_basis.shape == (g * g, 0)
        assert sp.issparse(factor.source)
        self._check(A, factor, np.random.default_rng(3))

    def test_is_local_solvers(self):
        rng = np.random.default_rng(5)
        ls = toy().local_solvers("is")
        for s, factor in enumerate(ls.factors):
            assert isinstance(factor, PivotedFactor)
            self._check(ls.dirichlet[s], factor, rng)
            # the tilde matrix is the factor's source P^T L L^T P, kept
            # sparse, and the apply is its inverse
            T = ls.tilde_matrix(s)
            assert sp.issparse(T) and T is factor.source
            p, L = rcm_ic0(ls.dirichlet[s])
            L = L.toarray()
            inv = np.argsort(p)
            want = (L @ L.T)[np.ix_(inv, inv)]
            assert np.abs(T.toarray() - want).max() <= 1e-12 * np.abs(want).max()
            x = rng.standard_normal(factor.dim)
            assert np.linalg.norm(factor.apply_pinv(T @ x) - x) \
                <= 1e-10 * np.linalg.norm(x)

    def test_wrong_rows_and_non_finite(self):
        factor = ic0_factor(sp.diags([1.0, 4.0, 9.0]).tocsr())
        for v in (np.ones(4), np.ones((2, 3))):
            with pytest.raises(DimensionMismatch):
                factor.apply_pinv(v)
        # an infinite pivot passes IC(0) and leaves an infinite factor
        with pytest.raises(NonFiniteValue):
            ic0_factor(sp.diags([1.0, np.inf, 9.0]).tocsr())


class TestBelowThreshold:
    """``helpers.below``: strictly below ``tau``, a tie is left out."""

    def _result(self):
        MA = np.diag([0.0, 0.5, 1.0, 2.0])
        return gen_eig(MA, np.eye(4))

    def test_all_below(self):
        res = self._result()
        low = below(res, 10.0)
        assert low.size == 4 and res.eigenvectors[:, low.size:].shape[1] == 0

    def test_all_at_or_above(self):
        res = self._result()
        # strict < tau: even the zero eigenvalue is below any positive tau
        assert below(res, 1e-15).size == 1
        low = below(gen_eig(np.eye(3), np.eye(3)), 1.0)
        assert low.size == 0 and low.eigenvectors.shape == (3, 0)

    def test_tie_goes_high(self):
        res = self._result()
        low = below(res, 1.0)
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
        low = below(res, tau).eigenvectors
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
        A = laplacian_2d(8)
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
        assert np.linalg.eigvalsh(KERSHAW).min() > 0
        with pytest.raises(BreakdownNonpositivePivot):
            incomplete_cholesky0(sp.csr_matrix(KERSHAW))


def laplacian_2d(g):
    """The 5-point Laplacian of a ``g x g`` grid, diagonal 4, storing no
    zeros (``kron`` takes a block path for small ``g`` that stores some)."""
    T = sp.diags([[-1.0] * (g - 1), [4.0] * g, [-1.0] * (g - 1)], [-1, 0, 1])
    off = sp.diags([[-1.0] * (g - 1)], [-1])
    I = sp.eye(g)
    A = (sp.kron(I, T) + sp.kron(off, I) + sp.kron(off.T, I)).tocsr()
    A.eliminate_zeros()
    return A


KERSHAW = np.array([[3.0, -2.0, 0.0, 2.0],
                    [-2.0, 3.0, -2.0, 0.0],
                    [0.0, -2.0, 3.0, -2.0],
                    [2.0, 0.0, -2.0, 3.0]])


def reference_incomplete_cholesky0(A):
    """Column-by-column IC(0) loop: one ``searchsorted`` per off-diagonal
    entry, each update of column ``j`` made while column ``k < j`` is
    eliminated.  The kernel must match it bit for bit."""
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=float))
    n = A.shape[0]
    low = sp.tril(A.tocsc(), format="csc")
    low.sort_indices()
    indptr, indices, data = low.indptr, low.indices, low.data.astype(float)
    for k in range(n):
        c0, c1 = indptr[k], indptr[k + 1]
        d = data[c0] if c0 < c1 and indices[c0] == k else 0.0
        if not d > 0.0:
            raise BreakdownNonpositivePivot(f"pivot {d:.3e} at step {k}")
        data[c0] = np.sqrt(d)
        data[c0 + 1:c1] /= data[c0]
        rows = indices[c0 + 1:c1]
        vals = data[c0 + 1:c1]
        for jj in range(rows.shape[0]):
            j = rows[jj]
            ljk = vals[jj]
            j0, j1 = indptr[j], indptr[j + 1]
            colj = indices[j0:j1]
            if not colj.shape[0]:       # column j stores nothing to update
                continue
            targets = rows[jj:]
            pos = np.searchsorted(colj, targets)
            pos = np.minimum(pos, colj.shape[0] - 1)
            hit = colj[pos] == targets
            data[j0 + pos[hit]] -= ljk * vals[jj:][hit]
    out = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return out.tocsr()


def ic0_outcome(ic0, A):
    """``(indptr, indices, data)`` of ``ic0(A)``, or the breakdown message."""
    try:
        L = ic0(A)
    except BreakdownNonpositivePivot as exc:
        return str(exc)
    return L.indptr, L.indices, L.data


def assert_ties_reference(A):
    """The kernel and the reference loop agree bit for bit, or raise the
    same breakdown at the same step; returns the reference's outcome."""
    got = ic0_outcome(incomplete_cholesky0, A)
    want = ic0_outcome(reference_incomplete_cholesky0, A)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    return want


def _unsorted(A):
    """``A`` as CSR with every row's entries stored in reverse order."""
    A = sp.csr_matrix(A)
    order = np.concatenate([np.arange(A.indptr[r + 1] - 1, A.indptr[r] - 1, -1)
                            for r in range(A.shape[0])])
    out = sp.csr_matrix((A.data[order], A.indices[order], A.indptr.copy()),
                        shape=A.shape)
    assert not out.has_sorted_indices
    return out


def _explicit_zero():
    """Tridiagonal, diagonal 4, with zeros stored at (0, 2) and (2, 0)."""
    n = 5
    i = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n), [0, 2]])
    j = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1), [2, 0]])
    v = np.concatenate([np.full(n, 4.0), -np.ones(2 * (n - 1)), np.zeros(2)])
    A = sp.csr_matrix((v, (i, j)), shape=(n, n))
    assert A.nnz == 3 * n
    return A


class TestIncompleteCholeskyTiesReference:
    """The two-phase kernel against the column loop, bit for bit."""

    @pytest.mark.parametrize("setup", [desk, case_a], ids=["desk", "case_a"])
    def test_is_subdomains(self, setup):
        # exactly the matrices build_local_solvers factors, in RCM order
        s = setup()
        for As, factor in zip(s.dirichlet_locals, s.local_solvers("is").factors):
            p, L = rcm_ic0(As)
            want = ic0_outcome(reference_incomplete_cholesky0, As[p][:, p].tocsr())
            for g, w in zip((L.indptr, L.indices, L.data), want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            # the factor's source is P^T L L^T P of exactly that L
            inv = np.argsort(p)
            assert (factor.source != (L @ L.T)[inv][:, inv]).nnz == 0

    @pytest.mark.parametrize("make", [
        lambda: laplacian_2d(7),
        lambda: sp.csr_matrix((0, 0)),
        lambda: sp.csr_matrix([[4.0]]),
        lambda: sp.diags([4.0, 9.0, 16.0]).tocsr(),
        lambda: laplacian_2d(4).toarray(),
        lambda: _unsorted(laplacian_2d(5)),
        _explicit_zero,
    ], ids=["laplacian", "0x0", "1x1", "diagonal", "dense", "unsorted",
            "explicit_zero"])
    def test_small_inputs(self, make):
        assert not isinstance(assert_ties_reference(make()), str)

    @pytest.mark.parametrize("A, message", [
        (sp.csr_matrix(KERSHAW), "pivot -5.000e+00 at step 3"),
        # the zero diagonal value is not stored; a missing entry is pivot 0
        (sp.csr_matrix([[4.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 4.0]]),
         "pivot 0.000e+00 at step 1"),
        # a NaN pivot is not strictly positive
        (sp.csr_matrix([[4.0, 1.0, 0.0], [1.0, np.nan, 1.0], [0.0, 1.0, 4.0]]),
         "pivot nan at step 1"),
    ], ids=["kershaw", "missing_diagonal", "nan_pivot"])
    def test_breakdowns(self, A, message):
        assert assert_ties_reference(A) == message


@st.composite
def symmetric_sparse(draw, dominant):
    """A random symmetric pattern and values: strictly diagonally dominant
    with a positive diagonal, or with one diagonal entry at or below 0."""
    n = draw(st.integers(1, 12))
    mask = draw(arrays(bool, (n, n)))
    vals = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    off = np.tril(np.where(mask, vals, 0.0), -1)
    off = off + off.T
    if dominant:
        margin = draw(arrays(float, n, elements=st.floats(0.01, 2.0)))
        diag = np.abs(off).sum(axis=1) + margin
    else:
        diag = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
        diag[draw(st.integers(0, n - 1))] = -draw(st.floats(0.0, 2.0))
    return sp.csr_matrix(off + np.diag(diag))


class TestIncompleteCholeskyProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(symmetric_sparse(dominant=True))
    def test_dominant_ties_reference(self, A):
        assert not isinstance(assert_ties_reference(A), str)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(symmetric_sparse(dominant=False))
    def test_indefinite_breaks_at_reference_step(self, A):
        # a zero diagonal value is not stored and reads as pivot 0
        assert isinstance(assert_ties_reference(A), str)


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

    def test_non_finite_input_is_typed(self):
        with pytest.raises(NonFiniteValue):
            orthonormalize_columns(np.array([[np.nan], [1.0]]), 1e-10)

    def test_complement(self):
        rng = np.random.default_rng(4)
        Z, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        W = orthonormal_complement(Z, 7)
        assert W.shape == (7, 5)
        assert np.abs(W.T @ W - np.eye(5)).max() < 1e-12
        assert np.abs(W.T @ Z).max() < 1e-12
        assert orthonormal_complement(np.zeros((4, 0)), 4).shape == (4, 4)
