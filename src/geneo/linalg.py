"""Symmetric linear-algebra kernels.

Everything in here operates on modest dense blocks (subdomain size, a few
thousand unknowns at most): pivoted Cholesky with explicit kernel extraction,
the generalized symmetric-definite eigensolver with threshold splitting,
no-fill incomplete Cholesky, and rank-revealing column orthonormalization.
Sparse inputs are accepted and densified where a factorization is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    BreakdownNonpositivePivot,
    DimensionMismatch,
    IndefiniteMatrix,
    NotSymmetric,
    PencilNotDefinite,
)

DEFAULT_PIVOT_TOL = 1e-10


def _as_dense_symmetric(M, tol: float, name: str = "matrix") -> np.ndarray:
    """Densify and symmetrize, rejecting asymmetry beyond ``tol`` (relative)."""
    A = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    scale = np.abs(A).max() if A.size else 0.0
    if scale > 0.0:
        skew = np.abs(A - A.T).max()
        if skew > tol * scale:
            raise NotSymmetric(
                f"{name} asymmetric: max|A - A^T| = {skew:.3e} > {tol:.1e} * {scale:.3e}"
            )
    return 0.5 * (A + A.T)


class PivotedFactor:
    """Pivoted Cholesky factorization of an spsd matrix with explicit kernel.

    Stores ``P M P^T = L L^T`` on the leading ``rank`` block, where the
    permutation is kept as an index vector (``permutation[k]`` is the original
    index handled at step ``k``).  ``kernel_basis`` holds an l2-orthonormal
    basis of the numerical kernel, so ``rank + kernel_basis.shape[1] == dim``.
    Applications of the Moore-Penrose pseudo-inverse go through
    :meth:`apply_pinv`.
    """

    def __init__(self, matrix, permutation, lower_factor, rank, kernel_basis,
                 drop_tolerance):
        self.matrix = matrix
        self.permutation = permutation
        self.lower_factor = lower_factor
        self.rank = int(rank)
        self.kernel_basis = kernel_basis
        self.drop_tolerance = float(drop_tolerance)
        self._pinv_solver = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def full_rank(self) -> bool:
        return self.rank == self.dim

    def reconstruct(self) -> np.ndarray:
        """Return ``P^T L L^T P``, equal to the input up to the drop tolerance."""
        G = self.lower_factor @ self.lower_factor.T
        inv = np.argsort(self.permutation)
        return G[np.ix_(inv, inv)]

    def _solver(self):
        # Kernel-deficient case: solve with M + beta*Z*Z^T (spd), the kernel
        # component is projected out before and after so beta never enters
        # the result.
        if self._pinv_solver is None:
            Z = self.kernel_basis
            beta = np.diag(self.matrix).max(initial=0.0)
            if beta <= 0.0:
                beta = 1.0
            aug = self.matrix + beta * (Z @ Z.T)
            self._pinv_solver = sla.cho_factor(aug, lower=True)
        return self._pinv_solver

    def apply_pinv(self, v: np.ndarray) -> np.ndarray:
        """Moore-Penrose pseudo-inverse application ``M^+ v``."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise DimensionMismatch(
                f"vector of length {v.shape[0]} against factor of dim {self.dim}"
            )
        if self.rank == 0:
            return np.zeros_like(v)
        if self.full_rank:
            p = self.permutation
            y = sla.solve_triangular(self.lower_factor, v[p], lower=True)
            y = sla.solve_triangular(self.lower_factor, y, lower=True, trans="T")
            out = np.empty_like(v)
            out[p] = y
            return out
        Z = self.kernel_basis
        w = v - Z @ (Z.T @ v)
        x = sla.cho_solve(self._solver(), w)
        return x - Z @ (Z.T @ x)


def pivoted_cholesky(M, tol: float = DEFAULT_PIVOT_TOL) -> PivotedFactor:
    """Diagonal-pivoted Cholesky of an spsd matrix with kernel detection.

    The factorization stops once the largest remaining diagonal entry drops
    to ``tol`` times the largest initial diagonal entry; the stopped block
    defines the numerical kernel, for which an l2-orthonormal basis is
    returned.  A remaining diagonal entry below ``-tol`` times that reference
    raises :class:`IndefiniteMatrix`.

    Uses the blocked LAPACK routine when its result validates (same pivot
    rule); the reference loop below is the fallback and the arbiter for
    indefinite inputs.
    """
    A = _as_dense_symmetric(M, tol)
    fast = _pivoted_cholesky_lapack(A, tol)
    if fast is not None:
        return fast
    return _pivoted_cholesky_reference(A, tol)


def _pivoted_cholesky_lapack(A: np.ndarray, tol: float):
    from scipy.linalg.lapack import dpstrf

    n = A.shape[0]
    if n == 0:
        return None
    diag_ref = np.diag(A).max(initial=0.0)
    c, piv, rank, info = dpstrf(A, tol=tol * diag_ref, lower=1)
    if info < 0 or rank < 0 or rank > n:
        return None
    rank = int(rank)
    perm = np.asarray(piv, dtype=np.int64) - 1
    L = np.tril(c)[:, :rank]
    kernel = _kernel_from_factor(L, perm, rank, n)
    if rank < n:
        # A negative-definite block masquerades as a kernel; validate and
        # let the reference loop classify genuinely indefinite inputs.
        residual = np.abs(A @ kernel).max(initial=0.0)
        if residual > 1e3 * tol * max(diag_ref, 1.0):
            return None
    return PivotedFactor(A, perm, L, rank, kernel, tol)


def _kernel_from_factor(L, perm, rank, n):
    if rank == n:
        return np.zeros((n, 0))
    if rank == 0:
        return np.eye(n)
    # Null space of [L1; L2] [L1; L2]^T: columns [-L1^{-T} L2^T; I],
    # mapped back through the permutation and orthonormalized.
    L1 = L[:rank, :]
    L2 = L[rank:, :]
    top = -sla.solve_triangular(L1, L2.T, lower=True, trans="T")
    raw = np.vstack([top, np.eye(n - rank)])
    unperm = np.empty_like(raw)
    unperm[perm] = raw
    kernel, _ = sla.qr(unperm, mode="economic")
    return kernel


def _pivoted_cholesky_reference(A: np.ndarray, tol: float) -> PivotedFactor:
    n = A.shape[0]
    work = A.copy()
    perm = np.arange(n)
    diag_ref = np.diag(work).max(initial=0.0)
    L = np.zeros((n, n))
    rank = n
    for k in range(n):
        d = np.diag(work)
        j = k + int(np.argmax(d[k:]))
        pivot = d[j]
        if pivot <= tol * diag_ref:
            if d[k:].min() < -tol * max(diag_ref, 1.0):
                raise IndefiniteMatrix(
                    f"negative pivot {d[k:].min():.3e} at step {k}"
                )
            rank = k
            break
        if j != k:
            work[[k, j], :] = work[[j, k], :]
            work[:, [k, j]] = work[:, [j, k]]
            L[[k, j], :] = L[[j, k], :]
            perm[[k, j]] = perm[[j, k]]
        L[k, k] = np.sqrt(pivot)
        if k + 1 < n:
            col = work[k + 1:, k] / L[k, k]
            L[k + 1:, k] = col
            work[k + 1:, k + 1:] -= np.outer(col, col)

    L = L[:, :rank]
    kernel = _kernel_from_factor(L, perm, rank, n)
    return PivotedFactor(A, perm, L, rank, kernel, tol)


@dataclass(frozen=True)
class GenEigResult:
    """Eigenpairs of the pencil ``(M_A, M_B)``, ascending.

    Column ``j`` of ``eigenvectors`` pairs with ``eigenvalues[j]`` and the
    columns are ``M_B``-orthonormal: ``Y^T M_B Y = I`` and
    ``Y^T M_A Y = diag(eigenvalues)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def gen_eig(M_A, M_B) -> GenEigResult:
    """Solve ``M_A y = lambda M_B y`` for spsd ``M_A`` and spd ``M_B``.

    Textbook reduction: Cholesky ``M_B = L L^T``, dense symmetric
    eigendecomposition of ``L^{-1} M_A L^{-T}``, back-transform, sort.
    """
    A = _as_dense_symmetric(M_A, 1e-10, "M_A")
    B = _as_dense_symmetric(M_B, 1e-10, "M_B")
    if A.shape != B.shape:
        raise DimensionMismatch(f"pencil shapes differ: {A.shape} vs {B.shape}")
    try:
        L = sla.cholesky(B, lower=True)
    except sla.LinAlgError as exc:
        raise PencilNotDefinite(f"M_B is not spd: {exc}") from exc
    C = sla.solve_triangular(L, A, lower=True)
    C = sla.solve_triangular(L, C.T, lower=True)
    C = 0.5 * (C + C.T)
    lam, Q = sla.eigh(C)
    Y = sla.solve_triangular(L, Q, lower=True, trans="T")
    return GenEigResult(eigenvalues=lam, eigenvectors=Y)


@dataclass(frozen=True)
class EigenSelection:
    """Threshold split of a :class:`GenEigResult` into low and high blocks.

    Eigenvectors with eigenvalue strictly below ``threshold`` populate
    ``low`` (m_L columns), the rest populate ``high``.  Ties at the threshold
    go to ``high``.
    """

    threshold: float
    m_L: int
    low: np.ndarray
    high: np.ndarray
    eigenvalues: np.ndarray

    @property
    def low_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[:self.m_L]

    @property
    def high_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.m_L:]


def split_threshold(result: GenEigResult, tau: float) -> EigenSelection:
    """Split eigenpairs at ``tau``: strictly below to the low block."""
    if tau <= 0.0:
        raise ValueError(f"threshold must be positive, got {tau}")
    m_L = int(np.searchsorted(result.eigenvalues, tau, side="left"))
    return EigenSelection(
        threshold=tau,
        m_L=m_L,
        low=result.eigenvectors[:, :m_L],
        high=result.eigenvectors[:, m_L:],
        eigenvalues=result.eigenvalues,
    )


def incomplete_cholesky0(A) -> sp.csr_matrix:
    """No-fill incomplete Cholesky IC(0) of a sparse spd matrix.

    The returned lower-triangular factor L has exactly the sparsity pattern
    of the lower triangle of A.  Raises
    :class:`BreakdownNonpositivePivot` if a pivot is not strictly positive;
    no diagonal shift is attempted.
    """
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=float))
    n = A.shape[0]
    low = sp.tril(A.tocsc(), format="csc")
    low.sort_indices()
    indptr, indices, data = low.indptr, low.indices, low.data.astype(float)
    for k in range(n):
        c0, c1 = indptr[k], indptr[k + 1]
        if c0 == c1 or indices[c0] != k:
            raise BreakdownNonpositivePivot(f"missing diagonal entry in row {k}")
        d = data[c0]
        if d <= 0.0:
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
            targets = rows[jj:]
            pos = np.searchsorted(colj, targets)
            pos = np.minimum(pos, colj.shape[0] - 1)
            hit = colj[pos] == targets
            data[j0 + pos[hit]] -= ljk * vals[jj:][hit]
    out = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return out.tocsr()


def orthonormalize_columns(V: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Rank-revealing orthonormalization of the columns of ``V``.

    Column-pivoted QR; columns whose pivot falls below ``tol`` times the
    largest pivot are dropped, so rank-deficient inputs shrink.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[1] == 0:
        return V.copy()
    if not np.all(np.isfinite(V)):
        raise ValueError("non-finite entries in input columns")
    Q, R, _ = sla.qr(V, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(R))
    if pivots.size == 0 or pivots[0] == 0.0:
        return np.zeros((V.shape[0], 0))
    rank = int(np.count_nonzero(pivots > tol * pivots[0]))
    return Q[:, :rank]


def orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """l2-orthonormal basis of the orthogonal complement of ``span(basis)``."""
    k = basis.shape[1] if basis.ndim == 2 else 0
    if k == 0:
        return np.eye(dim)
    Q, _ = sla.qr(basis, mode="full")
    return Q[:, k:]
