"""Symmetric linear-algebra kernels.

Everything in here operates on subdomain-sized blocks (a few thousand
unknowns at most): pivoted Cholesky with explicit kernel extraction, the
generalized symmetric-definite eigensolver with its threshold rule, no-fill
incomplete Cholesky, and rank-revealing column orthonormalization.  One
factor type, :class:`PivotedFactor`, serves every local solver and every
pivoted Cholesky; it keeps a sparse matrix as given and applies its
pseudo-inverse by one full-rank solve picked from what it holds (a sparse
triangular pair, a certified sparse LU, a dense triangular pair, or, with a
kernel, a dense Cholesky built at the first apply).  The pivoted Cholesky
and the full-spectrum eigensolver densify transiently; the windowed
eigensolves of sparse pencils stay sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BreakdownNonpositivePivot,
    DimensionMismatch,
    IndefiniteMatrix,
    NonFiniteValue,
    NotSymmetric,
    PencilNotDefinite,
)

DEFAULT_PIVOT_TOL = 1e-10
# certificates of a sparse windowed eigensolve (see _sparse_window): the
# residual of each pair relative to (||M_A|| + |lambda| ||M_B||) ||y||, and
# the largest entry of Y^T M_B Y - I
SPARSE_RESIDUAL_TOL = 1e-10
SPARSE_ORTHO_TOL = 1e-8


def _as_dense_symmetric(M, tol: float, name: str = "matrix") -> np.ndarray:
    """Densify and symmetrize, rejecting asymmetry beyond ``tol`` (relative)."""
    A = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    return _symmetric_part(A, tol, name)


def _symmetric_part(A, tol: float, name: str = "matrix"):
    """``(A + A^T) / 2`` of a dense or sparse square ``A``.

    Raises :class:`NotSymmetric` when ``max|A - A^T|`` exceeds ``tol`` times
    ``max|A|``.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    scale = abs(A).max() if A.shape[0] else 0.0
    if scale > 0.0:
        skew = abs(A - A.T).max()
        if skew > tol * scale:
            raise NotSymmetric(
                f"{name} asymmetric: max|A - A^T| = {skew:.3e} > {tol:.1e} * {scale:.3e}"
            )
    return 0.5 * (A + A.T)


class PivotedFactor:
    """Cholesky factorization ``P M P^T = L L^T`` of an spsd matrix with kernel.

    ``source`` is ``M``; a sparse one is kept as given, never copied dense.
    The permutation is an index vector (``permutation[k]`` is the original
    index handled at step ``k``); ``lower_factor`` is ``L`` on the leading
    ``rank`` columns, the dense ``dpstrf`` factor or a sparse IC(0) factor.
    ``kernel_basis`` holds an l2-orthonormal basis of the numerical kernel,
    so ``rank + kernel_basis.shape[1] == dim``.  :meth:`apply_pinv` runs one
    full-rank solve, picked at the first apply: the triangular pair of a
    sparse ``L`` (SuperLU, natural order); for a full-rank sparse source,
    the sparse LU of :func:`_symmetric_inertia` when it certifies ``M``
    definite, else the dense triangular pair; with a kernel, one dense
    Cholesky of ``M + beta Z Z^T``.  The factor is checked for finiteness
    once here, so the solves skip scipy's scans.
    """

    def __init__(self, source, permutation, lower_factor, rank, kernel_basis):
        values = lower_factor.data if sp.issparse(lower_factor) else lower_factor
        if not np.isfinite(values).all():
            raise NonFiniteValue("Cholesky factor has non-finite entries")
        self.source = source
        self.permutation = permutation
        self.lower_factor = lower_factor
        self.rank = int(rank)
        self.kernel_basis = kernel_basis
        self._solve = None

    @property
    def dim(self) -> int:
        return self.source.shape[0]

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def full_rank(self) -> bool:
        return self.rank == self.dim

    def reconstruct(self):
        """Return ``P^T L L^T P``, equal to the input up to the drop tolerance."""
        inv = np.argsort(self.permutation)
        return (self.lower_factor @ self.lower_factor.T)[inv][:, inv]

    def _pick_solve(self):
        L, M, p = self.lower_factor, self.source, self.permutation
        if self.kernel_dim:
            # spd; apply_pinv removes the kernel component before and after,
            # so beta never enters the result
            M = M.toarray() if sp.issparse(M) else M
            Z = self.kernel_basis
            beta = M.diagonal().max(initial=0.0)
            beta = beta if beta > 0.0 else 1.0
            chol = sla.cho_factor(0.5 * (M + M.T) + beta * (Z @ Z.T), lower=True)
            return partial(sla.cho_solve, chol, check_finite=False)
        if sp.issparse(L):
            lu = spla.splu(sp.csc_matrix(L), permc_spec="NATURAL",
                           diag_pivot_thresh=0.0)
            tri = lu.solve
        else:
            counted = sp.issparse(M) and _symmetric_inertia(M)
            if counted and not counted[1]:
                return counted[0].solve
            tri = partial(sla.solve_triangular, L, lower=True, check_finite=False)

        def solve(w):
            out = np.empty_like(w)
            out[p] = tri(tri(w[p]), trans="T")
            return out
        return solve

    def apply_pinv(self, v: np.ndarray) -> np.ndarray:
        """Moore-Penrose pseudo-inverse ``M^+ v``; v a vector or (dim, k) block."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise DimensionMismatch(
                f"operand with {v.shape[0]} rows against factor of dim {self.dim}"
            )
        if self.rank == 0:
            return np.zeros_like(v)
        if self._solve is None:
            self._solve = self._pick_solve()
        Z = self.kernel_basis
        if not Z.shape[1]:
            return self._solve(v)
        x = self._solve(v - Z @ (Z.T @ v))
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
    indefinite inputs.  Both return ``(permutation, L, rank, kernel)``.  The
    factor's ``source`` is a sparse ``M`` as given, else its symmetric part.
    """
    A = _as_dense_symmetric(M, tol)
    parts = _pivoted_cholesky_lapack(A, tol) or _pivoted_cholesky_reference(A, tol)
    return PivotedFactor(M if sp.issparse(M) else A, *parts)


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
    return perm, L, rank, kernel


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


def _pivoted_cholesky_reference(A: np.ndarray, tol: float):
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
    return perm, L, rank, kernel


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

    def below(self, tau: float) -> GenEigResult:
        """The pairs strictly below ``tau``; a tie goes high as in gen_eig."""
        m = int(np.searchsorted(self.eigenvalues, tau, side="left"))
        return GenEigResult(self.eigenvalues[:m], self.eigenvectors[:, :m])


def gen_eig(M_A, M_B, tau=None, high=False) -> GenEigResult:
    """Solve ``M_A y = lambda M_B y`` for spsd ``M_A`` and spd ``M_B``.

    Textbook reduction: Cholesky ``M_B = L L^T``, dense symmetric
    eigendecomposition of ``L^{-1} M_A L^{-T}``, back-transform, sort.

    With a threshold ``tau`` only one selection is computed: the pairs
    strictly below ``tau``, or with ``high`` those at or above it, so an
    eigenvalue at ``tau`` always goes high (:meth:`GenEigResult.below`
    applies the same rule to a full spectrum).  When both matrices are
    sparse, the pairs come from the certified sparse solve of
    :func:`_sparse_window`; otherwise, or when any of its certificates
    fails, the dense reduction above runs with only the inner symmetric
    eigensolve restricted to the selection.  Without ``tau`` the whole
    spectrum is computed densely; that path is the reference the selections
    are tested against, and the one the oracle uses.
    """
    if tau is not None and sp.issparse(M_A) and sp.issparse(M_B):
        res = _sparse_window(M_A, M_B, tau, high)
        if res is not None:
            return res
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
    window = None
    if tau is not None:
        # eigh keeps (lo, hi]: below tau, or at or above it
        edge = np.nextafter(tau, -np.inf)
        window = (edge, np.inf) if high else (-np.inf, edge)
    lam, Q = sla.eigh(C, subset_by_value=window)
    Y = sla.solve_triangular(L, Q, lower=True, trans="T")
    return GenEigResult(eigenvalues=lam, eigenvectors=Y)


def _symmetric_inertia(M):
    """Sparse ``P M P^T = L U`` with no pivoting, and its negative pivot count.

    By Sylvester's law the signs of ``U``'s diagonal are the inertia of the
    symmetric ``M``.  Returns ``None`` unless the row and column
    permutations are equal and every pivot is finite and nonzero.
    """
    try:
        lu = spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:        # an exactly singular pivot column
        return None
    pivots = lu.U.diagonal()
    if (not np.array_equal(lu.perm_r, lu.perm_c)
            or not np.isfinite(pivots).all() or not pivots.all()):
        return None
    return lu, int(np.count_nonzero(pivots < 0.0))


def _sparse_window(M_A, M_B, tau, high):
    """Certified sparse solve of the selection at ``tau``, or ``None``.

    The low selection holds the eigenvalues below ``tau``, the high one
    (``high``) those at or above it.  Their count is the negative inertia
    of ``M_A - tau M_B``; when that factorization meets a zero pivot (an
    eigenvalue at ``tau``) it is taken at the next float below ``tau``, so
    a tie lands in the high selection, as :func:`gen_eig` rules.  An empty
    selection costs two factorizations.
    Otherwise ``count + 1`` pairs come from shift-invert Lanczos with a
    fixed start: the low end from the pencil at the shift ``-|tau|``, the
    high end from the dual pencil ``(M_B, M_A)`` at 0.  Their eigenvalues
    are the Rayleigh quotients of the ``M_B``-normalized vectors.

    ``None`` sends the call to the dense reduction, which raises the error
    of an invalid input.  It is returned for an invalid input, an ``M_B``
    whose inertia does not certify it definite, a selection of half the
    spectrum or more, and a failed certificate: the extra pair must lie on
    the other side of ``tau``, and every pair must pass the residual and
    ``M_B``-orthonormality checks.
    """
    try:
        A = _symmetric_part(sp.csc_matrix(M_A, dtype=float), 1e-10)
        B = _symmetric_part(sp.csc_matrix(M_B, dtype=float), 1e-10)
    except (DimensionMismatch, NotSymmetric):
        return None
    n = A.shape[0]
    if n == 0 or B.shape != A.shape:
        return None
    factor_B = _symmetric_inertia(B)
    counted = (_symmetric_inertia(A - tau * B)
               or _symmetric_inertia(A - np.nextafter(tau, -np.inf) * B))
    if factor_B is None or factor_B[1] or counted is None:
        return None
    count = n - counted[1] if high else counted[1]
    if count == 0:
        return GenEigResult(eigenvalues=np.zeros(0), eigenvectors=np.zeros((n, 0)))
    k = count + 1
    if 2 * k > n:
        return None
    if high:
        pencil, sigma, lu = (B, A), 0.0, factor_B[0]
    else:
        shifted = _symmetric_inertia(A + abs(tau) * B)
        if shifted is None or shifted[1]:
            return None
        pencil, sigma, lu = (A, B), -abs(tau), shifted[0]
    try:
        _, Y = spla.eigsh(
            pencil[0], k=k, M=pencil[1], sigma=sigma,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
            v0=np.random.default_rng(0).standard_normal(n))
    except (spla.ArpackError, spla.ArpackNoConvergence):
        return None
    Y = Y / np.sqrt(np.einsum("ij,ij->j", Y, B @ Y))
    lam = np.einsum("ij,ij->j", Y, A @ Y)
    order = np.argsort(lam)
    lam, Y = lam[order], Y[:, order]
    edge = 1 if high else count         # the first pair at or above tau
    if not lam[edge - 1] < tau <= lam[edge]:
        return None
    BY = B @ Y
    residual = np.linalg.norm(A @ Y - BY * lam, axis=0)
    bound = SPARSE_RESIDUAL_TOL * np.linalg.norm(Y, axis=0) \
        * (spla.norm(A, 1) + np.abs(lam) * spla.norm(B, 1))
    if (not (residual <= bound).all()
            or np.abs(Y.T @ BY - np.eye(k)).max() > SPARSE_ORTHO_TOL):
        return None
    inside = slice(edge, k) if high else slice(0, edge)
    return GenEigResult(eigenvalues=lam[inside], eigenvectors=Y[:, inside])


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
