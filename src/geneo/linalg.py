"""Symmetric linear-algebra kernels.

Everything in here operates on subdomain-sized blocks (a few thousand
unknowns at most): Jacobi-scaled pivoted Cholesky with explicit kernel
extraction, the generalized symmetric-definite eigensolver with its
threshold rule, no-fill incomplete Cholesky (a symbolic phase schedules
every update by whole-array operations, then a numeric sweep takes one
short step per column), and rank-revealing column orthonormalization.
One factor type, :class:`PivotedFactor`, serves every local solver.  It
keeps a sparse matrix as given and applies its pseudo-inverse by the one
solve its builder chose: an IC(0) triangular pair, a certified sparse LU,
or a dense Cholesky when the sparse LU cannot certify the Jacobi-scaled
matrix definite.  Windowed eigensolves of sparse pencils stay sparse,
in standard form on the factor of ``M_B``.  A sparse spd matrix also has
a band Cholesky factor, for the testbed's reference solution and the
oracle's congruence.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpstrf

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
    """Factor of an spsd ``M`` that applies its Moore-Penrose pseudo-inverse.

    ``source`` is ``M`` as given; a sparse one is never copied dense.
    ``kernel_basis`` is an l2-orthonormal basis ``Z`` of the numerical
    kernel (``rank + kernel_dim == dim``).  ``setup``, chosen by the
    factor's builder, takes no argument and returns the solve, a
    generalized inverse ``X`` of ``M`` (``M X M = M``) for a vector or a
    (dim, k) block; it runs at the first apply.  :meth:`apply_pinv` is
    ``P X P`` with ``P = I - Z Z^T``, the Moore-Penrose inverse.
    """

    def __init__(self, source, rank, kernel_basis, setup):
        self.source = source
        self.rank = int(rank)
        self.kernel_basis = kernel_basis
        self._setup = setup
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
            self._solve = self._setup()
        Z = self.kernel_basis
        if not Z.shape[1]:
            return self._solve(v)
        x = self._solve(v - Z @ (Z.T @ v))
        return x - Z @ (Z.T @ x)


def _scaled(solve, s):
    """``w -> S solve(S w)`` with ``S = diag(s)``, for a vector or a block."""
    def apply(w):
        t = s if w.ndim == 1 else s[:, None]
        return t * solve(t * w)
    return apply


def pivoted_cholesky(M, tol: float = DEFAULT_PIVOT_TOL) -> PivotedFactor:
    """Factor of the spsd ``M`` with kernel detection, by Jacobi scaling.

    A dense ``M`` is taken as CSR.  Every rank decision is taken on
    ``N = S M S``, ``S = diag(1/d)``, ``d_i = |M_ii|^{1/2}`` (1 where
    ``M_ii = 0``), whose unit diagonal makes it independent of the scale of
    ``M``'s rows (van der Sluis, 1969).  ``N`` is full rank when its sparse
    LU (:func:`_symmetric_inertia`) is certified, every pivot exceeds
    ``tol`` and shift-invert Lanczos on it finds ``lambda_min(N) > tol``;
    the apply is then ``S N^{-1} S`` by that LU.  Otherwise
    :func:`dense_pivoted_cholesky` factors the dense ``N``.  With ``Y`` an
    orthonormal basis of the stopped block, ``Ker(M)`` is the
    orthonormalized ``S Y`` and the apply is ``P S (N + Y Y^T)^{-1} S P``,
    one dense Cholesky built at the first apply, as
    ``M S (N + Y Y^T)^{-1} S M = M``.
    """
    M = M if sp.issparse(M) else sp.csr_matrix(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {M.shape}")
    d = np.sqrt(np.abs(M.diagonal()))
    d[d == 0.0] = 1.0
    S = sp.diags(1.0 / d)
    N = _symmetric_part((S @ M @ S).tocsc(), tol)
    lu = _certified_definite(N, tol)
    if lu is not None:
        return PivotedFactor(M, N.shape[0], np.zeros((N.shape[0], 0)),
                             partial(_scaled, lu.solve, 1.0 / d))
    _, _, rank, Y = dense_pivoted_cholesky(N, tol)
    Z = np.linalg.qr(Y / d[:, None])[0]
    return PivotedFactor(M, rank, Z, partial(_kernel_solve, N, Y, d))


def _kernel_solve(N, Y, d):
    """``S (N + Y Y^T)^{-1} S`` of :func:`pivoted_cholesky` by one dense
    Cholesky, ``Y`` the orthonormal kernel of ``N`` its rank decision found."""
    chol = sla.cho_factor(N.toarray() + Y @ Y.T, lower=True, overwrite_a=True)
    return _scaled(partial(sla.cho_solve, chol, check_finite=False), 1.0 / d)


def _certified_definite(N, tol):
    """The sparse LU of ``N`` when it certifies ``lambda_min(N) > tol``."""
    counted = _symmetric_inertia(N) if N.shape[0] > 1 else None
    if not counted or counted[1] or counted[0].U.diagonal().min() <= tol:
        return None
    lu, n = counted[0], N.shape[0]
    try:
        mu = spla.eigsh(N, k=1, sigma=0.0, return_eigenvectors=False,
                        OPinv=spla.LinearOperator((n, n), lu.solve, dtype=float),
                        v0=np.random.default_rng(0).standard_normal(n))
    except (spla.ArpackError, spla.ArpackNoConvergence):
        return None
    return lu if mu[0] > tol else None


def dense_pivoted_cholesky(A, tol: float):
    """``dpstrf`` of the spsd ``A``, densified and symmetrized up to ``tol``:
    ``(permutation, L, rank, kernel)``, ``L`` on the leading ``rank`` columns.
    It stops at a pivot at or below the absolute ``tol``, meant for a
    unit-diagonal ``A`` (Jacobi-scaled).

    A negative-definite block masquerades as a kernel, so the stopped
    block must pass a residual check; else :class:`IndefiniteMatrix`.
    """
    A = _as_dense_symmetric(A, tol)
    if not np.isfinite(A).all():
        raise NonFiniteValue("matrix has non-finite entries")
    n = A.shape[0]
    c, piv, rank, _ = dpstrf(A, tol=tol, lower=1)
    if np.diag(A).max(initial=0.0) <= tol:
        rank = 0        # dpstrf tests every pivot against tol but the first
    perm = np.asarray(piv, dtype=np.int64) - 1
    L = np.tril(c)[:, :rank]
    kernel = _kernel_from_factor(L, perm, rank, n)
    residual = np.abs(A @ kernel).max(initial=0.0)
    if residual > 1e3 * tol:
        raise IndefiniteMatrix(f"stopped block is no kernel: residual {residual:.3e}")
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


def gen_eig(M_A, M_B, tau=None) -> GenEigResult:
    """Solve ``M_A y = lambda M_B y`` for spsd ``M_A`` and spd ``M_B``.

    Textbook reduction: Cholesky ``M_B = L L^T``, dense symmetric
    eigendecomposition of ``L^{-1} M_A L^{-T}``, back-transform, sort.

    With a threshold ``tau`` only the pairs strictly below ``tau`` are
    computed, so an eigenvalue at ``tau`` is left out.  When both matrices
    are sparse, the pairs come from the certified sparse solve of
    :func:`_sparse_window`; otherwise, or when any of its certificates
    fails, the dense reduction above runs with only the inner symmetric
    eigensolve restricted to the selection (the oracle's reference for
    the flat selection).  Without ``tau`` the whole spectrum is computed
    densely; that path is the reference the selections are tested against.
    """
    if tau is not None and sp.issparse(M_A) and sp.issparse(M_B):
        res = _sparse_window(M_A, M_B, tau)
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
    # eigh keeps (lo, hi]: the pairs strictly below tau
    window = None if tau is None else (-np.inf, np.nextafter(tau, -np.inf))
    lam, Q = sla.eigh(C, subset_by_value=window)
    Y = sla.solve_triangular(L, Q, lower=True, trans="T")
    return GenEigResult(eigenvalues=lam, eigenvectors=Y)


def _cpu_count() -> int:
    """CPUs to fork onto: 1 without ``fork`` or while other Python threads run."""
    ok = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if ok and threading.active_count() == 1 else 1


def _map_subdomains(fn, items) -> list:
    """``[fn(x) for x in items]`` and its first error, by the parent (item 0
    first) and ``cpus - 1`` forked children that claim indices from one pipe
    (64 KiB) and pickle their ``(index, (result, error))`` lists back."""
    workers = min(_cpu_count(), n := len(items))
    if workers < 2 or n > 16385:
        return [fn(x) for x in items]
    claims, fill = os.pipe()
    os.write(fill, b"".join(i.to_bytes(4, "little") for i in range(1, n)))
    os.close(fill)
    fds, pids, done = [claims], [], {}
    claimed = map(partial(int.from_bytes, byteorder="little"),
                  iter(partial(os.read, claims, 4), b""))   # read one at a time

    def solve(indices):
        out = []
        for i in indices:
            try:
                out.append((i, (fn(items[i]), None)))
            except Exception as exc:
                return out + [(i, (None, exc))]
        return out
    try:
        for _ in range(workers - 1):
            fds += os.pipe()
            if not (pid := os.fork()):
                try:
                    with os.fdopen(fds[-1], "wb") as f:
                        pickle.dump(solve(claimed), f)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(fds.pop())
        done.update(solve(itertools.chain([0], claimed)))
        for r in fds[1:]:   # a dead child sends nothing: its items are redone
            with os.fdopen(r, "rb", closefd=False) as f, suppress(Exception):
                done.update(pickle.load(f))
    finally:    # a child is done once its results are read, or is stopped
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    done.update(solve(i for i in range(n) if i not in done))
    for i in range(n):      # all solved up to the first error
        if done[i][1] is not None:
            raise done[i][1]
    return [done[i][0] for i in range(n)]


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


def _sparse_window(M_A, M_B, tau):
    """Certified sparse solve of the pairs below ``tau``, or ``None``.

    Their count is the negative inertia of ``M_A - tau M_B``; when that
    factorization meets a zero pivot (an eigenvalue at ``tau``) it is taken
    at the next float below ``tau``, so a tie is left out, as
    :func:`gen_eig` rules.  An empty selection costs two factorizations
    (``M_B`` and ``M_A - tau M_B``), a non-empty one a third
    (``M_A + |tau| M_B``).  The symmetric LU ``P M_B P^T = L D L^T`` that
    certifies ``M_B`` definite gives ``M_B = F F^T``, ``F = P^T L D^{1/2}``,
    and with it the spectral transformation in standard form (Lehoucq,
    Sorensen & Yang, *ARPACK Users' Guide*, 1998): ``count + 1`` pairs of
    ``F^T (M_A + |tau| M_B)^{-1} F``, the largest, come from Lanczos with
    a fixed start, and ``Y = (M_A + |tau| M_B)^{-1} F U``.  Their
    eigenvalues are the Rayleigh quotients of the ``M_B``-normalized
    vectors.

    ``None`` sends the call to the dense reduction, which raises the error
    of an invalid input.  It is returned for an invalid input, a ``tau``
    at which ``M_A - tau M_B`` overflows, an ``M_B`` whose inertia does not
    certify it definite, a selection of half the spectrum or more, and a
    failed certificate: the extra pair must lie on the other side of
    ``tau``, and every pair must pass the residual and
    ``M_B``-orthonormality checks.
    """
    try:
        A = _symmetric_part(sp.csc_matrix(M_A, dtype=float), 1e-10)
        B = _symmetric_part(sp.csc_matrix(M_B, dtype=float), 1e-10)
    except (DimensionMismatch, NotSymmetric):
        return None
    n = A.shape[0]
    if (n == 0 or B.shape != A.shape
            or not np.isfinite(float(tau) * float(abs(B).max()))):
        return None         # A - tau B would overflow
    definite = _symmetric_inertia(B)
    # a zero diagonal entry of A - tau B (an exact tie, as on a homogeneous
    # field at tau = 1) goes to the next float below tau unfactored:
    # SuperLU's zero-pivot path was seen to crash the process there
    shifted = A - tau * B
    counted = ((_symmetric_inertia(shifted) if shifted.diagonal().all()
                else None)
               or _symmetric_inertia(A - np.nextafter(tau, -np.inf) * B))
    if definite is None or definite[1] or counted is None:
        return None
    count = counted[1]
    if count == 0:
        return GenEigResult(eigenvalues=np.zeros(0), eigenvectors=np.zeros((n, 0)))
    k = count + 1
    if 2 * k > n:
        return None
    lu = definite[0]
    F = (lu.L @ sp.diags(np.sqrt(lu.U.diagonal())))[lu.perm_r].tocsr()
    Ft = F.T
    del definite, counted, lu       # only F is needed from here on
    shifted = _symmetric_inertia(A + abs(tau) * B)
    if shifted is None or shifted[1]:
        return None
    solve = shifted[0].solve
    start = np.random.default_rng(0).standard_normal(n)
    U, lam = np.zeros((n, 0)), np.zeros(0)
    # one start vector finds one copy of a multiple eigenvalue (a kernel of
    # several components), the others only by rounding: the pairs found are
    # deflated and the search repeated until count of them lie below tau
    while np.count_nonzero(lam < tau) < count:
        want = k - np.count_nonzero(lam < tau)
        if U.shape[1] + want >= n:
            return None

        def deflated(z, U=U):
            z = Ft @ solve(F @ (z - U @ (U.T @ z)))
            return z - U @ (U.T @ z)

        try:
            _, V = spla.eigsh(
                spla.LinearOperator(
                    (n, n), dtype=float, matvec=deflated if U.shape[1]
                    else lambda z: Ft @ solve(F @ z)),
                k=want, which="LA", v0=start - U @ (U.T @ start))
        except (spla.ArpackError, spla.ArpackNoConvergence):
            return None
        U = np.column_stack([U, V])
        Y = solve(F @ U)
        Y = Y / np.sqrt(np.einsum("ij,ij->j", Y, B @ Y))
        lam = np.einsum("ij,ij->j", Y, A @ Y)
    order = np.argsort(lam)[:k]
    lam, Y = lam[order], Y[:, order]
    if not lam[count - 1] < tau <= lam[count]:
        return None
    BY = B @ Y
    residual = np.linalg.norm(A @ Y - BY * lam, axis=0)
    bound = SPARSE_RESIDUAL_TOL * np.linalg.norm(Y, axis=0) \
        * (spla.norm(A, 1) + np.abs(lam) * spla.norm(B, 1))
    if (not (residual <= bound).all()
            or np.abs(Y.T @ BY - np.eye(k)).max() > SPARSE_ORTHO_TOL):
        return None
    return GenEigResult(eigenvalues=lam[:count], eigenvectors=Y[:, :count])


def band_cholesky(A) -> np.ndarray:
    """Lower Cholesky factor of the sparse spd ``A``, in its own order, in
    the band storage of ``scipy.linalg.cholesky_banded`` (row ``d`` holds
    the ``d``-th subdiagonal), the half-bandwidth read from ``A``'s
    pattern.  Raises :class:`IndefiniteMatrix` when ``A`` is not spd.
    """
    low = sp.tril(A, format="csr").tocoo()       # duplicates summed
    band = np.zeros((int((low.row - low.col).max(initial=0)) + 1, A.shape[0]),
                    order="F")     # LAPACK order: factored and solved in place
    band[low.row - low.col, low.col] = low.data
    try:
        return sla.cholesky_banded(band, lower=True, overwrite_ab=True)
    except sla.LinAlgError as exc:
        raise IndefiniteMatrix(f"matrix is not spd: {exc}") from exc


def incomplete_cholesky0(A) -> sp.csr_matrix:
    """No-fill incomplete Cholesky IC(0) of a sparse spd matrix.

    The returned lower-triangular factor L has exactly the sparsity pattern
    of the lower triangle of A.  Two phases: a symbolic one lists, for each
    column ``k``, every update ``l_ij -= l_jk l_ik`` (``i >= j > k``) whose
    target ``(i, j)`` is stored, by one ``searchsorted`` over the keys
    ``col * n + row``; a numeric sweep then takes each column's pivot,
    scales the column and applies its updates at once.  Every entry gets
    its updates in ascending ``k``, as in the textbook column loop.  Raises
    :class:`BreakdownNonpositivePivot` for a pivot that is not strictly
    positive (NaN included), a missing diagonal entry reading as pivot 0;
    no diagonal shift is attempted.
    """
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=float))
    n = A.shape[0]
    low = sp.tril(A.tocsc(), format="csc")
    low.sort_indices()
    indptr, indices, data = low.indptr, low.indices, low.data.astype(float)
    col = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys = col * n + indices
    # a: each off-diagonal (j, k); b: each (i, k) at or after it in column k
    a = np.flatnonzero(indices != col)
    partners = indptr[col[a] + 1] - a
    a = np.repeat(a, partners)
    b = a + np.arange(a.shape[0]) - np.repeat(np.cumsum(partners) - partners, partners)
    target = indices[a].astype(np.int64) * n + indices[b]
    tgt = np.searchsorted(keys, target).clip(max=keys.shape[0] - 1)
    hit = keys[tgt] == target
    tgt, a, b = tgt[hit], a[hit], b[hit]
    start = np.searchsorted(col[a], np.arange(n + 1)).tolist()
    ptr = indptr.tolist()
    for k in range(n):
        c0, c1 = ptr[k], ptr[k + 1]
        d = data[c0] if c0 < c1 and indices[c0] == k else 0.0
        if not d > 0.0:
            raise BreakdownNonpositivePivot(f"pivot {d:.3e} at step {k}")
        data[c0] = r = math.sqrt(d)
        data[c0 + 1:c1] /= r
        s0, s1 = start[k], start[k + 1]
        data[tgt[s0:s1]] -= data[a[s0:s1]] * data[b[s0:s1]]
    out = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return out.tocsr()


def ic0_factor(A) -> PivotedFactor:
    """The factor of the CSR ``P^T L L^T P``, ``L = incomplete_cholesky0(P A P^T)``,
    of the sparse spd ``A`` with ``P`` its reverse Cuthill-McKee order."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee   # only "is" needs it
    perm = np.asarray(reverse_cuthill_mckee(A, symmetric_mode=True), dtype=np.int64)
    L = incomplete_cholesky0(A[perm][:, perm].tocsr())
    if not np.isfinite(L.data).all():
        raise NonFiniteValue("Cholesky factor has non-finite entries")
    inv = np.argsort(perm)
    return PivotedFactor((L @ L.T)[inv][:, inv].tocsr(), L.shape[0],
                         np.zeros((L.shape[0], 0)), partial(_triangular_pair, L, perm))


def _triangular_pair(L, p):
    """``w -> P^T L^{-T} L^{-1} P w`` by SuperLU (natural order) of the
    sparse lower ``L``, ``P`` the permutation ``p``."""
    lu = spla.splu(sp.csc_matrix(L), permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def solve(w):
        out = np.empty_like(w)
        out[p] = lu.solve(lu.solve(w[p]), trans="T")
        return out
    return solve


def orthonormalize_columns(V: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Rank-revealing orthonormalization of the columns of ``V``.

    Column-pivoted QR; columns whose pivot falls below ``tol`` times the
    largest pivot are dropped, so rank-deficient inputs shrink.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[1] == 0:
        return V.copy()
    if not np.all(np.isfinite(V)):
        raise NonFiniteValue("non-finite entries in input columns")
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
