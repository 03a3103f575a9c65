"""Abstract Schwarz preconditioners.

Local solver variants (exact subdomain solves, weighted Neumann
pseudo-inverses, no-fill incomplete Cholesky), the one-level sum of lifted
local inverses, the coarse projector, and the hybrid/additive two-level
combinations; one-level is two-level with the empty coarse space V0 = {0},
where Pi = I.  All operators are matrix-free applies; dense materialization
for verification lives in :mod:`geneo.oracle`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    CoarseSingular,
    ConfigError,
    DimensionMismatch,
    IndefiniteMatrix,
    KernelNotInCoarseSpace,
    NonFiniteValue,
    UnsupportedVariant,
)
from .linalg import dense_pivoted_cholesky, ic0_factor, pivoted_cholesky

VARIANTS = ("as", "nn", "is")
MODES = ("one_level", "projected", "hybrid", "additive")
KERNEL_INCLUSION_TOL = 1e-8
ORTHO_TOL = 1e-10       # duplicate-column drop rule of CoarseSpace


def check_method(variant: str, mode: str = "one_level"):
    """Raise :class:`UnsupportedVariant` unless (variant, mode) is a defined
    method: a known variant and mode, and never the additive combination of
    the singular "nn" solvers."""
    if variant not in VARIANTS:
        raise UnsupportedVariant(f"variant: unknown variant {variant!r}")
    if mode not in MODES:
        raise UnsupportedVariant(f"mode: unknown mode {mode!r}")
    if mode == "additive" and variant == "nn":
        raise UnsupportedVariant("mode: the additive combination is undefined "
                                 "for 'nn' (singular local solvers)")


class LocalSolverSet:
    """Per-subdomain solvers defining the one-level preconditioner.

    variant "as": exact solves with R_s A R_s^T.
    variant "nn": pseudo-inverse of the weighted Neumann matrix M_s.
    variant "is": solves with the IC(0) product L_s L_s^T of R_s A R_s^T,
    factored in reverse Cuthill-McKee order (incomplete factorizations are
    ordering-sensitive; bandwidth reduction keeps them alive and effective).
    Every factor is a :class:`PivotedFactor` whose ``source`` is the
    sparse tilde matrix, never copied dense.  "as"/"nn" factors decide rank
    on the Jacobi-scaled ``N = S M S`` (:func:`pivoted_cholesky`): at full
    rank they apply ``S N^{-1} S`` by one certified sparse LU, with a kernel
    ``P S (N + Y Y^T)^{-1} S P`` by one dense Cholesky.  The IC(0) factor
    keeps ``L_s`` sparse; its tilde matrix is the CSR ``P^T L_s L_s^T P``.
    ``dirichlet`` holds the slices R_s A R_s^T the set was built from
    (``None`` if built by hand).
    """

    def __init__(self, variant, restrictions, factors, dirichlet=None):
        self.variant = variant
        self.restrictions = restrictions
        self.factors = factors
        self.dirichlet = dirichlet

    @property
    def n_subdomains(self) -> int:
        return len(self.restrictions)

    def tilde_matrix(self, s: int):
        return self.factors[s].source

    def kernel_basis(self, s: int) -> np.ndarray:
        return self.factors[s].kernel_basis

    def apply_local(self, s: int, xs: np.ndarray) -> np.ndarray:
        return self.factors[s].apply_pinv(xs)


def local_dirichlet_matrices(A, restrictions) -> list:
    """Subdomain slices R_s A R_s^T of the global operator."""
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
    return [A[m.global_index][:, m.global_index].tocsr() for m in restrictions]


def build_local_solvers(A, restrictions, variant: str,
                        weighted_neumann=None) -> LocalSolverSet:
    """Factorize the local solver of every subdomain for the given variant.

    ``weighted_neumann`` (the M_s list) is required for the "nn" variant and
    ignored otherwise.
    """
    check_method(variant)
    if variant == "nn" and weighted_neumann is None:
        raise ConfigError("variant 'nn' needs the weighted Neumann matrices")
    dirichlet = local_dirichlet_matrices(A, restrictions)
    if variant == "is":
        factors = [ic0_factor(As) for As in dirichlet]
    else:
        factors = [pivoted_cholesky(M) for M in
                   (dirichlet if variant == "as" else weighted_neumann)]
    return LocalSolverSet(variant, restrictions, factors, dirichlet)


def _coarse_matrix(A, blocks) -> np.ndarray:
    """E = Z^T A Z of the CSR ``A`` from ``(rows, V, columns)`` blocks:
    ``A[:, rows_t] V_t`` once per block, dense products over the pairs
    s <= t that A couples into the strict upper half and half the diagonal
    blocks, then ``E + E^T``: an entry and its mirror are one sum, so E is
    exactly symmetric."""
    k = sum(V.shape[1] for _, V, _ in blocks)
    E = np.zeros((k, k))
    for t, (rows, V, cols) in enumerate(blocks):
        At = A[:, rows]
        AV, coupled = At @ V, np.diff(At.indptr) > 0
        E[np.ix_(cols, cols)] = 0.5 * (V.T @ AV[rows])
        for rows_s, V_s, cols_s in blocks[:t]:
            if coupled[rows_s].any():
                E[np.ix_(cols_s, cols)] = V_s.T @ AV[rows_s]
    return E + E.T


def _kept_columns(Es, required):
    """``(perm, L, n0)`` of the unit-diagonal ``Es``: the ``required``
    columns first, by an unpivoted Cholesky of their block (a failure is
    :class:`CoarseSingular`), then the others that ``dpstrf`` keeps on
    their Schur complement, a pivot being the squared distance from the
    kept columns as on ``Es`` itself (``ORTHO_TOL``); ``L`` is the lower
    factor of ``Es[perm][:, perm]`` on its leading ``n0`` columns."""
    req, rest = np.flatnonzero(required), np.flatnonzero(~required)
    try:
        L11 = sla.cholesky(Es[np.ix_(req, req)], lower=True)
    except sla.LinAlgError as exc:
        raise CoarseSingular(f"lifted local solver kernels are dependent: "
                             f"{exc}") from exc
    L21 = sla.solve_triangular(L11, Es[np.ix_(req, rest)], lower=True).T
    p, L22, rank, _ = dense_pivoted_cholesky(
        Es[np.ix_(rest, rest)] - L21 @ L21.T, ORTHO_TOL)
    r = req.size
    L = np.zeros((Es.shape[0], r + rank))
    L[:r, :r], L[r:, :r], L[r:, r:] = L11, L21[p], L22
    return np.concatenate([req, rest[p]]), L, r + rank


class CoarseSpace:
    """Block-local coarse basis Z with the factored coarse matrix E = Z^T A Z.

    ``blocks`` is a list of ``(rows, V, columns)``, Z's column ``columns[j]``
    being ``V[:, j]`` on ``rows``.  Each kept block is held once, in
    ``V_blocks`` as ``(rows, Z[rows], positions)`` in the coarse ordering;
    ``Q = Z E^{-1} Z^T`` gathers, multiplies and scatters over them, and the
    A-orthogonal projector is ``Pi = I - Q A`` with the CSR system matrix
    ``A``.  E is formed from the blocks by dense products
    (:func:`_coarse_matrix`) and is exactly symmetric; :attr:`basis` builds
    the sparse Z on demand, for checks.  Columns are scaled
    to unit A-norm: ``dpstrf`` of ``E / outer(d, d)``, ``d = diag(E)^{1/2}``,
    drops a column whose pivot (squared A-norm distance from the kept
    columns over its own) is at or below ``ORTHO_TOL``; ``dropped_columns``
    counts them and ``min_pivot`` is the smallest kept pivot (``None`` if
    n0=0).  The columns of the boolean mask ``required`` are never dropped:
    they are factored first, and ``dpstrf`` runs on the Schur complement of
    the others (:func:`_kept_columns`).
    """

    def __init__(self, A, blocks, subdomain_counts=None, required=None):
        self.A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
        self.n = A.shape[0]
        E = _coarse_matrix(self.A, blocks)
        k = E.shape[0]
        if not np.isfinite(E).all():
            raise NonFiniteValue("coarse matrix has non-finite entries")
        d = np.sqrt(np.abs(np.diag(E)))
        d[d == 0.0] = 1.0           # a zero column has pivot 0 and is dropped
        required = (np.zeros(k, bool) if required is None
                    else np.asarray(required, bool))
        try:
            perm, L, self.n0 = _kept_columns(E / np.outer(d, d), required)
        except IndefiniteMatrix as exc:
            raise CoarseSingular(f"coarse operator not spd: {exc}") from exc
        position = np.empty(k, dtype=np.int64)
        position[perm] = np.arange(k)
        self.V_blocks = []
        for rows, V, cols in blocks:
            kept = position[cols] < self.n0
            if kept.any():
                self.V_blocks.append((rows, V[:, kept] / d[cols[kept]],
                                      position[cols[kept]]))
        self.dropped_columns = k - self.n0
        self._L = np.ascontiguousarray(L[:self.n0])
        self.min_pivot = float(np.diag(self._L).min() ** 2) if self.n0 else None
        self.subdomain_counts = subdomain_counts or []

    @property
    def basis(self):
        """Z as a sparse n x n0 matrix, in one COO pass over the blocks,
        built on demand for checks."""
        parts = [(np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))]
        for rows, V, pos in self.V_blocks:
            i, j = np.nonzero(V)
            parts.append((V[i, j], rows[i], pos[j]))
        data, i, j = (np.concatenate(p) for p in zip(*parts))
        return sp.csc_matrix((data, (i, j)), shape=(self.n, self.n0))

    def _restrict(self, x):
        c = np.empty((self.n0,) + x.shape[1:])
        for rows, V, pos in self.V_blocks:
            c[pos] = V.T @ x[rows]
        return c

    def _lift(self, c):
        out = np.zeros((self.n,) + c.shape[1:])
        for rows, V, pos in self.V_blocks:
            out[rows] += V @ c[pos]
        return out

    def solve(self, w: np.ndarray) -> np.ndarray:
        """E^{-1} w = L^{-T} L^{-1} w on the kept columns (E = L L^T)."""
        if not self.n0:
            return w
        y = sla.solve_triangular(self._L, w, lower=True, check_finite=False)
        return sla.solve_triangular(self._L, y, lower=True, trans="T",
                                    check_finite=False)

    def coarse_energy(self, Ay: np.ndarray) -> float:
        """||(I - Pi) y||_A^2 = ||L^{-1} Z^T A y||^2, from A y."""
        w = sla.solve_triangular(self._L, self._restrict(Ay), lower=True,
                                 check_finite=False)
        return float(w @ w)

    def coarse_apply(self, x: np.ndarray) -> np.ndarray:
        """Q x = Z E^{-1} Z^T x, for a vector or an (n, k) block x."""
        return self._lift(self.solve(self._restrict(x)))

    # the projections compose Q from the helpers: one traced call each
    def project(self, x: np.ndarray) -> np.ndarray:
        """Pi x = x - Q A x; x a vector or (n, k) block."""
        return x - self._lift(self.solve(self._restrict(self.A @ x)))

    def project_transpose(self, x: np.ndarray) -> np.ndarray:
        """Pi^T x = x - A Q x; x a vector or (n, k) block."""
        return x - self.A @ self._lift(self.solve(self._restrict(x)))


def empty_coarse_space(A) -> CoarseSpace:
    return CoarseSpace(A, [])


def kernel_inclusion_residual(A, local_set: LocalSolverSet,
                              coarse: CoarseSpace) -> float:
    """How far the lifted local solver kernels stick out of V0.

    The largest ``||Pi v||_A / ||v||_A`` over the lifted kernel basis
    vectors ``v``; zero when every kernel lies in the coarse space.
    """
    V = np.hstack([np.zeros((A.shape[0], 0))] + [
        m.prolong(local_set.kernel_basis(s))
        for s, m in enumerate(local_set.restrictions)])
    R = coarse.project(V)
    ratio = np.abs((R * (A @ R)).sum(0)) / np.maximum((V * (A @ V)).sum(0), 1e-60)
    return float(np.sqrt(ratio).max(initial=0.0))


class PreconditionedOperator:
    """Matrix-free two-level Schwarz preconditioner.

    Modes: "one_level", "projected" (deflation through the A-orthogonal
    projector; :meth:`apply` is Pi H), "hybrid" (balanced), "additive".
    Without a coarse space ``coarse`` is the empty one, V0 = {0}.
    ``kernel_inclusion`` (:func:`kernel_inclusion_residual`) is computed at
    build; projected and hybrid modes require it <= ``KERNEL_INCLUSION_TOL``.
    """

    def __init__(self, A, local_set: LocalSolverSet, coarse: CoarseSpace = None,
                 mode: str = "one_level"):
        check_method(local_set.variant, mode)
        if mode != "one_level" and not coarse:
            raise ConfigError(f"mode {mode!r} requires a coarse space")
        self.A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
        self.local_set = local_set
        self.coarse = coarse or empty_coarse_space(self.A)
        self.mode = mode
        self.kernel_inclusion = worst = kernel_inclusion_residual(
            self.A, local_set, self.coarse)
        if mode in ("projected", "hybrid") and worst > KERNEL_INCLUSION_TOL:
            raise KernelNotInCoarseSpace(
                f"local solver kernel sticks out of V0 by {worst:.3e} "
                f"(tolerance {KERNEL_INCLUSION_TOL:.1e})")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def _check_rows(self, x: np.ndarray):
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"expected {self.n} rows, got {x.shape[0]}")

    def apply_one_level(self, x: np.ndarray) -> np.ndarray:
        """H x = sum_s R_s^T pinv(tilde A_s) R_s x; x a vector or (n, k) block."""
        self._check_rows(x)
        out = np.zeros_like(x, dtype=float)
        ls = self.local_set
        for s, m in enumerate(ls.restrictions):
            out[m.global_index] += ls.apply_local(s, m.restrict(x))
        return out

    def apply_projector(self, x: np.ndarray) -> np.ndarray:
        """Pi x for a vector or an (n, k) block."""
        self._check_rows(x)
        return self.coarse.project(x)

    def apply_projector_transpose(self, x: np.ndarray) -> np.ndarray:
        """Pi^T x for a vector or an (n, k) block."""
        self._check_rows(x)
        return self.coarse.project_transpose(x)

    def coarse_component(self, b: np.ndarray) -> np.ndarray:
        """Q b = Z E^{-1} Z^T b; equals (I - Pi) x* when b = A x*."""
        self._check_rows(b)
        return self.coarse.coarse_apply(b)

    def apply_hybrid(self, x: np.ndarray) -> np.ndarray:
        """(Pi H Pi^T + Q) x = Pi H (x - A u) + u, u = Q x: two coarse
        solves; x a vector or (n, k) block."""
        self._check_rows(x)
        u = self.coarse.coarse_apply(x)
        return self.coarse.project(self.apply_one_level(x - self.A @ u)) + u

    def apply_additive(self, x: np.ndarray) -> np.ndarray:
        """(H + Q) x; x a vector or (n, k) block."""
        check_method(self.local_set.variant, "additive")
        return self.apply_one_level(x) + self.coarse.coarse_apply(x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Preconditioner application in the configured mode."""
        if self.mode == "one_level":
            return self.apply_one_level(x)
        if self.mode == "hybrid":
            return self.apply_hybrid(x)
        if self.mode == "additive":
            return self.apply_additive(x)
        return self.apply_projector(self.apply_one_level(x))


def interaction_graph(A, restrictions) -> np.ndarray:
    """Boolean N x N matrix: True where R_s A R_t^T has a structural nonzero."""
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
    n = A.shape[0]
    N = len(restrictions)
    rows = np.concatenate([m.global_index for m in restrictions])
    cols = np.concatenate([np.full(m.n_local, s)
                           for s, m in enumerate(restrictions)])
    M = sp.csc_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, N))
    pattern = A.copy()
    pattern.data = np.abs(pattern.data)
    reach = pattern @ M
    return (M.T @ reach).toarray() > 0.0


def color_subdomains(A, restrictions) -> np.ndarray:
    """Greedy coloring (largest degree first) of the interaction graph."""
    G = interaction_graph(A, restrictions)
    N = G.shape[0]
    degree = G.sum(axis=1)
    order = np.argsort(-degree, kind="stable")
    colors = -np.ones(N, dtype=np.int64)
    for s in order:
        used = {colors[t] for t in range(N) if t != s and G[s, t] and colors[t] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[s] = c
    return colors


def coloring_constant(A, restrictions) -> int:
    """Number of colors so that same-colored subdomains are A-orthogonal."""
    return int(color_subdomains(A, restrictions).max()) + 1
