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
    out = []
    for m in restrictions:
        gi = m.global_index
        out.append(A[gi][:, gi].tocsr())
    return out


def build_local_solvers(A, restrictions, variant: str,
                        weighted_neumann=None) -> LocalSolverSet:
    """Factorize the local solver of every subdomain for the given variant.

    ``weighted_neumann`` (the M_s list) is required for the "nn" variant and
    ignored otherwise.
    """
    if variant not in VARIANTS:
        raise UnsupportedVariant(f"unknown variant {variant!r}")
    if variant == "nn" and weighted_neumann is None:
        raise ConfigError("variant 'nn' needs the weighted Neumann matrices")
    dirichlet = local_dirichlet_matrices(A, restrictions)
    if variant == "is":
        factors = [ic0_factor(As) for As in dirichlet]
    else:
        factors = [pivoted_cholesky(M) for M in
                   (dirichlet if variant == "as" else weighted_neumann)]
    return LocalSolverSet(variant, restrictions, factors, dirichlet)


def _sparse_basis(n: int, k: int, blocks) -> sp.csc_matrix:
    """Sparse n x k Z of ``(rows, V, columns)`` blocks, in one COO pass."""
    parts = [(np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))]
    for rows, V, cols in blocks:
        i, j = np.nonzero(V)
        parts.append((V[i, j], rows[i], cols[j]))
    data, i, j = (np.concatenate(p) for p in zip(*parts))
    return sp.csc_matrix((data, (i, j)), shape=(n, k))


class CoarseSpace:
    """Block-local coarse basis Z with the factored coarse matrix E = Z^T A Z.

    ``blocks`` is a list of ``(rows, V, columns)``, Z's column ``columns[j]``
    being ``V[:, j]`` on ``rows``.  Each kept block is stored twice, columns
    in the coarse ordering: ``V_blocks`` as ``(rows, Z[rows], positions)``
    and ``W_blocks`` as ``(reach, (A Z)[reach], positions)``, ``reach``
    being the rows ``A[:, rows]`` touches.  The coarse operators gather,
    multiply and scatter over them; :attr:`basis` builds the sparse Z on
    demand.  Columns are scaled to unit A-norm: ``dpstrf`` of
    ``E / outer(d, d)``, ``d = diag(E)^{1/2}``, drops a column whose pivot
    (squared A-norm distance from the kept columns over its own) is at or
    below ``ORTHO_TOL``; ``dropped_columns`` counts them and ``min_pivot`` is
    the smallest kept pivot (``None`` if n0=0).
    """

    def __init__(self, A, blocks, subdomain_counts=None):
        self.n = A.shape[0]
        k = sum(V.shape[1] for _, V, _ in blocks)
        Z = _sparse_basis(self.n, k, blocks)
        # E is formed from the sparse Z: with its unit diagonal the pivot
        # order, and so min_pivot, follows rounding that must not depend
        # on how the blocks are stored
        E = (Z.T @ sp.csc_matrix(A @ Z)).toarray()
        if not np.isfinite(E).all():
            raise NonFiniteValue("coarse matrix has non-finite entries")
        d = np.sqrt(np.abs(np.diag(E)))
        d[d == 0.0] = 1.0           # a zero column has pivot 0 and is dropped
        try:
            perm, L, self.n0, _ = dense_pivoted_cholesky(E / np.outer(d, d),
                                                         ORTHO_TOL)
        except IndefiniteMatrix as exc:
            raise CoarseSingular(f"coarse operator not spd: {exc}") from exc
        position = np.empty(k, dtype=np.int64)
        position[perm] = np.arange(k)
        A = sp.csc_matrix(A)
        self.V_blocks, self.W_blocks = [], []
        for rows, V, cols in blocks:
            kept = position[cols] < self.n0
            if kept.any():
                pos, V = position[cols[kept]], V[:, kept] / d[cols[kept]]
                A_rows = A[:, rows]
                reach = np.unique(A_rows.indices)
                self.V_blocks.append((rows, V, pos))
                self.W_blocks.append((reach, (A_rows @ V)[reach], pos))
        self.dropped_columns = k - self.n0
        self._L = np.ascontiguousarray(L[:self.n0])
        self.min_pivot = float(np.diag(self._L).min() ** 2) if self.n0 else None
        self.subdomain_counts = subdomain_counts or []

    @property
    def basis(self):
        """Z as a sparse n x n0 matrix, built on demand for checks."""
        return _sparse_basis(self.n, self.n0, self.V_blocks)

    def _restrict(self, blocks, x):
        c = np.empty((self.n0,) + x.shape[1:])
        for rows, B, pos in blocks:
            c[pos] = B.T @ x[rows]
        return c

    def _lift(self, blocks, c, out=None):
        out = np.zeros((self.n,) + c.shape[1:]) if out is None else out
        for rows, B, pos in blocks:
            out[rows] += B @ c[pos]
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
        c = self._restrict(self.V_blocks, Ay)
        w = sla.solve_triangular(self._L, c, lower=True, check_finite=False)
        return float(w @ w)

    def coarse_apply(self, x: np.ndarray) -> np.ndarray:
        """Z E^{-1} Z^T x, for a vector or an (n, k) block x."""
        return self._lift(self.V_blocks, self.solve(self._restrict(self.V_blocks, x)))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Pi x = x - Z E^{-1} (A Z)^T x; x a vector or (n, k) block."""
        out = self._lift(self.V_blocks, self.solve(self._restrict(self.W_blocks, x)))
        return np.subtract(x, out, out=out)

    def project_transpose(self, x: np.ndarray) -> np.ndarray:
        """Pi^T x = x - A Z E^{-1} Z^T x; x a vector or (n, k) block."""
        out = self._lift(self.W_blocks, self.solve(self._restrict(self.V_blocks, x)))
        return np.subtract(x, out, out=out)

    def hybrid(self, x: np.ndarray, one_level) -> np.ndarray:
        """Pi H Pi^T x + Z E^{-1} Z^T x, H = ``one_level``; one E^{-1} Z^T x."""
        u = self.solve(self._restrict(self.V_blocks, x))
        t = self._lift(self.W_blocks, u)
        # rebinding t frees Pi^T x before the projection (n-wide applies)
        t = one_level(np.subtract(x, t, out=t))
        return self._lift(self.V_blocks, u, self.project(t))


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
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        if mode != "one_level" and not coarse:
            raise ConfigError(f"mode {mode!r} requires a coarse space")
        if mode == "additive" and local_set.variant == "nn":
            raise UnsupportedVariant(
                "the additive combination is not defined for the Neumann "
                "variant (singular local solvers)")
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
        """Q (Q^T A Q)^{-1} Q^T b; equals (I - Pi) x* when b = A x*."""
        self._check_rows(b)
        return self.coarse.coarse_apply(b)

    def apply_hybrid(self, x: np.ndarray) -> np.ndarray:
        """(Pi H Pi^T + Q (Q^T A Q)^{-1} Q^T) x; x a vector or (n, k) block."""
        self._check_rows(x)
        return self.coarse.hybrid(x, self.apply_one_level)

    def apply_additive(self, x: np.ndarray) -> np.ndarray:
        """(H + Q (Q^T A Q)^{-1} Q^T) x; x a vector or (n, k) block."""
        if self.local_set.variant == "nn":
            raise UnsupportedVariant("additive mode is not defined for 'nn'")
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
    G = (M.T @ reach).toarray() > 0.0
    return G


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
