"""Abstract Schwarz preconditioners.

Local solver variants (exact subdomain solves, weighted Neumann
pseudo-inverses, no-fill incomplete Cholesky), the one-level sum of lifted
local inverses, the coarse projector, and the hybrid/additive two-level
combinations.  All operators are matrix-free applies; dense materialization
for verification lives in :mod:`geneo.oracle`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    CoarseSingular,
    DimensionMismatch,
    KernelNotInCoarseSpace,
    UnsupportedVariant,
)
from .linalg import PivotedFactor, pivoted_cholesky, incomplete_cholesky0

VARIANTS = ("as", "nn", "is")
MODES = ("one_level", "projected", "hybrid", "additive")
KERNEL_INCLUSION_TOL = 1e-8


class LocalSolverSet:
    """Per-subdomain solvers defining the one-level preconditioner.

    variant "as": exact solves with R_s A R_s^T.
    variant "nn": pseudo-inverse of the weighted Neumann matrix M_s.
    variant "is": solves with the IC(0) product L_s L_s^T of R_s A R_s^T,
    factored in reverse Cuthill-McKee order (incomplete factorizations are
    ordering-sensitive; bandwidth reduction keeps them alive and effective).
    Every factor is a :class:`PivotedFactor` of its tilde matrix; the IC(0)
    one is the exact, full-rank factorization of the IC(0) product.
    """

    def __init__(self, variant, restrictions, factors, tilde_mats):
        self.variant = variant
        self.restrictions = restrictions
        self.factors = factors
        self.tilde_mats = tilde_mats

    @property
    def n_subdomains(self) -> int:
        return len(self.restrictions)

    def tilde_matrix(self, s: int):
        return self.tilde_mats[s]

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


def build_local_solvers(A, restrictions, variant: str, weighted_neumann=None,
                        pivot_tol: float = 1e-10) -> LocalSolverSet:
    """Factorize the local solver of every subdomain for the given variant.

    ``weighted_neumann`` (the M_s list) is required for the "nn" variant and
    ignored otherwise.
    """
    if variant not in VARIANTS:
        raise UnsupportedVariant(f"unknown variant {variant!r}")
    if variant == "nn" and weighted_neumann is None:
        raise ValueError("variant 'nn' needs the weighted Neumann matrices")
    dirichlet = local_dirichlet_matrices(A, restrictions)
    if variant in ("as", "nn"):
        tilde = list(dirichlet if variant == "as" else weighted_neumann)
        factors = [pivoted_cholesky(M, pivot_tol) for M in tilde]
    else:
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        factors, tilde = [], []
        for As in dirichlet:
            perm = np.asarray(reverse_cuthill_mckee(As, symmetric_mode=True),
                              dtype=np.int64)
            L = incomplete_cholesky0(As[perm][:, perm].tocsr()).toarray()
            G = L @ L.T
            T = np.empty_like(G)
            T[np.ix_(perm, perm)] = G
            n = L.shape[0]
            factors.append(PivotedFactor(T, perm, L, n, np.zeros((n, 0)), 0.0))
            tilde.append(T)
    return LocalSolverSet(variant, restrictions, factors, tilde)


class CoarseSpace:
    """Orthonormal coarse basis with the factorized coarse operator.

    The basis columns span V0; the exact coarse solve is through a dense
    Cholesky of Q^T A Q (spd once the basis is orthonormalized).
    """

    def __init__(self, A, basis: np.ndarray, subdomain_counts=None):
        n = A.shape[0]
        basis = np.asarray(basis, dtype=float).reshape(n, -1)
        self.basis = basis
        self.n0 = basis.shape[1]
        self.subdomain_counts = subdomain_counts or []
        if self.n0:
            self.A_basis = A @ basis
            op = basis.T @ self.A_basis
            try:
                self._chol = sla.cho_factor(0.5 * (op + op.T), lower=True)
            except sla.LinAlgError as exc:
                raise CoarseSingular(f"coarse operator not spd: {exc}") from exc
        else:
            self.A_basis = np.zeros((n, 0))
            self._chol = None

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def solve(self, w: np.ndarray) -> np.ndarray:
        """(Q^T A Q)^{-1} w; empty when the coarse space is."""
        return sla.cho_solve(self._chol, w) if self.n0 else w

    def coarse_apply(self, x: np.ndarray) -> np.ndarray:
        """Q (Q^T A Q)^{-1} Q^T x."""
        return self.basis @ self.solve(self.basis.T @ x)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Pi x = x - Q (Q^T A Q)^{-1} Q^T A x (A-orthogonal projection)."""
        return x - self.basis @ self.solve(self.A_basis.T @ x)

    def project_transpose(self, x: np.ndarray) -> np.ndarray:
        return x - self.A_basis @ self.solve(self.basis.T @ x)


def empty_coarse_space(A) -> CoarseSpace:
    return CoarseSpace(A, np.zeros((A.shape[0], 0)))


def kernel_inclusion_residual(A, local_set: LocalSolverSet,
                              coarse: CoarseSpace) -> float:
    """How far the lifted local solver kernels stick out of V0.

    The largest ``||Pi v||_A / ||v||_A`` over the lifted kernel basis
    vectors ``v``; zero when every kernel lies in the coarse space.
    """
    worst = 0.0
    for s, m in enumerate(local_set.restrictions):
        Z = local_set.kernel_basis(s)
        for j in range(Z.shape[1]):
            v = m.prolong(Z[:, j])
            r = coarse.project(v)
            denom = max(np.sqrt(v @ (A @ v)), 1e-30)
            worst = max(worst, float(np.sqrt(abs(r @ (A @ r))) / denom))
    return worst


class PreconditionedOperator:
    """Matrix-free two-level Schwarz preconditioner.

    Modes: "one_level" (no coarse space), "projected" (deflation through the
    A-orthogonal projector), "hybrid" (balanced), "additive".  Projected and
    hybrid modes verify at build time that every local solver kernel is
    contained in the coarse space.
    """

    def __init__(self, A, local_set: LocalSolverSet, coarse: CoarseSpace = None,
                 mode: str = "one_level"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode != "one_level" and coarse is None:
            raise ValueError(f"mode {mode!r} requires a coarse space")
        if mode == "additive" and local_set.variant == "nn":
            raise UnsupportedVariant(
                "the additive combination is not defined for the Neumann "
                "variant (singular local solvers)")
        self.A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
        self.local_set = local_set
        self.coarse = coarse
        self.mode = mode
        if mode in ("projected", "hybrid"):
            worst = kernel_inclusion_residual(self.A, local_set, coarse)
            if worst > KERNEL_INCLUSION_TOL:
                raise KernelNotInCoarseSpace(
                    f"local solver kernel sticks out of V0 by {worst:.3e} "
                    f"(tolerance {KERNEL_INCLUSION_TOL:.1e})")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def apply_one_level(self, x: np.ndarray) -> np.ndarray:
        """H x = sum_s R_s^T pinv(tilde A_s) R_s x."""
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"expected length {self.n}, got {x.shape[0]}")
        out = np.zeros_like(x, dtype=float)
        ls = self.local_set
        for s, m in enumerate(ls.restrictions):
            out[m.global_index] += ls.apply_local(s, m.restrict(x))
        return out

    def apply_projector(self, x: np.ndarray) -> np.ndarray:
        return self.coarse.project(x) if self.coarse else x.copy()

    def apply_projector_transpose(self, x: np.ndarray) -> np.ndarray:
        return self.coarse.project_transpose(x) if self.coarse else x.copy()

    def coarse_component(self, b: np.ndarray) -> np.ndarray:
        """Q (Q^T A Q)^{-1} Q^T b; equals (I - Pi) x* when b = A x*."""
        if self.coarse is None:
            return np.zeros_like(b)
        return self.coarse.coarse_apply(b)

    def apply_hybrid(self, x: np.ndarray) -> np.ndarray:
        y = self.coarse.project(self.apply_one_level(self.coarse.project_transpose(x)))
        return y + self.coarse.coarse_apply(x)

    def apply_additive(self, x: np.ndarray) -> np.ndarray:
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
        raise UnsupportedVariant(
            "projected mode has no standalone apply; use the projected "
            "solver which combines the pieces")


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
