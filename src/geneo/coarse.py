"""Spectral coarse-space construction.

Each subdomain contributes local solver kernels, weighted-Neumann kernels,
and selected generalized eigenvectors.  Two selections are available: a
low-frequency selection against the subdomain Dirichlet operator (controls
the largest preconditioned eigenvalue) and a high-frequency selection of the
kernel-deflated pencil against the weighted Neumann matrix (controls the
smallest one).  Lifted contributions are orthonormalized into a global
coarse basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CoarseIsWholeSpace, LocalSolverSingular
from .linalg import (
    gen_eig,
    orthonormal_complement,
    orthonormalize_columns,
    pivoted_cholesky,
    split_threshold,
)
from .schwarz import CoarseSpace, LocalSolverSet

ORTHO_TOL = 1e-10
FLAT_VARIANTS = ("standard", "prime")


@dataclass(frozen=True)
class GenEOConfig:
    """Thresholds and options selecting which eigenvectors enter V0.

    ``max_vectors_per_subdomain`` caps the eigenvector count each subdomain
    may contribute per selection (kernels are always kept); default no cap.
    """

    tau_sharp: float | None = None
    tau_flat: float | None = None
    flat_variant: str = "standard"       # one of FLAT_VARIANTS
    max_vectors_per_subdomain: int | None = None

    def __post_init__(self):
        if self.tau_sharp is None and self.tau_flat is None:
            raise ValueError("at least one threshold must be set")
        for name, tau in (("tau_sharp", self.tau_sharp), ("tau_flat", self.tau_flat)):
            if tau is not None and tau <= 0.0:
                raise ValueError(f"{name} must be positive, got {tau}")
        if self.flat_variant not in FLAT_VARIANTS:
            raise ValueError(f"unknown flat variant {self.flat_variant!r}")
        if (self.max_vectors_per_subdomain is not None
                and self.max_vectors_per_subdomain < 0):
            raise ValueError("vector cap must be nonnegative")


@dataclass
class SubdomainContribution:
    """Local coarse vectors of one subdomain, one column each."""

    subdomain: int
    vectors: np.ndarray
    origins: list
    eigenvalues: np.ndarray     # NaN for kernel columns

    @property
    def count(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class EigenRecord:
    """One solved eigenvalue, for reporting and the scatter-plot CSV."""

    subdomain: int
    pencil: str
    index: int
    eigenvalue: float
    selected: bool


def build_Ms(weights: np.ndarray, neumann) -> sp.csr_matrix:
    """Weighted Neumann matrix D^{-1} A_Neu D^{-1} for a diagonal D."""
    dinv = sp.diags(1.0 / np.asarray(weights))
    return (dinv @ neumann @ dinv).tocsr()


def _kernel_contribution(s, basis, origin):
    k = basis.shape[1]
    return SubdomainContribution(
        subdomain=s, vectors=basis, origins=[origin] * k,
        eigenvalues=np.full(k, np.nan))


def coarse_sharp(tau_sharp: float, local_set: LocalSolverSet, dirichlet_locals,
                 cap: int = None):
    """Low-frequency selection of (tilde A_s, R_s A R_s^T) per subdomain.

    Eigenvalue 0 modes are always selected, so the local solver kernels enter
    the coarse space; the kernel block itself is taken from the pivoted
    factorization (the eigensolver's near-zero directions are only accurate
    to the spread of the pencil) and the eigensolve contributes the genuinely
    spectral columns above it.  A cap never cuts into the kernel block.
    """
    contributions, records = [], []
    for s in range(local_set.n_subdomains):
        Z = local_set.kernel_basis(s)
        k = Z.shape[1]
        res = gen_eig(local_set.tilde_matrix(s), dirichlet_locals[s])
        sel = split_threshold(res, tau_sharp)
        lead = min(k, sel.m_L)
        cols = sel.low[:, lead:]
        vals = sel.low_eigenvalues[lead:]
        if cap is not None:
            cols = cols[:, :cap]
            vals = vals[:cap]
        contributions.append(SubdomainContribution(
            subdomain=s,
            vectors=np.hstack([Z, cols]),
            origins=["ker_local_solver"] * k + ["sharp_eig"] * cols.shape[1],
            eigenvalues=np.concatenate([np.full(k, np.nan), vals])))
        keep = lead + cols.shape[1]
        records.extend(
            EigenRecord(s, "sharp", j, float(lam), j < keep)
            for j, lam in enumerate(res.eigenvalues))
    return contributions, records


def coarse_flat(tau_flat: float, local_set: LocalSolverSet, Ms_list,
                Ms_factors, cap: int = None):
    """Kernels plus high-frequency selection of the range-restricted pencil.

    W_s is an l2-orthonormal basis of range(M_s) (complement of the kernel
    found by the pivoted factorization); the pencil
    (W^T tilde A W, W^T M W) is solved densely and eigenvectors at or above
    the threshold are lifted back through W.  A cap keeps the largest
    selected eigenvalues; kernel contributions are never capped.
    """
    contributions, records = [], []
    for s in range(local_set.n_subdomains):
        parts = []
        ker_solver = local_set.kernel_basis(s)
        if ker_solver.shape[1]:
            parts.append(_kernel_contribution(s, ker_solver, "ker_local_solver"))
        Z = Ms_factors[s].kernel_basis
        if Z.shape[1]:
            parts.append(_kernel_contribution(s, Z, "ker_Ms"))
        W = orthonormal_complement(Z, Ms_factors[s].dim)
        if W.shape[1]:
            tilde = local_set.tilde_matrix(s)
            tW = tilde @ W if sp.issparse(tilde) else np.asarray(tilde) @ W
            mW = Ms_list[s] @ W
            res = gen_eig(W.T @ tW, W.T @ mW)
            sel = split_threshold(res, tau_flat)
            n_high = sel.high.shape[1]
            keep = n_high if cap is None else min(n_high, cap)
            lifted = W @ sel.high[:, n_high - keep:]
            parts.append(SubdomainContribution(
                subdomain=s, vectors=lifted,
                origins=["flat_eig"] * keep,
                eigenvalues=sel.high_eigenvalues[n_high - keep:].copy()))
            first = res.size - keep
            records.extend(
                EigenRecord(s, "flat", j, float(lam), j >= first)
                for j, lam in enumerate(res.eigenvalues))
        contributions.extend(parts)
    return contributions, records


def coarse_flat_prime(tau_flat: float, local_set: LocalSolverSet, Ms_list,
                      cap: int = None):
    """Alternate lower-bound space for nonsingular local solvers.

    Low-frequency selection of (M_s, tilde A_s) at threshold 1/tau_flat;
    picks up Ker(M_s) automatically through the eigenvalue-0 modes, which a
    cap never cuts into.
    """
    contributions, records = [], []
    for s in range(local_set.n_subdomains):
        f = local_set.factors[s]
        if not f.full_rank:
            raise LocalSolverSingular(
                f"subdomain {s}: the prime selection needs invertible local "
                f"solvers (kernel dim {f.kernel_dim})")
        res = gen_eig(Ms_list[s], local_set.tilde_matrix(s))
        sel = split_threshold(res, 1.0 / tau_flat)
        keep = sel.m_L
        if cap is not None:
            lam_scale = max(abs(res.eigenvalues[-1]), 1.0) if res.size else 1.0
            n_zero = int(np.count_nonzero(
                np.abs(sel.low_eigenvalues) <= 1e-10 * lam_scale))
            keep = min(sel.m_L, max(cap, n_zero))
        contributions.append(SubdomainContribution(
            subdomain=s, vectors=sel.low[:, :keep],
            origins=["flat_eig"] * keep,
            eigenvalues=sel.low_eigenvalues[:keep].copy()))
        records.extend(
            EigenRecord(s, "flat_prime", j, float(lam), j < keep)
            for j, lam in enumerate(res.eigenvalues))
    return contributions, records


def assemble_coarse(contributions, A, restrictions, tol: float = ORTHO_TOL,
                    n_subdomains: int = None) -> CoarseSpace:
    """Lift local contributions, orthonormalize, factorize the coarse operator.

    Near-duplicate columns from shared interfaces are expected and dropped by
    the rank-revealing orthonormalization.
    """
    n = restrictions[0].n_global if restrictions else A.shape[0]
    N = n_subdomains if n_subdomains is not None else len(restrictions)
    counts = [0] * N
    blocks = []
    for c in contributions:
        if c.count == 0:
            continue
        counts[c.subdomain] += c.count
        blocks.append(restrictions[c.subdomain].prolong(c.vectors))
    if not blocks:
        return CoarseSpace(A, np.zeros((n, 0)), subdomain_counts=counts)
    raw = np.hstack(blocks)
    basis = orthonormalize_columns(raw, tol)
    if basis.shape[1] >= n:
        raise CoarseIsWholeSpace(
            f"coarse dimension {basis.shape[1]} reaches the global dimension {n}")
    return CoarseSpace(A, basis, subdomain_counts=counts)


def build_coarse_space(cfg: GenEOConfig, A, restrictions,
                       local_set: LocalSolverSet, dirichlet_locals,
                       Ms_list, Ms_factors=None):
    """Assemble V0 for the configured variant and thresholds.

    Returns the coarse space together with the eigenvalue records of every
    pencil that was solved.
    """
    contributions, records = [], []
    cap = cfg.max_vectors_per_subdomain
    if cfg.tau_sharp is not None:
        c, r = coarse_sharp(cfg.tau_sharp, local_set, dirichlet_locals, cap=cap)
        contributions.extend(c)
        records.extend(r)
    if cfg.tau_flat is not None:
        if cfg.flat_variant == "prime":
            c, r = coarse_flat_prime(cfg.tau_flat, local_set, Ms_list, cap=cap)
        else:
            if Ms_factors is None:
                Ms_factors = [pivoted_cholesky(M) for M in Ms_list]
            c, r = coarse_flat(cfg.tau_flat, local_set, Ms_list, Ms_factors,
                               cap=cap)
        contributions.extend(c)
        records.extend(r)
    space = assemble_coarse(contributions, A, restrictions,
                            n_subdomains=local_set.n_subdomains)
    return space, records
