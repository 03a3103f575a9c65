"""Spectral coarse-space construction.

Each subdomain contributes local solver kernels, weighted-Neumann kernels,
and selected generalized eigenvectors.  Two selections are available: a
low-frequency selection against the subdomain Dirichlet operator (controls
the largest preconditioned eigenvalue) and a high-frequency selection of the
kernel-deflated pencil against the weighted Neumann matrix (controls the
smallest one).  Lifted contributions are stacked, not orthogonalized,
into the block-local basis Z of V0: each subdomain's columns stay one dense
block on its rows, and :class:`CoarseSpace` applies Z and A Z block by
block, factors E = Z^T A Z and drops duplicate columns by a relative A-norm
rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CoarseIsWholeSpace, ConfigError, LocalSolverSingular
from .linalg import gen_eig, orthonormal_complement, pivoted_cholesky
from .schwarz import CoarseSpace, LocalSolverSet

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
            raise ConfigError("at least one threshold must be set")
        for name, tau in (("tau_sharp", self.tau_sharp), ("tau_flat", self.tau_flat)):
            if tau is not None and tau <= 0.0:
                raise ConfigError(f"{name} must be positive, got {tau}")
        if self.flat_variant not in FLAT_VARIANTS:
            raise ConfigError(f"unknown flat variant {self.flat_variant!r}")
        if (self.max_vectors_per_subdomain is not None
                and self.max_vectors_per_subdomain < 0):
            raise ConfigError("max_coarse_vectors must be nonnegative")


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
    Only the eigenpairs strictly below the threshold are computed, on
    :func:`gen_eig`'s sparse path when both matrices are sparse.
    """
    contributions, records = [], []
    for s in range(local_set.n_subdomains):
        Z = local_set.kernel_basis(s)
        k = Z.shape[1]
        res = gen_eig(local_set.tilde_matrix(s), dirichlet_locals[s],
                      tau=tau_sharp)
        lead = min(k, res.size)
        cols = res.eigenvectors[:, lead:]
        vals = res.eigenvalues[lead:]
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
                Ms_kernels, cap: int = None):
    """Kernels plus high-frequency selection of the range-restricted pencil.

    ``Ms_kernels[s]`` is an l2-orthonormal basis of Ker(M_s) (a pivoted
    factorization's ``kernel_basis``); W_s completes it to an orthonormal
    basis, so it spans range(M_s).  The pencil
    (W^T tilde A W, W^T M W) is solved densely and eigenvectors at or above
    the threshold are lifted back through W.  When M_s has no kernel, W is
    the identity and the sparse pencil (tilde A, M) itself goes to
    :func:`gen_eig`, which counts and solves its selection sparsely.  Only
    the selected eigenpairs are computed; an eigenvalue exactly at the
    threshold is selected.  A cap keeps the largest selected eigenvalues;
    kernel contributions are never capped.
    """
    contributions, records = [], []
    for s in range(local_set.n_subdomains):
        parts = []
        ker_solver = local_set.kernel_basis(s)
        if ker_solver.shape[1]:
            parts.append(_kernel_contribution(s, ker_solver, "ker_local_solver"))
        Z = Ms_kernels[s]
        if Z.shape[1]:
            parts.append(_kernel_contribution(s, Z, "ker_Ms"))
        n_range = Z.shape[0] - Z.shape[1]
        if n_range:
            tilde, M = local_set.tilde_matrix(s), Ms_list[s]
            W = None
            if Z.shape[1]:
                W = orthonormal_complement(Z, Z.shape[0])
                tilde, M = W.T @ (tilde @ W), W.T @ (M @ W)
            res = gen_eig(tilde, M, tau=tau_flat, high=True)
            keep = res.size if cap is None else min(res.size, cap)
            Y = res.eigenvectors[:, res.size - keep:]
            parts.append(SubdomainContribution(
                subdomain=s, vectors=Y if W is None else W @ Y,
                origins=["flat_eig"] * keep,
                eigenvalues=res.eigenvalues[res.size - keep:].copy()))
            # index in the full ascending spectrum of the pencil
            offset = n_range - res.size
            first = res.size - keep
            records.extend(
                EigenRecord(s, "flat", offset + j, float(lam), j >= first)
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
        low = res.below(1.0 / tau_flat)
        keep = low.size
        if cap is not None:
            lam_scale = max(abs(res.eigenvalues[-1]), 1.0) if res.size else 1.0
            n_zero = int(np.count_nonzero(
                np.abs(low.eigenvalues) <= 1e-10 * lam_scale))
            keep = min(low.size, max(cap, n_zero))
        contributions.append(SubdomainContribution(
            subdomain=s, vectors=low.eigenvectors[:, :keep],
            origins=["flat_eig"] * keep,
            eigenvalues=low.eigenvalues[:keep].copy()))
        records.extend(
            EigenRecord(s, "flat_prime", j, float(lam), j < keep)
            for j, lam in enumerate(res.eigenvalues))
    return contributions, records


def assemble_coarse(contributions, A, restrictions) -> CoarseSpace:
    """Lift local contributions into the block-local basis Z and factor E.

    Column ``j`` of Z is ``R_s^T v_j`` for a local vector ``v_j`` of
    subdomain ``s``, in the order of ``contributions``; the columns of one
    subdomain form one dense block on its rows.  Near-duplicate columns from
    shared interfaces are expected; :class:`CoarseSpace` drops every column
    whose squared A-norm distance from the kept ones is at most
    ``ORTHO_TOL`` of its own.
    """
    n = A.shape[0]
    owner = np.repeat(np.array([c.subdomain for c in contributions], dtype=np.int64),
                      [c.count for c in contributions])
    counts = np.bincount(owner, minlength=len(restrictions)).tolist()
    blocks = [(m.global_index,
               np.hstack([c.vectors for c in contributions if c.subdomain == s]),
               np.flatnonzero(owner == s))
              for s, m in enumerate(restrictions) if counts[s]]
    space = CoarseSpace(A, blocks, subdomain_counts=counts)
    if space.n0 >= n:
        raise CoarseIsWholeSpace(
            f"coarse dimension {space.n0} reaches the global dimension {n}")
    return space


def build_coarse_space(cfg: GenEOConfig, A, restrictions,
                       local_set: LocalSolverSet, dirichlet_locals,
                       Ms_list):
    """Assemble V0 for the configured variant and thresholds.

    Returns the coarse space together with the eigenvalue records of every
    pencil that was solved.  The standard flat selection reads Ker(M_s),
    found here by :func:`pivoted_cholesky`; no factor of M_s is kept.
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
            kernels = [pivoted_cholesky(M).kernel_basis for M in Ms_list]
            c, r = coarse_flat(cfg.tau_flat, local_set, Ms_list, kernels,
                               cap=cap)
        contributions.extend(c)
        records.extend(r)
    return assemble_coarse(contributions, A, restrictions), records
