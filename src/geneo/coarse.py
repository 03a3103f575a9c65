"""Spectral coarse-space construction.

Each subdomain contributes local solver kernels and selected generalized
eigenvectors.  Two selections are available, both low-frequency: one of
the pencil (tilde A_s, R_s A R_s^T) below tau_sharp (controls the largest
preconditioned eigenvalue) and one of the weighted Neumann pencil
(M_s, tilde A_s) below 1/tau_flat (controls the smallest one; Ker(M_s) is
its eigenvalue-0 block).  A build solves the windows of both pencils by
one map over subdomains, pencil-major (sharp first), once the flat
selection has refused any singular local solver.  Lifted contributions
are stacked, not orthogonalized, into the block-local basis Z of V0: each
subdomain's columns stay one dense block on its rows, and
:class:`CoarseSpace` applies Z block by block (A only through the system
matrix), forms E = Z^T A Z from those blocks by dense products (exactly
symmetric; the sparse Z is built only on demand), factors it and drops
duplicate columns by a relative A-norm rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CoarseIsWholeSpace, ConfigError, LocalSolverSingular
from .linalg import _map_subdomains, gen_eig
from .schwarz import CoarseSpace, LocalSolverSet


@dataclass(frozen=True)
class GenEOConfig:
    """Thresholds and options selecting which eigenvectors enter V0.

    ``max_vectors_per_subdomain`` caps the eigenvector count each subdomain
    may contribute per selection (kernels are always kept); default no cap.
    """

    tau_sharp: float | None = None
    tau_flat: float | None = None
    max_vectors_per_subdomain: int | None = None

    def __post_init__(self):
        if self.tau_sharp is None and self.tau_flat is None:
            raise ConfigError("at least one threshold must be set")
        for name, tau in (("tau_sharp", self.tau_sharp), ("tau_flat", self.tau_flat)):
            if tau is not None and not 0.0 < tau < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {tau}")
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


def _select(tau_sharp, tau_flat, local_set: LocalSolverSet, dirichlet_locals,
            Ms_list, cap: int = None):
    """Contributions and records of each pencil whose threshold is set,
    its windows (label, subdomain, ``gen_eig`` arguments, zero tolerance)
    listed pencil-major, sharp first, and solved by one map: the first
    error is the first pencil's lowest subdomain's.  The flat pencil
    refuses a singular local solver before any window is solved, so its
    kernel blocks are empty.  A subdomain keeps its local solver kernel in
    place of as many lowest pairs, then the next pairs up to ``cap`` or past
    those with ``|lambda|`` at or below the zero tolerance (the flat zero
    modes of :func:`coarse_flat`; none of the sharp ones), whichever is more.
    """
    n, jobs = local_set.n_subdomains, []
    tildes = [local_set.tilde_matrix(s) for s in range(n)]
    if tau_sharp is not None:
        jobs += [("sharp", s, (tildes[s], dirichlet_locals[s], tau_sharp), -np.inf)
                 for s in range(n)]
    if tau_flat is not None:
        for s, f in enumerate(local_set.factors):
            if not f.full_rank:
                raise LocalSolverSingular(
                    f"subdomain {s}: the flat selection needs invertible local "
                    f"solvers (kernel dim {f.kernel_dim})")
        jobs += [("flat", s, (Ms_list[s], tildes[s], 1.0 / tau_flat), 1e-10 * max(
            1.0, float(np.max(Ms_list[s].diagonal() / tildes[s].diagonal()))))
                 for s in range(n)]
    results = _map_subdomains(lambda job: gen_eig(*job[2]), jobs)
    contributions, records = [], []
    for (label, s, _, zero_tol), res in zip(jobs, results):
        Z = local_set.kernel_basis(s)
        k = Z.shape[1]
        lead = min(k, res.size)
        stop = lead + max(res.eigenvalues[lead:][:cap].size,
                          int(np.count_nonzero(np.abs(res.eigenvalues) <= zero_tol)))
        contributions.append(SubdomainContribution(
            s, np.hstack([Z, res.eigenvectors[:, lead:stop]]),
            ["ker_local_solver"] * k + [f"{label}_eig"] * (stop - lead),
            np.concatenate([np.full(k, np.nan), res.eigenvalues[lead:stop]])))
        records.extend(EigenRecord(s, label, j, float(lam), j < stop)
                       for j, lam in enumerate(res.eigenvalues))
    return contributions, records


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
    return _select(tau_sharp, None, local_set, dirichlet_locals, None, cap)


def coarse_flat(tau_flat: float, local_set: LocalSolverSet, Ms_list,
                cap: int = None):
    """Low-frequency selection of (M_s, tilde A_s) below 1/tau_flat.

    The dual of the high selection of (tilde A_s, M_s) at tau_flat, with
    the same guarantee (lambda_min >= 1/tau_flat) for invertible local
    solvers (a singular one is refused before any pencil is solved);
    Ker(M_s) arrives as its eigenvalue-0 block.  Only the selected
    pairs are computed, on :func:`gen_eig`'s sparse path when both matrices
    are sparse; an eigenvalue exactly at 1/tau_flat is left out.  A cap
    keeps the smallest selected eigenvalues but never cuts into the zero
    modes: those with |mu| <= 1e-10 max(1, max_i (M_s)_ii / (tilde A_s)_ii),
    a Rayleigh-quotient lower bound on the top of the pencil's spectrum.
    """
    return _select(None, tau_flat, local_set, None, Ms_list, cap)


# The benchmark's layer list (perfbench/layers.py) still names this; it goes
# with that entry in the next change to perfbench/.
coarse_flat_prime = coarse_flat


def assemble_coarse(contributions, A, restrictions) -> CoarseSpace:
    """Lift local contributions into the block-local basis Z and factor E.

    Column ``j`` of Z is ``R_s^T v_j`` for a local vector ``v_j`` of
    subdomain ``s``, in the order of ``contributions``; the columns of one
    subdomain form one dense block on its rows.  Near-duplicate columns from
    shared interfaces are expected; :class:`CoarseSpace` drops every column
    whose squared A-norm distance from the kept ones is at most
    ``ORTHO_TOL`` of its own, except the local solver kernels (origin
    ``ker_local_solver``), which it keeps.
    """
    n = A.shape[0]
    owner = np.repeat(np.array([c.subdomain for c in contributions], dtype=np.int64),
                      [c.count for c in contributions])
    counts = np.bincount(owner, minlength=len(restrictions)).tolist()
    blocks = [(m.global_index,
               np.hstack([c.vectors for c in contributions if c.subdomain == s]),
               np.flatnonzero(owner == s))
              for s, m in enumerate(restrictions) if counts[s]]
    space = CoarseSpace(A, blocks, subdomain_counts=counts, required=[
        o == "ker_local_solver" for c in contributions for o in c.origins])
    if space.n0 >= n:
        raise CoarseIsWholeSpace(
            f"coarse dimension {space.n0} reaches the global dimension {n}")
    return space


def build_coarse_space(cfg: GenEOConfig, A, restrictions,
                       local_set: LocalSolverSet, dirichlet_locals,
                       Ms_list):
    """Assemble V0 for the configured variant and thresholds.

    Returns the coarse space together with the eigenvalue records of every
    pencil that was solved.
    """
    contributions, records = _select(cfg.tau_sharp, cfg.tau_flat, local_set,
                                     dirichlet_locals, Ms_list,
                                     cfg.max_vectors_per_subdomain)
    return assemble_coarse(contributions, A, restrictions), records
