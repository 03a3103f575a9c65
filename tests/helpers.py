"""Shared builders for the test suite; expensive setups are cached."""

from functools import lru_cache

import numpy as np

from geneo.coarse import GenEOConfig, build_Ms, build_coarse_space
from geneo.elasticity import (
    assemble,
    assemble_local_neumann,
    build_mesh,
    young_field,
)
from geneo.linalg import pivoted_cholesky
from geneo.partitioning import (
    build_restrictions,
    partition_elements,
    pou_matrices,
)
from geneo.schwarz import (
    PreconditionedOperator,
    build_local_solvers,
    coloring_constant,
    local_dirichlet_matrices,
)

TOY_NX, TOY_NY, TOY_N = 20, 10, 4


class Setup:
    """One assembled problem with its partition-level data."""

    def __init__(self, nx, ny, N, method, kind):
        self.mesh = build_mesh(nx, ny)
        self.partition = partition_elements(self.mesh, N, method)
        self.field = young_field(kind, self.partition, self.mesh)
        self.problem = assemble(self.mesh, self.field)
        self.neumann = assemble_local_neumann(self.mesh, self.field,
                                              self.partition)
        self.restrictions, self.interface = build_restrictions(
            self.mesh, self.partition, self.problem.dof_map)
        self.dirichlet_locals = local_dirichlet_matrices(
            self.problem.A, self.restrictions)
        self.n_color = coloring_constant(self.problem.A, self.restrictions)
        self._scaled = {}
        self._solvers = {}

    @property
    def A(self):
        return self.problem.A

    def scaled(self, scaling):
        """(weights, Ms_list, Ms_factors) for the given partition of unity."""
        if scaling not in self._scaled:
            weights = pou_matrices(self.restrictions, scaling, A=self.A,
                                   neumann=self.neumann)
            Ms = [build_Ms(d, As) for d, As in zip(weights, self.neumann)]
            factors = [pivoted_cholesky(M) for M in Ms]
            self._scaled[scaling] = (weights, Ms, factors)
        return self._scaled[scaling]

    def local_solvers(self, variant, scaling="k_scaling"):
        key = (variant, scaling if variant == "nn" else None)
        if key not in self._solvers:
            Ms = self.scaled(scaling)[1] if variant == "nn" else None
            self._solvers[key] = build_local_solvers(
                self.A, self.restrictions, variant, weighted_neumann=Ms)
        return self._solvers[key]

    def coarse(self, variant, scaling, tau_sharp=None, tau_flat=None):
        Ms = self.scaled(scaling)[1]
        cfg = GenEOConfig(tau_sharp=tau_sharp, tau_flat=tau_flat)
        local_set = self.local_solvers(variant, scaling)
        return build_coarse_space(cfg, self.A, self.restrictions, local_set,
                                  self.dirichlet_locals, Ms)

    def operator(self, variant, scaling, mode, tau_sharp=None, tau_flat=None):
        local_set = self.local_solvers(variant, scaling)
        coarse = None
        if mode != "one_level":
            coarse, _ = self.coarse(variant, scaling, tau_sharp, tau_flat)
        return PreconditionedOperator(self.A, local_set, coarse, mode=mode)


@lru_cache(maxsize=None)
def toy(kind="with_layers", method="rcb"):
    return Setup(TOY_NX, TOY_NY, TOY_N, method, kind)


@lru_cache(maxsize=None)
def tiny(kind="no_layers", nx=4, ny=2, N=2, method="strips"):
    return Setup(nx, ny, N, method, kind)


@lru_cache(maxsize=None)
def desk(kind="with_layers"):
    """The 40x20, four-subdomain ``rcb`` problem of the desk-scale runs."""
    return Setup(40, 20, 4, "rcb", kind)


@lru_cache(maxsize=None)
def case_a(kind="with_layers"):
    """30x15, four ``rcb`` subdomains: k-scaled contrast inside subdomains."""
    return Setup(30, 15, 4, "rcb", kind)


@lru_cache(maxsize=None)
def full_scale(kind="with_layers", method="strips_y", N=8):
    return Setup(84, 42, N, method, kind)


def random_spsd(rng, n, rank):
    B = rng.standard_normal((n, rank))
    return B @ B.T


def random_spsd_conditioned(rng, n, rank, cond=100.0):
    """spsd with an exact rank-deficiency and bounded conditioning."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = np.zeros(n)
    if rank:
        eigs[:rank] = np.exp(rng.uniform(-np.log(cond), 0.0, size=rank))
    return (Q * eigs) @ Q.T


def jacobi_scaled(M):
    """Dense ``S M S`` with ``S = diag(M)^{-1/2}``, scaled independently of
    the library."""
    M = M.toarray()
    d = 1.0 / np.sqrt(np.diag(M))
    return d[:, None] * M * d[None, :]


def rigid_body_modes(setup, s):
    """Translations and rotation on subdomain ``s``'s DOFs, in local order."""
    free = np.flatnonzero(setup.problem.dof_map.ravel() >= 0)
    dof = free[setup.restrictions[s].global_index]
    x, y = setup.mesh.vertices[dof // 2].T
    x_dof = dof % 2 == 0
    return np.column_stack([x_dof, ~x_dof, np.where(x_dof, -y, x)]).astype(float)


def dense_from_apply(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


def one_block(B):
    """The (n, k) array ``B`` as the one ``(rows, V, columns)`` block of a
    :class:`~geneo.schwarz.CoarseSpace` over all rows."""
    return [(np.arange(B.shape[0]), B, np.arange(B.shape[1]))]
