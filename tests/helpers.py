"""Shared builders for the test suite; expensive setups are cached."""

from collections import defaultdict
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrmm

from geneo.coarse import GenEOConfig, build_Ms, build_coarse_space
from geneo.elasticity import (
    assemble,
    assemble_local_neumann,
    build_mesh,
    young_field,
)
from geneo import oracle, partitioning
from geneo.linalg import GenEigResult, pivoted_cholesky
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


def below(res, tau):
    """The pairs of the full spectrum ``res`` strictly below ``tau``; a tie
    is left out, as in :func:`geneo.linalg.gen_eig`'s windowed solves."""
    m = int(np.searchsorted(res.eigenvalues, tau, side="left"))
    return GenEigResult(res.eigenvalues[:m], res.eigenvectors[:, :m])


def dense_from_apply(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


def one_block(B):
    """The (n, k) array ``B`` as the one ``(rows, V, columns)`` block of a
    :class:`~geneo.schwarz.CoarseSpace` over all rows."""
    return [(np.arange(B.shape[0]), B, np.arange(B.shape[1]))]


def dense_operator(op, mode):
    """Dense B of ``op`` in ``mode`` by one n-wide blocked apply to the
    identity.  For "one_level" this is the reference for
    :func:`geneo.oracle.dense_operator`, which sums H from subdomain
    blocks and materializes no other mode."""
    apply = {
        "one_level": op.apply_one_level,
        "projector": op.apply_projector,
        "hybrid": op.apply_hybrid,
        "additive": op.apply_additive,
        "projected": lambda x: op.apply_one_level(
            op.A @ op.apply_projector(x)),
    }[mode]
    return apply(np.eye(op.n))


def reference_eigenvalues(op, mode):
    """Eigenvalues of B A (of H A Pi for "projected") from F^T B F: the
    reference for :class:`geneo.oracle.Congruence`.

    B is materialized in ``mode``, L is the Cholesky factor of A and F = L,
    or F = Pi^T L for "projected" (A Pi = F F^T); one symmetric eigensolve
    of F^T B F follows.
    """
    F = sla.cholesky(op.A.toarray(), lower=True)
    if mode == "projected":
        B = dense_operator(op, "one_level")
        F = op.apply_projector_transpose(F)
    else:
        B = dense_operator(op, mode)
    C = F.T @ B @ F
    return sla.eigvalsh(0.5 * (C + C.T))


def reference_congruence(op):
    """``G = L^T H L`` and ``W = L^T Z`` by a dense Cholesky of A and two
    ``dtrmm`` on H and one on Z: the reference for the band products of
    :class:`geneo.oracle.Congruence`."""
    L = sla.cholesky(op.A.toarray(order="F"), lower=True)
    # G^T = L^T H^T L on the Fortran-ordered view of H
    HL = dtrmm(1.0, L, oracle.dense_operator(op).T, side=1, lower=1)
    G = dtrmm(1.0, L, HL, lower=1, trans_a=1).T
    W = dtrmm(1.0, L, op.coarse.basis.toarray(order="F"), lower=1, trans_a=1)
    return G, W


def reference_pcg(A, b, M, iterations, x_ref):
    """Textbook PCG from zero with the dense spd preconditioner ``M``, run
    for ``iterations`` steps with no stopping test: the reference for the
    loop in :mod:`geneo.krylov`.  Returns the last iterate, the CG scalars
    ``alpha`` and ``beta``, and the (recurred) residual norm and A-norm
    error of every iterate."""
    x = np.zeros_like(b)
    r = b.copy()
    z = M @ r
    p = z.copy()
    rz = r @ z
    alphas, betas, iterates, residuals = [], [], [x], [np.linalg.norm(r)]
    for _ in range(iterations):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        z = M @ r
        beta, rz = (r @ z) / rz, r @ z
        p = z + beta * p
        alphas.append(alpha)
        betas.append(beta)
        iterates.append(x)
        residuals.append(np.linalg.norm(r))
    errors = [np.sqrt((x - x_ref) @ (A @ (x - x_ref))) for x in iterates]
    return x, np.array(alphas), np.array(betas), np.array(residuals), \
        np.array(errors)


def reference_triangles(nx, ny):
    """Mesh triangles cell by cell, ``iy`` outer: the reference for
    :func:`geneo.elasticity.build_mesh`."""
    def vid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            v00 = vid(ix, iy)
            v10 = vid(ix + 1, iy)
            v01 = vid(ix, iy + 1)
            v11 = vid(ix + 1, iy + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.array(tris, dtype=np.int64)


def dict_element_adjacency(mesh):
    """Element neighbours across shared edges, by a dict of edge keys: the
    reference for :func:`geneo.partitioning.element_adjacency`."""
    edge_to_els = defaultdict(list)
    for e, tri in enumerate(mesh.triangles):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edge_to_els[key].append(e)
    adj = [[] for _ in range(mesh.n_elements)]
    for els in edge_to_els.values():
        if len(els) == 2:
            adj[els[0]].append(els[1])
            adj[els[1]].append(els[0])
    return adj


def _list_components(members, adj, owner, s):
    remaining = set(int(e) for e in members)
    comps = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        remaining.discard(seed)
        comp = [seed]
        while stack:
            e = stack.pop()
            for nb in adj[e]:
                if owner[nb] == s and nb in remaining:
                    remaining.discard(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps


def reference_rcb_owner(mesh, N):
    """``rcb`` element owners with the connectivity repair and rebalance
    walking the dict adjacency lists: the reference for the graph-based
    partitioner."""
    owner = np.empty(mesh.n_elements, dtype=np.int64)
    partitioning._rcb(np.arange(mesh.n_elements), mesh.barycenters(), N, 0,
                      owner)
    adj = dict_element_adjacency(mesh)
    for _ in range(mesh.n_elements):            # connectivity repair
        moved = False
        for s in range(N):
            comps = _list_components(np.flatnonzero(owner == s), adj, owner, s)
            if len(comps) <= 1:
                continue
            comps.sort(key=len)
            for comp in comps[:-1]:
                votes = {}
                for e in comp:
                    for nb in adj[e]:
                        if owner[nb] != s:
                            votes[owner[nb]] = votes.get(owner[nb], 0) + 1
                if not votes:
                    continue
                owner[comp] = max(sorted(votes), key=lambda t: votes[t])
                moved = True
        if not moved:
            break
    for _ in range(4 * mesh.n_elements):        # rebalance
        counts = np.bincount(owner, minlength=N)
        if counts.max() <= 2 * counts.min():
            break
        move = None
        for small in np.argsort(counts, kind="stable"):
            for e in np.flatnonzero(owner == small):
                for nb in sorted(adj[e]):
                    t = owner[nb]
                    if t == small or counts[t] <= counts[small] + 1:
                        continue
                    owner[nb] = small
                    members = np.flatnonzero(owner == t)
                    if len(_list_components(members, adj, owner, t)) == 1:
                        move = nb
                        break
                    owner[nb] = t
                if move is not None:
                    break
            if move is not None:
                break
        if move is None:
            break
    return owner
