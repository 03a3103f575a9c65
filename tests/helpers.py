"""Shared builders for the test suite; expensive setups are cached."""

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
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
        self.restrictions, self.n_gamma = build_restrictions(
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


def negative_inertia(M):
    """Number of negative eigenvalues of the dense symmetric ``M``, from the
    block diagonal of its Bunch-Kaufman ``LDL^T``."""
    D = sla.ldl(M)[1]
    return int(np.count_nonzero(np.linalg.eigvalsh(D) < 0.0))


def reference_window(M_A, M_B, tau):
    """The pairs of the sparse pencil ``(M_A, M_B)`` strictly below ``tau`` by
    ARPACK's generalized shift-invert mode: the reference for the
    standard-form Lanczos of :func:`geneo.linalg._sparse_window`.

    The count is the negative inertia of a dense ``LDL^T`` of
    ``M_A - tau M_B``; ``count + 1`` pairs come from ``eigsh`` with
    ``M=M_B``, ``sigma=-|tau|`` and the sparse LU of ``M_A + |tau| M_B`` as
    ``OPinv``, from a fixed start, repeated on the ``M_B``-orthogonal
    complement of the pairs found while fewer than ``count`` lie below
    ``tau``.  The eigenvalues are the Rayleigh quotients of the
    ``M_B``-normalized vectors.
    """
    A, B = sp.csc_matrix(M_A), sp.csc_matrix(M_B)
    n = A.shape[0]
    count = negative_inertia((A - tau * B).toarray())
    if count == 0:
        return GenEigResult(np.zeros(0), np.zeros((n, 0)))
    lu = spla.splu((A + abs(tau) * B).tocsc())
    start = np.random.default_rng(0).standard_normal(n)
    lam, Y = np.zeros(0), np.zeros((n, 0))
    # a multiple eigenvalue may come back as fewer copies: the search is
    # repeated M_B-orthogonally to the pairs found until count lie below tau
    while np.count_nonzero(lam < tau) < count:
        def deflate(x, Y=Y):
            return x - Y @ (Y.T @ (B @ x))

        _, V = spla.eigsh(
            A, k=count + 1 - np.count_nonzero(lam < tau), M=B, sigma=-abs(tau),
            OPinv=spla.LinearOperator((n, n), matvec=lambda x: deflate(lu.solve(x)),
                                      dtype=float),
            v0=deflate(start))
        V = V / np.sqrt(np.einsum("ij,ij->j", V, B @ V))
        Y = np.column_stack([Y, V])
        lam = np.einsum("ij,ij->j", Y, A @ Y)
    order = np.argsort(lam)[:count]
    return GenEigResult(lam[order], Y[:, order])


def reference_solution(A, b):
    """``A^{-1} b`` by SuperLU's ``spsolve`` (COLAMD order, partial
    pivoting): the reference for the band Cholesky solve of
    :func:`geneo.elasticity.assemble`."""
    return spla.spsolve(A.tocsc(), b)


def reference_element_stiffness(mesh, field):
    """``area B^T D B`` element by element, with the strain matrix ``B`` and
    the isotropic elasticity matrix ``D`` written out for each triangle:
    the reference for :func:`geneo.elasticity.element_stiffness`."""
    mu, ell = field.lame()
    out = np.empty((mesh.n_elements, 6, 6))
    for e, tri in enumerate(mesh.triangles):
        (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[tri]
        det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        gx = np.array([y1 - y2, y2 - y0, y0 - y1]) / det
        gy = np.array([x2 - x1, x0 - x2, x1 - x0]) / det
        B = np.zeros((3, 6))
        B[0, 0::2] = gx
        B[1, 1::2] = gy
        B[2, 0::2] = gy
        B[2, 1::2] = gx
        D = np.array([[2.0 * mu[e] + ell[e], ell[e], 0.0],
                      [ell[e], 2.0 * mu[e] + ell[e], 0.0],
                      [0.0, 0.0, mu[e]]])
        out[e] = 0.5 * det * B.T @ D @ B
    return out


def dense_from_apply(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


def one_block(B):
    """The (n, k) array ``B`` as the one ``(rows, V, columns)`` block of a
    :class:`~geneo.schwarz.CoarseSpace` over all rows."""
    return [(np.arange(B.shape[0]), B, np.arange(B.shape[1]))]


def reference_coarse_matrix(A, blocks):
    """E = Z^T (A Z) by sparse products, Z summed from one sparse matrix
    per ``(rows, V, columns)`` block: the reference for the coarse matrix
    :class:`~geneo.schwarz.CoarseSpace` forms from the blocks."""
    k = sum(V.shape[1] for _, V, _ in blocks)
    Z = sp.csc_matrix((A.shape[0], k))
    for rows, V, cols in blocks:
        i, j = np.nonzero(V)
        Z += sp.csc_matrix((V[i, j], (rows[i], cols[j])), shape=Z.shape)
    return (Z.T @ sp.csc_matrix(A @ Z)).toarray()


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


# (project, weight) of :meth:`geneo.oracle.Congruence.matrix` per mode
MODE_UPDATES = {"one_level": (False, 0.0), "projected": (True, 0.0),
                "hybrid": (True, 1.0), "additive": (False, 1.0)}


@dataclass(frozen=True)
class ReferenceSpectrum:
    """A full spectrum with its zero block split off as the oracle splits
    it: ``|lambda| <= ZERO_TOL_FACTOR * max(lambda_max, 0)``, projected only."""

    eigenvalues: np.ndarray
    zero_multiplicity: int
    lambda_min_nonzero: float
    lambda_max: float


def reference_spectrum(op, mode, congruence=None):
    """Full spectrum of B A for the mode's B (of H A Pi for "projected") by
    one dense symmetric eigensolve of the lower triangle of the operator
    :meth:`geneo.oracle.Congruence.matrix` builds: the reference for the
    inertia verdicts and Lanczos extremes of :mod:`geneo.oracle`."""
    congruence = congruence or oracle.Congruence(op)
    lam = sla.eigvalsh(congruence.matrix(*MODE_UPDATES[mode]),
                       check_finite=False)
    zero = np.zeros(lam.size, dtype=bool)
    if mode == "projected":
        zero = np.abs(lam) <= oracle.ZERO_TOL_FACTOR * max(float(lam[-1]), 0.0)
    nonzero = lam[~zero]
    return ReferenceSpectrum(
        lam, int(zero.sum()),
        float(nonzero.min()) if nonzero.size else np.nan, float(lam[-1]))


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
