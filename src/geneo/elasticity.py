"""2D linear-elasticity testbed.

Structured triangular mesh on [0,2]x[0,1], vector P1 assembly of the
bilinear form  2*mu*eps(u):eps(v) + ell*div(u)*div(v)  with body load
g = (0,1), Dirichlet clamping on the left edge (x=0) handled by elimination,
and heterogeneous Young's modulus fields driven by a subdomain partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConfigError, SingularAfterBC, UnassignedElement
from .linalg import band_cholesky
from .partitioning import subdomain_free_dofs

LX = 2.0
LY = 1.0

#: y-bands where the hard layers sit (barycenter rule decides membership)
LAYER_BANDS = ((1.0 / 7.0, 2.0 / 7.0), (3.0 / 7.0, 4.0 / 7.0), (5.0 / 7.0, 6.0 / 7.0))
LAYER_EXTRA = 1.0e9
YOUNG_ODD = 1.0e5
YOUNG_EVEN = 1.0e8


@dataclass(frozen=True)
class Mesh2D:
    """Structured triangulation of [0,2]x[0,1].

    Each of the nx*ny grid cells is split along its bottom-left to top-right
    diagonal, so there are 2*nx*ny triangles.  Vertices on x=0 are flagged
    Dirichlet.
    """

    nx: int
    ny: int
    vertices: np.ndarray      # (nv, 2)
    triangles: np.ndarray     # (nt, 3) vertex indices, ccw
    dirichlet: np.ndarray     # (nv,) bool

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def barycenters(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)


def build_mesh(nx: int, ny: int) -> Mesh2D:
    if nx < 1 or ny < 1:
        raise ConfigError(f"nx and ny must be at least 1, got {nx} x {ny}")
    xs = np.linspace(0.0, LX, nx + 1)
    ys = np.linspace(0.0, LY, ny + 1)
    X, Y = np.meshgrid(xs, ys)               # row iy, col ix
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # bottom-left corner of each cell, iy outer; two triangles per cell
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    triangles = np.stack([v00, v10, v11, v00, v11, v01],
                         axis=1).reshape(-1, 3).astype(np.int64)
    dirichlet = np.isclose(vertices[:, 0], 0.0)
    return Mesh2D(nx=nx, ny=ny, vertices=vertices, triangles=triangles,
                  dirichlet=dirichlet)


@dataclass(frozen=True)
class CoefficientField:
    """Per-element Young's modulus and a global Poisson ratio."""

    young: np.ndarray
    poisson: float

    def __post_init__(self):
        if not (0.0 < self.poisson < 0.5):
            raise ConfigError(f"nu must be in (0, 0.5), got {self.poisson}")
        if not np.all(np.isfinite(self.young) & (self.young > 0.0)):
            raise ConfigError("young: Young's modulus must be positive and "
                              "finite everywhere")

    def lame(self):
        """Return (mu, ell): shear modulus and the div-div coefficient."""
        mu = self.young / (2.0 * (1.0 + self.poisson))
        ell = self.young * self.poisson / (
            (1.0 + self.poisson) * (1.0 - 2.0 * self.poisson))
        return mu, ell


def young_field(kind: str, partition, mesh: Mesh2D, nu: float = 0.4) -> CoefficientField:
    """Heterogeneous Young's modulus driven by subdomain parity.

    Subdomains are numbered from 1 for the parity rule: odd subdomains get
    1e5, even ones 1e8.  With ``kind="with_layers"`` elements whose
    barycenter lies in one of three horizontal bands get an extra 1e9.
    """
    owner = np.asarray(partition.element_owner)
    if owner.shape[0] != mesh.n_elements or np.any(owner < 0):
        raise UnassignedElement("partition does not assign every element")
    E = np.where((owner + 1) % 2 == 1, YOUNG_ODD, YOUNG_EVEN).astype(float)
    if kind == "with_layers":
        y = mesh.barycenters()[:, 1]
        in_band = np.zeros(mesh.n_elements, dtype=bool)
        for lo, hi in LAYER_BANDS:
            in_band |= (y >= lo) & (y <= hi)
        E = E + np.where(in_band, LAYER_EXTRA, 0.0)
    elif kind != "no_layers":
        raise ConfigError(f"unknown coefficient kind {kind!r}")
    return CoefficientField(young=E, poisson=nu)


def element_stiffness(mesh: Mesh2D, field: CoefficientField) -> np.ndarray:
    """All 6x6 element matrices at once, shape (nt, 6, 6).

    P1 strains are constant per element so one-point quadrature is exact.
    DOF order within the element is (ux0, uy0, ux1, uy1, ux2, uy2).
    """
    coords = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    e1 = coords[:, 1, :] - coords[:, 0, :]
    e2 = coords[:, 2, :] - coords[:, 0, :]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    # gradients of the barycentric basis: rows are (d/dx, d/dy), cols basis fns
    gx = np.stack([e1[:, 1] - e2[:, 1], e2[:, 1], -e1[:, 1]], axis=1) / det[:, None]
    gy = np.stack([e2[:, 0] - e1[:, 0], -e2[:, 0], e1[:, 0]], axis=1) / det[:, None]

    nt = mesh.n_elements
    B = np.zeros((nt, 3, 6))
    B[:, 0, 0::2] = gx
    B[:, 1, 1::2] = gy
    B[:, 2, 0::2] = gy
    B[:, 2, 1::2] = gx

    mu, ell = field.lame()
    D = np.zeros((nt, 3, 3))
    D[:, 0, 0] = 2.0 * mu + ell
    D[:, 1, 1] = 2.0 * mu + ell
    D[:, 0, 1] = ell
    D[:, 1, 0] = ell
    D[:, 2, 2] = mu
    K = area[:, None, None] * (np.swapaxes(B, 1, 2) @ (D @ B))
    return 0.5 * (K + np.swapaxes(K, 1, 2))


@dataclass(frozen=True)
class ProblemInstance:
    """Assembled linear system on the free DOFs.

    ``dof_map[v, c]`` is the free-DOF index of displacement component c at
    vertex v, or -1 where the Dirichlet condition removed it.
    """

    A: sp.csr_matrix
    b: np.ndarray
    dof_map: np.ndarray
    reference_solution: np.ndarray | None

    @property
    def n(self) -> int:
        return self.A.shape[0]


def make_dof_map(mesh: Mesh2D) -> np.ndarray:
    dof_map = -np.ones((mesh.n_vertices, 2), dtype=np.int64)
    free = ~mesh.dirichlet
    n_free = int(free.sum())
    dof_map[free, 0] = 2 * np.arange(n_free)
    dof_map[free, 1] = 2 * np.arange(n_free) + 1
    return dof_map


def _element_dofs(mesh: Mesh2D, dof_map: np.ndarray) -> np.ndarray:
    """(nt, 6) free-DOF indices per element, -1 for eliminated entries."""
    tri = mesh.triangles
    dofs = np.empty((mesh.n_elements, 6), dtype=np.int64)
    dofs[:, 0::2] = dof_map[tri, 0]
    dofs[:, 1::2] = dof_map[tri, 1]
    return dofs


def _scatter(Ke: np.ndarray, dofs: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum element matrices into an n x n matrix at the element DOFs.

    Entries at DOF -1 are dropped; the result is symmetrized so it is
    exactly symmetric elementwise.
    """
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    vals = Ke.ravel()
    keep = (rows >= 0) & (cols >= 0)
    M = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    M.sum_duplicates()
    return ((M + M.T) * 0.5).tocsr()


def assemble(mesh: Mesh2D, field: CoefficientField,
             compute_reference: bool = True) -> ProblemInstance:
    """Assemble stiffness and load on the free DOFs.

    Dirichlet DOFs are eliminated (renumbered away), not penalized.  The
    right-hand side is the body load g = (0,1).  The reference solution,
    used by the error-tracking solver mode, is a direct solve by
    :func:`_reference_solve`; an ``A`` that is not spd raises
    :class:`~geneo.errors.IndefiniteMatrix`.
    """
    if field.young.shape[0] != mesh.n_elements:
        raise UnassignedElement("coefficient field does not cover the mesh")
    if not mesh.dirichlet.any():
        raise SingularAfterBC("no Dirichlet vertex on this mesh")
    dof_map = make_dof_map(mesh)
    n = int((dof_map >= 0).sum())
    A = _scatter(element_stiffness(mesh, field), _element_dofs(mesh, dof_map), n)

    coords = mesh.vertices[mesh.triangles]
    e1 = coords[:, 1, :] - coords[:, 0, :]
    e2 = coords[:, 2, :] - coords[:, 0, :]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    b = np.zeros(n)
    ydofs = dof_map[mesh.triangles, 1]              # (nt, 3)
    contrib = np.repeat(area[:, None] / 3.0, 3, axis=1)
    ok = ydofs >= 0
    np.add.at(b, ydofs[ok], contrib[ok])

    x_ref = _reference_solve(A, b) if compute_reference else None
    return ProblemInstance(A=A, b=b, dof_map=dof_map, reference_solution=x_ref)


def _reference_solve(A, b):
    """``A^{-1} b`` for the sparse spd ``A``: one band Cholesky of ``A`` in
    reverse Cuthill-McKee order (George & Liu, 1981), then one step of
    iterative refinement: without it the backward error
    ``|A x - b| / (|A| |x|)`` can exceed that of a sparse LU solve."""
    p = reverse_cuthill_mckee(A, symmetric_mode=True)
    factor = (band_cholesky(A[p][:, p]), True)
    x = np.empty_like(b)
    x[p] = sla.cho_solve_banded(factor, b[p])
    r = b - A @ x
    x[p] += sla.cho_solve_banded(factor, r[p])
    return x


def assemble_local_neumann(mesh: Mesh2D, field: CoefficientField,
                           partition) -> list[sp.csr_matrix]:
    """Per-subdomain stiffness with natural boundary conditions.

    Matrices come out in the canonical local numbering (ascending global
    free-DOF index, the same convention the restriction maps use), so
    A == sum_s R_s^T A_Neu_s R_s holds exactly for element-disjoint
    partitions.
    """
    owner = np.asarray(partition.element_owner)
    if owner.shape[0] != mesh.n_elements or np.any(owner < 0):
        raise UnassignedElement("partition does not assign every element")
    dof_map = make_dof_map(mesh)
    Ke = element_stiffness(mesh, field)
    dofs = _element_dofs(mesh, dof_map)

    out = []
    for s in range(partition.n_subdomains):
        local = subdomain_free_dofs(mesh, dof_map, owner, s)
        els = np.flatnonzero(owner == s)
        d = dofs[els]
        ld = np.where(d >= 0, np.searchsorted(local, d), -1)
        out.append(_scatter(Ke[els], ld, local.shape[0]))
    return out

