"""Element partitioning and algebraic subdomain plumbing.

Non-overlapping element partitions (axis strips or recursive coordinate
bisection), boolean restriction maps with duplicated interface DOFs and
the interface DOF count ``n_gamma``, partition-of-unity diagonals, and
partition file IO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, TooManySubdomains, UnassignedElement, ZeroDiagonal

SCALINGS = ("multiplicity", "k_scaling")


@dataclass(frozen=True)
class PartitionSpec:
    """Owner subdomain for every element; owners are 0-based and dense."""

    n_subdomains: int
    element_owner: np.ndarray

    def __post_init__(self):
        owner = np.asarray(self.element_owner)
        if owner.ndim != 1:
            raise UnassignedElement("element_owner must be one index per element")
        if owner.size and (owner.min() < 0 or owner.max() >= self.n_subdomains):
            raise UnassignedElement("owner index out of range")
        counts = np.bincount(owner, minlength=self.n_subdomains)
        if np.any(counts == 0):
            raise UnassignedElement("every subdomain must own at least one element")


def partition_elements(mesh, N: int, method: str = "rcb") -> PartitionSpec:
    """Partition mesh elements into N balanced, connected subdomains."""
    if N < 1:
        raise ConfigError(f"n_subdomains must be at least 1, got {N}")
    if N > mesh.n_elements:
        raise TooManySubdomains(f"{N} subdomains for {mesh.n_elements} elements")
    if method in ("strips", "strips_y"):
        along = mesh.nx if method == "strips" else mesh.ny
        if N > along:
            raise TooManySubdomains(
                f"{method} needs N <= {along}, got {N}")
        quad = np.arange(mesh.n_elements) // 2
        lane = quad % mesh.nx if method == "strips" else quad // mesh.nx
        sizes = [g.size for g in np.array_split(np.arange(along), N)]
        owner = np.repeat(np.arange(N, dtype=np.int64), sizes)[lane]
    elif method == "rcb":
        coords = mesh.barycenters()
        owner = np.empty(mesh.n_elements, dtype=np.int64)
        _rcb(np.arange(mesh.n_elements), coords, N, 0, owner)
        graph = element_adjacency(mesh)
        owner = _repair_connectivity(graph, owner, N)
        owner = _rebalance(graph, owner, N)
    else:
        raise ConfigError(f"unknown partitioning method {method!r}")
    return PartitionSpec(n_subdomains=N, element_owner=owner)


def _rcb(indices, coords, N, base, owner):
    # Recursive coordinate bisection: median split along the wider axis,
    # child sizes proportional to the subdomain counts on each side.
    if N == 1:
        owner[indices] = base
        return
    pts = coords[indices]
    extent = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(extent))
    order = np.lexsort((pts[:, 1 - axis], pts[:, axis]))
    n_left_parts = N // 2
    n_left = int(round(indices.size * n_left_parts / N))
    n_left = min(max(n_left, n_left_parts), indices.size - (N - n_left_parts))
    _rcb(indices[order[:n_left]], coords, n_left_parts, base, owner)
    _rcb(indices[order[n_left:]], coords, N - n_left_parts,
         base + n_left_parts, owner)


def _repair_connectivity(graph, owner, N):
    """Reattach stray components: each gets the neighbour owner it touches most."""
    for _ in range(graph.shape[0]):
        moved = False
        for s in range(N):
            comps = _components(graph, owner, s)
            if len(comps) <= 1:
                continue
            comps.sort(key=len)
            for comp in comps[:-1]:
                touched = owner[graph[comp].indices]
                votes = np.bincount(touched[touched != s], minlength=N)
                if not votes.any():
                    continue
                owner[comp] = int(np.argmax(votes))     # ties: lowest owner
                moved = True
        if not moved:
            return owner
    return owner


def _rebalance(graph, owner, N):
    """Grow undersized subdomains from larger neighbours (donor stays connected)."""
    for _ in range(4 * graph.shape[0]):
        counts = np.bincount(owner, minlength=N)
        if counts.max() <= 2 * counts.min() or not _transfer(graph, owner, counts):
            break
    return owner


def _transfer(graph, owner, counts) -> bool:
    """Move one element into the smallest subdomain that can take one from a
    strictly larger neighbour whose rest stays connected; False if none can.

    Every transfer decreases sum(counts^2), so repeating it terminates.
    """
    for small in np.argsort(counts, kind="stable"):
        for e in np.flatnonzero(owner == small):
            for nb in graph.indices[graph.indptr[e]:graph.indptr[e + 1]]:
                t = owner[nb]
                if t == small or counts[t] <= counts[small] + 1:
                    continue
                owner[nb] = small
                if len(_components(graph, owner, t)) == 1:
                    return True
                owner[nb] = t
    return False


def _components(graph, owner, s):
    """Components of subdomain s, each ascending, in order of their first element."""
    members = np.flatnonzero(owner == s)
    count, label = connected_components(graph[members][:, members], directed=False)
    return [members[label == k] for k in range(count)]


def element_adjacency(mesh) -> sp.csr_matrix:
    """Element graph, neighbours across shared edges, with sorted indices.

    Every triangle edge is keyed by its sorted vertex pair; after sorting
    the keys, a key held by exactly two triangles joins them.
    """
    keys = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    keys = keys[order]
    start = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1), True])
    pair = start[:-1][np.diff(start) == 2]
    a, b = order[pair] // 3, order[pair + 1] // 3
    n = mesh.n_elements
    return sp.csr_matrix((np.ones(2 * a.size, dtype=bool),
                          (np.r_[a, b], np.r_[b, a])), shape=(n, n))


def subdomain_free_dofs(mesh, dof_map, element_owner, s: int) -> np.ndarray:
    """Canonical local DOF set of subdomain s: ascending global free index."""
    els = np.flatnonzero(np.asarray(element_owner) == s)
    verts = np.unique(mesh.triangles[els])
    d = np.asarray(dof_map)[verts].ravel()
    return np.sort(d[d >= 0])


@dataclass(frozen=True)
class RestrictionMap:
    """Boolean restriction R_s, stored as the local-to-global index vector.

    Rows are distinct canonical basis vectors, so R_s R_s^T = I exactly.
    """

    global_index: np.ndarray
    n_global: int

    @property
    def n_local(self) -> int:
        return self.global_index.shape[0]

    def restrict(self, x: np.ndarray) -> np.ndarray:
        return x[self.global_index]

    def prolong(self, xs: np.ndarray) -> np.ndarray:
        shape = (self.n_global,) + xs.shape[1:]
        out = np.zeros(shape, dtype=float)
        out[self.global_index] = xs
        return out


def multiplicity(restrictions, weights=None) -> np.ndarray:
    """sum_s R_s^T w_s, summed in subdomain order; with ``weights`` None
    (w_s = 1) the number of subdomains whose restriction holds each DOF."""
    acc = np.zeros(restrictions[0].n_global)
    for s, m in enumerate(restrictions):
        acc[m.global_index] += 1.0 if weights is None else weights[s]
    return acc


def build_restrictions(mesh, partition: PartitionSpec, dof_map):
    """Restriction maps (interface DOFs duplicated) and the interface DOF count."""
    owner = np.asarray(partition.element_owner)
    if owner.shape[0] != mesh.n_elements:
        raise UnassignedElement("partition size does not match the mesh")
    n = int((np.asarray(dof_map) >= 0).sum())
    maps = []
    for s in range(partition.n_subdomains):
        gi = subdomain_free_dofs(mesh, dof_map, owner, s)
        maps.append(RestrictionMap(global_index=gi, n_global=n))
    mult = multiplicity(maps)
    if np.any(mult == 0):
        raise UnassignedElement("restriction maps do not cover the global space")
    return maps, int((mult >= 2).sum())


def pou_matrices(restrictions, kind: str, A=None, neumann=None):
    """Diagonal partition-of-unity weights D_s (one vector per subdomain).

    ``multiplicity``: inverse DOF multiplicity.  ``k_scaling``: ratio of the
    local Neumann diagonal to the subdomain slice of the global diagonal,
    which weights interface DOFs by relative stiffness.
    """
    if kind == "multiplicity":
        mult = multiplicity(restrictions)
        return [1.0 / mult[m.global_index] for m in restrictions]
    if kind == "k_scaling":
        if A is None or neumann is None:
            raise ConfigError("k_scaling needs the global matrix and Neumann list")
        diag = A.diagonal()
        out = []
        for m, As in zip(restrictions, neumann):
            denom = diag[m.global_index]
            if np.any(denom == 0.0):
                raise ZeroDiagonal("zero diagonal entry in k-scaling denominator")
            d = As.diagonal() / denom
            if np.any(d <= 0.0):
                raise ZeroDiagonal("nonpositive k-scaling weight")
            out.append(d)
        return out
    raise ConfigError(f"unknown partition-of-unity scaling {kind!r}")


def save_partition(path, partition: PartitionSpec) -> None:
    with open(path, "w") as fh:
        for e, s in enumerate(partition.element_owner):
            fh.write(f"{e} {int(s)}\n")


def load_partition(path, n_elements: int) -> PartitionSpec:
    """Read ``element_id owner`` lines; a malformed file is a ConfigError."""
    owner = -np.ones(n_elements, dtype=np.int64)
    try:
        with open(path) as fh:
            rows = [(i, p) for i, p in enumerate(map(str.split, fh), 1) if p]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"partition_file {path}: cannot read ({exc})") from exc
    for line, fields in rows:
        try:
            e, s = map(int, fields)
        except ValueError as exc:
            raise ConfigError(f"partition_file {path}: line {line} expected "
                              f"'element_id owner', got {' '.join(fields)!r}") from exc
        if not 0 <= e < n_elements or s < 0 or owner[e] >= 0:
            raise ConfigError(
                f"partition_file {path}: line {line} '{e} {s}' needs an element "
                f"id in [0, {n_elements}) not listed before and a nonnegative owner")
        owner[e] = s
    missing = np.flatnonzero(owner < 0)
    if missing.size:
        raise ConfigError(f"partition_file {path}: no line for element(s) "
                          f"{missing[:5].tolist()}")
    uniq, owner = np.unique(owner, return_inverse=True)
    return PartitionSpec(n_subdomains=len(uniq), element_owner=owner)
