"""Element partitioning and algebraic subdomain plumbing.

Non-overlapping element partitions (axis strips or recursive coordinate
bisection), boolean restriction maps with duplicated interface DOFs,
interface reporting, partition-of-unity diagonals, and partition file IO.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import TooManySubdomains, UnassignedElement, ZeroDiagonal

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
        raise ValueError("need at least one subdomain")
    if N > mesh.n_elements:
        raise TooManySubdomains(f"{N} subdomains for {mesh.n_elements} elements")
    if method in ("strips", "strips_y"):
        along = mesh.nx if method == "strips" else mesh.ny
        if N > along:
            raise TooManySubdomains(
                f"{method} needs N <= {along}, got {N}")
        quad = np.arange(mesh.n_elements) // 2
        lane = quad % mesh.nx if method == "strips" else quad // mesh.nx
        groups = np.array_split(np.arange(along), N)
        lane_owner = np.empty(along, dtype=np.int64)
        for s, g in enumerate(groups):
            lane_owner[g] = s
        owner = lane_owner[lane]
    elif method == "rcb":
        coords = mesh.barycenters()
        owner = np.empty(mesh.n_elements, dtype=np.int64)
        _rcb(np.arange(mesh.n_elements), coords, N, 0, owner)
        owner = _repair_connectivity(mesh, owner, N)
        owner = _rebalance(mesh, owner, N)
    else:
        raise ValueError(f"unknown partitioning method {method!r}")
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


def _repair_connectivity(mesh, owner, N):
    """Reattach stray components: each gets the neighbour owner it touches most."""
    adj = element_adjacency(mesh)
    for _ in range(mesh.n_elements):
        moved = False
        for s in range(N):
            members = np.flatnonzero(owner == s)
            comps = _components(members, adj, owner, s)
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
                target = max(sorted(votes), key=lambda t: votes[t])
                owner[comp] = target
                moved = True
        if not moved:
            return owner
    return owner


def _rebalance(mesh, owner, N):
    """Grow undersized subdomains from larger neighbours (donor stays connected)."""
    adj = element_adjacency(mesh)
    for _ in range(4 * mesh.n_elements):
        counts = np.bincount(owner, minlength=N)
        if counts.max() <= 2 * counts.min():
            break
        move = None
        # grow any undersized subdomain from a strictly larger neighbour;
        # every transfer decreases sum(counts^2), so this terminates
        for small in np.argsort(counts, kind="stable"):
            for e in np.flatnonzero(owner == small):
                for nb in sorted(adj[e]):
                    t = owner[nb]
                    if t == small or counts[t] <= counts[small] + 1:
                        continue
                    owner[nb] = small
                    members = np.flatnonzero(owner == t)
                    if len(_components(members, adj, owner, t)) == 1:
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


def _components(members, adj, owner, s):
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


def element_adjacency(mesh) -> list[list[int]]:
    """Element neighbours across shared edges."""
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


def subdomain_is_connected(mesh, partition: PartitionSpec, s: int,
                           adjacency=None) -> bool:
    adjacency = adjacency if adjacency is not None else element_adjacency(mesh)
    owner = np.asarray(partition.element_owner)
    members = np.flatnonzero(owner == s)
    if members.size == 0:
        return False
    seen = {int(members[0])}
    stack = [int(members[0])]
    while stack:
        e = stack.pop()
        for nb in adjacency[e]:
            if owner[nb] == s and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == members.size


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


@dataclass(frozen=True)
class InterfaceReport:
    n_gamma: int
    multiplicity: np.ndarray
    interface_sets: list   # per subdomain, global DOFs shared with others


def multiplicity(restrictions) -> np.ndarray:
    """Number of subdomains whose restriction holds each global DOF."""
    mult = np.zeros(restrictions[0].n_global, dtype=np.int64)
    for m in restrictions:
        mult[m.global_index] += 1
    return mult


def build_restrictions(mesh, partition: PartitionSpec, dof_map):
    """Restriction maps (interface DOFs duplicated) plus the interface report."""
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
    shared = mult >= 2
    interface_sets = [m.global_index[shared[m.global_index]] for m in maps]
    report = InterfaceReport(n_gamma=int(shared.sum()), multiplicity=mult,
                             interface_sets=interface_sets)
    return maps, report


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
            raise ValueError("k_scaling needs the global matrix and Neumann list")
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
    raise ValueError(f"unknown partition-of-unity kind {kind!r}")


def pou_identity_residual(restrictions, weights) -> float:
    """max-norm of I - sum_s R_s^T D_s R_s (diagonal by construction)."""
    acc = np.zeros(restrictions[0].n_global)
    for m, d in zip(restrictions, weights):
        acc[m.global_index] += d
    return float(np.abs(acc - 1.0).max())


def save_partition(path, partition: PartitionSpec) -> None:
    with open(path, "w") as fh:
        for e, s in enumerate(partition.element_owner):
            fh.write(f"{e} {int(s)}\n")


def load_partition(path, n_elements: int) -> PartitionSpec:
    owner = -np.ones(n_elements, dtype=np.int64)
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            e, s = int(parts[0]), int(parts[1])
            if not 0 <= e < n_elements:
                raise UnassignedElement(f"element id {e} out of range")
            owner[e] = s
    if np.any(owner < 0):
        raise UnassignedElement("partition file leaves elements unassigned")
    uniq = np.unique(owner)
    remap = {int(u): i for i, u in enumerate(uniq)}
    owner = np.array([remap[int(s)] for s in owner], dtype=np.int64)
    return PartitionSpec(n_subdomains=len(uniq), element_owner=owner)
