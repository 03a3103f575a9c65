"""Partitioners, restriction maps, interface DOF count, partitions of unity."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from geneo.elasticity import build_mesh, make_dof_map
from geneo.errors import (
    ConfigError,
    TooManySubdomains,
    UnassignedElement,
    ZeroDiagonal,
)
from geneo.partitioning import (
    PartitionSpec,
    build_restrictions,
    element_adjacency,
    load_partition,
    multiplicity,
    partition_elements,
    pou_matrices,
    save_partition,
)
from helpers import (
    dict_element_adjacency,
    full_scale,
    reference_rcb_owner,
    tiny,
    toy,
)


def connected(m, p, s, adjacency=None):
    """Whether subdomain s of p is one piece of the element graph."""
    graph = element_adjacency(m) if adjacency is None else adjacency
    members = np.flatnonzero(p.element_owner == s)
    return connected_components(graph[members][:, members], directed=False)[0] == 1


class TestElementGraph:
    """The sorted-edge-key element graph against the dict-of-edges loop."""

    # the rcb meshes of the test suite, desk (40 x 20) and the weak-scale
    # 168 x 84 mesh with 32 subdomains
    @pytest.mark.parametrize("nx,ny,N", [
        (3, 2, 6), (4, 2, 2), (12, 6, 5), (20, 10, 4), (30, 15, 4),
        (40, 20, 4), (84, 42, 8), (168, 84, 32), (5, 5, 25)])
    def test_matches_dict_reference(self, nx, ny, N):
        m = build_mesh(nx, ny)
        graph = element_adjacency(m)
        rows = np.split(graph.indices, graph.indptr[1:-1])
        assert [r.tolist() for r in rows] == \
            [sorted(nb) for nb in dict_element_adjacency(m)]
        np.testing.assert_array_equal(
            partition_elements(m, N, "rcb").element_owner,
            reference_rcb_owner(m, N))


class TestPartitioners:
    def test_single_subdomain(self):
        m = build_mesh(3, 2)
        p = partition_elements(m, 1, "strips")
        assert np.all(p.element_owner == 0)

    def test_strips_two_columns_each(self):
        m = build_mesh(8, 2)
        p = partition_elements(m, 4, "strips")
        col = (np.arange(m.n_elements) // 2) % m.nx
        np.testing.assert_array_equal(p.element_owner, col // 2)

    def test_strips_y_rows(self):
        m = build_mesh(2, 6)
        p = partition_elements(m, 3, "strips_y")
        row = (np.arange(m.n_elements) // 2) // m.nx
        np.testing.assert_array_equal(p.element_owner, row // 2)

    def test_rcb_balance_and_connectivity(self):
        m = build_mesh(84, 42)
        p = partition_elements(m, 8, "rcb")
        counts = np.bincount(p.element_owner, minlength=8)
        assert counts.max() <= 2 * counts.min()
        adj = element_adjacency(m)
        for s in range(8):
            assert connected(m, p, s, adj)

    def test_rcb_odd_subdomain_count(self):
        m = build_mesh(12, 6)
        p = partition_elements(m, 5, "rcb")
        counts = np.bincount(p.element_owner, minlength=5)
        assert counts.min() >= 1
        assert counts.max() <= 2 * counts.min()
        adj = element_adjacency(m)
        assert all(connected(m, p, s, adj) for s in range(5))

    def test_rcb_rebalances_after_repair(self, monkeypatch):
        # on a 3 x 2 mesh, six RCB parts leave one subdomain with a single
        # element after the connectivity repair; rebalancing moves elements
        # until every subdomain owns two, each still connected
        from geneo import partitioning
        m = build_mesh(3, 2)
        repaired = []
        real = partitioning._repair_connectivity

        def spy(*args):
            owner = real(*args)
            repaired.append(np.bincount(owner, minlength=6).tolist())
            return owner

        monkeypatch.setattr(partitioning, "_repair_connectivity", spy)
        p = partition_elements(m, 6, "rcb")
        assert repaired == [[2, 2, 1, 3, 2, 2]]
        assert np.bincount(p.element_owner, minlength=6).tolist() == [2] * 6
        adj = element_adjacency(m)
        assert all(connected(m, p, s, adj) for s in range(6))
        np.testing.assert_array_equal(
            partition_elements(m, 6, "rcb").element_owner, p.element_owner)

    def test_disconnected_subdomains(self):
        # 4 x 1 cells, two triangles each: columns 0, 2 vs columns 1, 3
        m = build_mesh(4, 1)
        p = PartitionSpec(2, np.array([0, 0, 1, 1, 0, 0, 1, 1]))
        assert [connected(m, p, s) for s in range(2)] == [False, False]

    def test_too_many_subdomains(self):
        m = build_mesh(2, 1)
        with pytest.raises(TooManySubdomains):
            partition_elements(m, 5, "rcb")
        with pytest.raises(TooManySubdomains):
            partition_elements(m, 3, "strips")

    def test_roundtrip_file(self, tmp_path):
        m = build_mesh(4, 2)
        p = partition_elements(m, 2, "rcb")
        path = tmp_path / "partition.txt"
        save_partition(path, p)
        q = load_partition(path, m.n_elements)
        np.testing.assert_array_equal(p.element_owner, q.element_owner)

    def test_owner_labels_compacted_in_order(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("0 7\n1 2\n2 7\n3 9\n")
        p = load_partition(path, 4)
        assert p.n_subdomains == 3
        np.testing.assert_array_equal(p.element_owner, [1, 0, 1, 2])

    @pytest.mark.parametrize("content,needle", [
        ("0 0\n1 1 junk\n", "line 2 expected 'element_id owner', got '1 1 junk'"),
        ("0 0\n1 1\n0 1\n", "line 3 '0 1'"),
    ], ids=["extra_field", "repeated_element"])
    def test_malformed_file_names_the_line(self, tmp_path, content, needle):
        # both files used to load: the third field was ignored, and the
        # repeated element id silently moved element 0 to subdomain 1
        path = tmp_path / "partition.txt"
        path.write_text(content)
        with pytest.raises(ConfigError, match=needle):
            load_partition(path, 2)


class TestRestrictions:
    def test_single_subdomain_identity(self):
        s = tiny(N=1)
        [m] = s.restrictions
        np.testing.assert_array_equal(m.global_index,
                                      np.arange(s.problem.n))
        assert s.n_gamma == 0

    def test_two_strips_shared_column(self):
        # nx=2, ny=1, split into 2 strips: the middle vertex column (x=1)
        # is duplicated; its free vertices carry 2 DOFs each
        mesh = build_mesh(2, 1)
        part = partition_elements(mesh, 2, "strips")
        dof_map = make_dof_map(mesh)
        maps, n_gamma = build_restrictions(mesh, part, dof_map)
        shared_vertices = [v for v in range(mesh.n_vertices)
                           if np.isclose(mesh.vertices[v, 0], 1.0)]
        free_shared = [v for v in shared_vertices if not mesh.dirichlet[v]]
        assert n_gamma == 2 * len(free_shared)
        for v in free_shared:
            for c in range(2):
                d = dof_map[v, c]
                assert all(d in m.global_index for m in maps)

    def test_partition_off_the_mesh_rejected(self):
        s = tiny()
        short = PartitionSpec(2, s.partition.element_owner[:-1])
        with pytest.raises(UnassignedElement, match="does not match the mesh"):
            build_restrictions(s.mesh, short, s.problem.dof_map)

    def test_row_orthonormality_and_cover(self):
        s = toy()
        n = s.problem.n
        seen = np.zeros(n, dtype=bool)
        for m in s.restrictions:
            assert np.unique(m.global_index).size == m.n_local
            seen[m.global_index] = True
        assert seen.all()

    def test_gamma_identity_for_multiplicity_two(self):
        # strip partitions only produce multiplicity-2 interfaces, where
        # n_gamma = sum(n_s) - n holds exactly
        s = full_scale()
        assert multiplicity(s.restrictions).max() == 2
        total = sum(m.n_local for m in s.restrictions)
        assert s.n_gamma == total - s.problem.n

    def test_gamma_inequality_in_general(self):
        s = toy()
        total = sum(m.n_local for m in s.restrictions)
        assert s.n_gamma <= total - s.problem.n


class TestPartitionOfUnity:
    def test_single_subdomain_identity_weights(self):
        s = tiny(N=1)
        for kind in ("multiplicity", "k_scaling"):
            [d] = pou_matrices(s.restrictions, kind, A=s.A, neumann=s.neumann)
            np.testing.assert_allclose(d, 1.0, atol=1e-14)

    def test_multiplicity_halves_on_interface(self):
        s = full_scale()
        weights = pou_matrices(s.restrictions, "multiplicity")
        mult = multiplicity(s.restrictions)
        for m, d in zip(s.restrictions, weights):
            np.testing.assert_allclose(d, 1.0 / mult[m.global_index], atol=1e-15)

    def test_identity_both_kinds(self):
        for setup in (toy(), toy("no_layers")):
            for kind in ("multiplicity", "k_scaling"):
                w = pou_matrices(setup.restrictions, kind, A=setup.A,
                                 neumann=setup.neumann)
                assert np.abs(multiplicity(setup.restrictions, w) - 1).max() <= 1e-14
                assert all(np.all(d > 0) for d in w)

    def test_k_scaling_follows_stiffness_ratio(self):
        # two strips with E = 1e5 / 1e8: soft-side interface weights are close
        # to 1e5/(1e5+1e8), computed here directly from assembled diagonals
        s = tiny(kind="no_layers", nx=4, ny=2, N=2, method="strips")
        weights = pou_matrices(s.restrictions, "k_scaling", A=s.A,
                               neumann=s.neumann)
        diag = s.A.diagonal()
        for m, d, As in zip(s.restrictions, weights, s.neumann):
            expected = As.diagonal() / diag[m.global_index]
            np.testing.assert_allclose(d, expected, rtol=1e-14)
        shared = multiplicity(s.restrictions)[s.restrictions[0].global_index] >= 2
        soft = weights[0][shared]
        ratio = 1e5 / (1e5 + 1e8)
        assert np.all(soft < 10 * ratio)
        assert np.all(soft > ratio / 10)

    def test_k_scaling_zero_diagonal_rejected(self):
        s = tiny()
        bad = [As.copy() for As in s.neumann]
        bad[0] = bad[0].tolil()
        bad[0][0, 0] = 0.0
        bad[0] = bad[0].tocsr()
        with pytest.raises(ZeroDiagonal):
            pou_matrices(s.restrictions, "k_scaling", A=s.A, neumann=bad)

    @pytest.mark.parametrize("missing", ["A", "neumann"])
    def test_k_scaling_needs_matrices(self, missing):
        s = tiny()
        given = dict(A=s.A, neumann=s.neumann)
        given.pop(missing)
        with pytest.raises(ConfigError, match="k_scaling needs"):
            pou_matrices(s.restrictions, "k_scaling", **given)

    def test_three_way_corner_multiplicity(self):
        # an rcb grid with interior cross points has DOFs shared by >2
        # subdomains; the identity must still hold there
        from helpers import Setup

        s = Setup(20, 10, 8, "rcb", "no_layers")
        assert multiplicity(s.restrictions).max() >= 3
        for kind in ("multiplicity", "k_scaling"):
            w = pou_matrices(s.restrictions, kind, A=s.A, neumann=s.neumann)
            assert np.abs(multiplicity(s.restrictions, w) - 1).max() <= 1e-14
