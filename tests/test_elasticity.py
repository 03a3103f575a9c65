"""Mesh construction, coefficient fields, global and local Neumann assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from geneo import elasticity
from geneo.elasticity import (
    CoefficientField,
    LAYER_EXTRA,
    assemble,
    assemble_local_neumann,
    build_mesh,
    element_stiffness,
    young_field,
)
from geneo.errors import (
    ConfigError,
    IndefiniteMatrix,
    SingularAfterBC,
    UnassignedElement,
)
from geneo.linalg import pivoted_cholesky
from geneo.partitioning import PartitionSpec, build_restrictions, partition_elements
from helpers import (
    case_a,
    desk,
    full_scale,
    reference_element_stiffness,
    reference_solution,
    reference_triangles,
    tiny,
    toy,
)


class TestMesh:
    def test_unit_counts(self):
        m = build_mesh(1, 1)
        assert m.n_vertices == 4
        assert m.n_elements == 2
        assert m.dirichlet.sum() == 2

    def test_two_by_one(self):
        m = build_mesh(2, 1)
        assert m.n_vertices == 6
        assert m.n_elements == 4
        prob = assemble(m, young_field("no_layers",
                                       partition_elements(m, 1, "strips"), m))
        assert prob.n == 8

    def test_paper_grid_dof_count(self):
        m = build_mesh(84, 42)
        assert m.n_vertices == 85 * 43
        assert m.n_elements == 2 * 84 * 42
        free = (~m.dirichlet).sum()
        assert free * 2 == 7224
        # uniform element size 1/42 in both directions
        assert np.isclose(2.0 / m.nx, 1.0 / 42.0)
        assert np.isclose(1.0 / m.ny, 1.0 / 42.0)

    @pytest.mark.parametrize("nx, ny", [(1, 1), (7, 3), (5, 17), (84, 42)])
    def test_triangles_match_reference(self, nx, ny):
        got = build_mesh(nx, ny).triangles
        want = reference_triangles(nx, ny)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_positive_orientation(self):
        m = build_mesh(3, 2)
        coords = m.vertices[m.triangles]
        e1 = coords[:, 1] - coords[:, 0]
        e2 = coords[:, 2] - coords[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.all(det > 0)


class TestCoefficients:
    def test_single_subdomain_is_odd(self):
        m = build_mesh(4, 2)
        part = partition_elements(m, 1, "strips")
        f = young_field("no_layers", part, m)
        assert np.all(f.young == 1e5)

    def test_parity_rule(self):
        m = build_mesh(4, 2)
        part = partition_elements(m, 4, "strips")
        f = young_field("no_layers", part, m)
        owner = part.element_owner
        assert np.all(f.young[owner % 2 == 0] == 1e5)
        assert np.all(f.young[owner % 2 == 1] == 1e8)

    def test_layers_add_inside_bands(self):
        m = build_mesh(14, 7)   # element rows centered at y = (2k+1)/14
        part = partition_elements(m, 1, "strips")
        f = young_field("with_layers", part, m)
        y = m.barycenters()[:, 1]
        in_band = ((y >= 1 / 7) & (y <= 2 / 7)) | ((y >= 3 / 7) & (y <= 4 / 7)) \
            | ((y >= 5 / 7) & (y <= 6 / 7))
        assert in_band.any() and (~in_band).any()
        assert np.all(f.young[in_band] == 1e5 + LAYER_EXTRA)
        assert np.all(f.young[~in_band] == 1e5)

    def test_field_validation(self):
        with pytest.raises(ConfigError):
            CoefficientField(young=np.ones(3), poisson=0.5)
        with pytest.raises(ConfigError):
            CoefficientField(young=np.array([1.0, -2.0]), poisson=0.3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                CoefficientField(young=np.array([1.0, bad]), poisson=0.3)

    def test_unassigned_elements_rejected(self):
        m = build_mesh(2, 2)
        bad = PartitionSpec(1, np.zeros(4, dtype=int))  # 8 elements on 2x2
        with pytest.raises(UnassignedElement):
            young_field("no_layers", bad, m)

    def test_field_or_partition_off_the_mesh_rejected(self):
        s = tiny()
        short = CoefficientField(young=s.field.young[:-1], poisson=0.3)
        with pytest.raises(UnassignedElement, match="coefficient field"):
            assemble(s.mesh, short)
        bad = PartitionSpec(2, s.partition.element_owner[:-1])
        with pytest.raises(UnassignedElement, match="does not assign"):
            assemble_local_neumann(s.mesh, s.field, bad)


class TestAssembly:
    def test_single_triangle_translation_invariance(self):
        # rows of the pre-BC element matrix sum to zero per component
        m = build_mesh(1, 1)
        f = CoefficientField(young=np.ones(2), poisson=0.25)
        Ke = element_stiffness(m, f)
        ux = Ke[0][:, 0::2].sum(axis=1)
        uy = Ke[0][:, 1::2].sum(axis=1)
        assert np.abs(ux).max() < 1e-14
        assert np.abs(uy).max() < 1e-14

    def test_spd_and_symmetric(self):
        s = toy()
        A = s.A
        assert abs(A - A.T).max() == 0.0
        assert pivoted_cholesky(A[:60][:, :60]).full_rank
        f = pivoted_cholesky(s.dirichlet_locals[1])
        assert f.full_rank

    def test_linear_in_young(self):
        m = build_mesh(3, 2)
        part = partition_elements(m, 1, "strips")
        f1 = CoefficientField(young=np.full(m.n_elements, 2.0), poisson=0.4)
        f10 = CoefficientField(young=np.full(m.n_elements, 20.0), poisson=0.4)
        A1 = assemble(m, f1, compute_reference=False).A
        A10 = assemble(m, f10, compute_reference=False).A
        assert abs(A10 - 10.0 * A1).max() <= 1e-9 * abs(A10).max()

    def test_rhs_is_vertical_load(self):
        m = build_mesh(2, 2)
        part = partition_elements(m, 1, "strips")
        prob = assemble(m, young_field("no_layers", part, m))
        xdofs = prob.dof_map[:, 0]
        assert np.all(prob.b[xdofs[xdofs >= 0]] == 0.0)
        # total load = domain area minus the mass of the eliminated
        # Dirichlet basis functions (area/3 per incident triangle)
        area = 0.25
        incident = np.bincount(m.triangles.ravel(), minlength=m.n_vertices)
        missing = (incident[m.dirichlet] * area / 3.0).sum()
        np.testing.assert_allclose(prob.b.sum(), 2.0 - missing, atol=1e-12)

    def test_requires_dirichlet(self):
        m = build_mesh(2, 1)
        object.__setattr__(m, "dirichlet", np.zeros(m.n_vertices, dtype=bool))
        part = partition_elements(m, 1, "strips")
        with pytest.raises(SingularAfterBC):
            assemble(m, young_field("no_layers", part, m))

    def test_reference_solution_solves(self):
        s = tiny()
        r = s.problem.A @ s.problem.reference_solution - s.problem.b
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(s.problem.b)


class TestReferenceSolution:
    """The band Cholesky solve of :func:`assemble`."""

    @pytest.mark.parametrize("setup", [toy, desk, case_a], ids=["toy", "desk", "case-a"])
    def test_ties_sparse_lu(self, setup):
        # the band Cholesky solve against SuperLU's: within 1e-10 relative
        # A-norm, and a backward error |A x - b| / (|A|_1 |x|) no larger
        s = setup()
        A, b, x = s.A, s.problem.b, s.problem.reference_solution
        x_lu = reference_solution(A, b)
        e = x - x_lu
        assert np.sqrt(e @ (A @ e)) <= 1e-10 * np.sqrt(x_lu @ (A @ x_lu))
        norm_A = abs(A).sum(axis=0).max()

        def backward(y):
            return np.linalg.norm(A @ y - b) / (norm_A * np.linalg.norm(y))

        assert backward(x) <= backward(x_lu)

    def test_indefinite_is_a_typed_error(self, monkeypatch):
        stiffness = elasticity.element_stiffness
        monkeypatch.setattr(elasticity, "element_stiffness",
                            lambda mesh, field: -stiffness(mesh, field))
        m = build_mesh(4, 2)
        f = young_field("no_layers", partition_elements(m, 1, "strips"), m)
        with pytest.raises(IndefiniteMatrix):
            assemble(m, f)
        assert assemble(m, f, compute_reference=False).reference_solution is None


class TestElementStiffness:
    @pytest.mark.parametrize("setup", [toy, full_scale], ids=["toy", "full-scale"])
    def test_ties_element_loop(self, setup):
        # batched B^T D B against the element loop, per element at 1e-14
        # relative to its largest entry
        s = setup()
        K = element_stiffness(s.mesh, s.field)
        ref = reference_element_stiffness(s.mesh, s.field)
        err = np.abs(K - ref).max(axis=(1, 2))
        assert (err <= 1e-14 * np.abs(ref).max(axis=(1, 2))).all()


class TestLocalNeumann:
    def test_single_subdomain_equals_global(self):
        s = tiny(N=1)
        [As] = s.neumann
        assert abs(As - s.A).max() == 0.0

    def test_floating_subdomain_kernel_dim_3(self):
        # strips: every strip but the clamped one carries the rigid body modes
        m = build_mesh(6, 3)
        part = partition_elements(m, 3, "strips")
        f = young_field("no_layers", part, m)
        neu = assemble_local_neumann(m, f, part)
        dims = [pivoted_cholesky(As).kernel_dim for As in neu]
        assert dims == [0, 3, 3]

    def test_rigid_body_modes_in_kernel(self):
        m = build_mesh(6, 3)
        part = partition_elements(m, 3, "strips")
        f = young_field("no_layers", part, m)
        neu = assemble_local_neumann(m, f, part)
        prob = assemble(m, f)
        maps, _ = build_restrictions(m, part, prob.dof_map)
        gi = maps[1].global_index
        # reconstruct vertex coordinates of the local DOFs
        full_index = np.flatnonzero(prob.dof_map.ravel() >= 0)
        vert = full_index[gi] // 2
        comp = full_index[gi] % 2
        xy = m.vertices[vert]
        scale = abs(neu[1]).max()
        for mode in [np.where(comp == 0, 1.0, 0.0),
                     np.where(comp == 0, 0.0, 1.0),
                     np.where(comp == 0, -xy[:, 1], xy[:, 0])]:
            assert np.abs(neu[1] @ mode).max() <= 1e-10 * scale

    def test_splitting_identity(self):
        s = toy()
        n = s.problem.n
        S = np.zeros((n, n))
        for m_, As in zip(s.restrictions, s.neumann):
            gi = m_.global_index
            S[np.ix_(gi, gi)] += As.toarray()
        A = s.A.toarray()
        num = np.linalg.norm(S - A)
        assert num <= 1e-12 * np.linalg.norm(A)

