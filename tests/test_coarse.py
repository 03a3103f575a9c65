"""Coarse-space construction: weighted Neumann matrices, selections, assembly."""

import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from geneo.coarse import (
    GenEOConfig,
    assemble_coarse,
    build_Ms,
    build_coarse_space,
    coarse_flat,
    coarse_sharp,
)
from geneo.errors import (
    CoarseIsWholeSpace,
    CoarseSingular,
    ConfigError,
    LocalSolverSingular,
    NonFiniteValue,
)
from geneo.linalg import gen_eig, orthonormalize_columns, pivoted_cholesky
from geneo.partitioning import multiplicity
from geneo.schwarz import (
    ORTHO_TOL,
    CoarseSpace,
    LocalSolverSet,
    PreconditionedOperator,
)
from helpers import Setup, below, desk, one_block, reference_coarse_matrix, toy


def lifted_basis(setup, contributions):
    blocks = [setup.restrictions[c.subdomain].prolong(c.vectors)
              for c in contributions if c.count]
    if not blocks:
        return np.zeros((setup.problem.n, 0))
    return np.hstack(blocks)


def assert_same_projector(setup, a, b):
    x = np.random.default_rng(2).standard_normal((setup.problem.n, 4))
    want = a.project(x)
    assert np.linalg.norm(b.project(x) - want) <= 1e-10 * np.linalg.norm(want)


class TestConfig:
    def test_needs_a_threshold(self):
        with pytest.raises(ConfigError):
            GenEOConfig()

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            GenEOConfig(tau_flat=-1.0)


class TestBuildMs:
    def test_identity_weights(self):
        s = toy()
        M = build_Ms(np.ones(s.neumann[1].shape[0]), s.neumann[1])
        assert abs(M - s.neumann[1]).max() == 0.0

    def test_kernel_is_scaled_neumann_kernel(self):
        s = Setup(6, 3, 3, "strips", "no_layers")
        d = s.scaled("k_scaling")[0][1]
        M = build_Ms(d, s.neumann[1])
        fN = pivoted_cholesky(s.neumann[1])
        fM = pivoted_cholesky(M)
        assert fN.kernel_dim == 3 and fM.kernel_dim == 3
        # Ker(M) = D * Ker(A_Neu)
        scaled = d[:, None] * fN.kernel_basis
        ang = sla.subspace_angles(scaled, fM.kernel_basis)
        assert ang.max() < 1e-8


class TestSharpSelection:
    def test_as_pencil_is_trivial(self):
        # exact local solvers: the pencil is the identity, nothing selected
        s = toy()
        ls = s.local_solvers("as")
        contribs, records = coarse_sharp(0.999, ls, s.dirichlet_locals)
        assert all(c.count == 0 for c in contribs)
        assert not any(r.selected for r in records)
        for sub in range(ls.n_subdomains):
            res = gen_eig(ls.tilde_matrix(sub), s.dirichlet_locals[sub])
            np.testing.assert_allclose(res.eigenvalues, 1.0, atol=1e-8)

    def test_nn_includes_kernel(self):
        s = Setup(6, 3, 3, "strips", "no_layers")
        ls = s.local_solvers("nn")
        contribs, records = coarse_sharp(0.5, ls, s.dirichlet_locals)
        for s_id in (1, 2):
            c = contribs[s_id]
            assert c.count >= 3
            assert c.origins.count("ker_local_solver") == 3
            # the exact factorization kernel is what gets contributed
            ker_cols = c.vectors[:, :3]
            ang = sla.subspace_angles(ker_cols, ls.kernel_basis(s_id))
            assert ang.max() < 1e-10

    def test_selection_grows_with_threshold(self):
        s = toy()
        ls = s.local_solvers("is")
        sizes = []
        for tau in (0.1, 0.3, 0.6):
            contribs, _ = coarse_sharp(tau, ls, s.dirichlet_locals)
            sizes.append(sum(c.count for c in contribs))
        assert sizes[0] <= sizes[1] <= sizes[2]


class TestFlatSelection:
    """The low selection of (M_s, tilde A_s) below 1/tau_flat."""

    def test_requires_invertible_solvers(self, sparse_solves):
        # refused before any window is solved
        s = Setup(6, 3, 3, "strips", "no_layers")
        _, Ms, _ = s.scaled("multiplicity")
        ls = s.local_solvers("nn", "multiplicity")
        with pytest.raises(LocalSolverSingular):
            coarse_flat(10.0, ls, Ms)
        assert sparse_solves == []

    def test_build_refuses_before_any_window(self, sparse_solves):
        # with both thresholds the flat refusal comes before the sharp windows
        s = Setup(6, 3, 3, "strips", "no_layers")
        _, Ms, _ = s.scaled("multiplicity")
        ls = s.local_solvers("nn", "multiplicity")
        with pytest.raises(LocalSolverSingular):
            build_coarse_space(GenEOConfig(tau_sharp=0.5, tau_flat=10.0), s.A,
                               s.restrictions, ls, s.dirichlet_locals, Ms)
        assert sparse_solves == []

    def test_as_below_one_floods(self):
        # the pencil has a huge eigenspace at exactly 1; thresholds tau_flat
        # <= 1 sweep it into the coarse space.  The pencil difference
        # M - R A R^T is supported on interface rows and columns, so its
        # rank is at most twice the interface size.
        s = toy()
        _, Ms, _ = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        contribs, records = coarse_flat(0.99, ls, Ms)
        mult = multiplicity(s.restrictions)
        for sub in range(4):
            n_s = s.restrictions[sub].n_local
            gamma_s = int((mult[s.restrictions[sub].global_index] >= 2).sum())
            at_one = sum(1 for r in records
                         if r.subdomain == sub and abs(r.eigenvalue - 1) < 1e-8)
            assert at_one >= n_s - 2 * gamma_s
        total = sum(c.count for c in contribs)
        assert total > 0.5 * s.problem.n

    def test_monotone_in_threshold(self):
        s = toy()
        _, Ms, _ = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        spaces = {}
        for tau in (4.0, 10.0, 100.0):
            contribs, _ = coarse_flat(tau, ls, Ms)
            spaces[tau] = lifted_basis(s, contribs)
        assert spaces[100.0].shape[1] <= spaces[10.0].shape[1] \
            <= spaces[4.0].shape[1]
        # nesting: V(10) inside V(4), V(100) inside V(10)
        for big, small in ((10.0, 4.0), (100.0, 10.0)):
            U = sla.orth(spaces[small])
            V = spaces[big]
            resid = V - U @ (U.T @ V)
            assert np.abs(resid).max() < 1e-8

    def test_huge_threshold_keeps_only_kernels(self):
        from geneo.coarse import SubdomainContribution

        s = toy()
        _, Ms, factors = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        contribs, _ = coarse_flat(1e10, ls, Ms)
        for c, f in zip(contribs, factors):
            assert c.count == f.kernel_dim
        got = lifted_basis(s, contribs)
        want = lifted_basis(s, [
            SubdomainContribution(i, f.kernel_basis, ["k"] * f.kernel_dim,
                                  np.full(f.kernel_dim, np.nan))
            for i, f in enumerate(factors)])
        if got.shape[1]:
            ang = sla.subspace_angles(got, want)
            assert ang.max() < 1e-8

    def test_duality_with_nn_sharp(self):
        # the flat space at 1/tau equals the sharp space of the
        # weighted-Neumann solvers at tau
        s = toy()
        _, Ms, _ = s.scaled("k_scaling")
        ls_as = s.local_solvers("as")
        ls_nn = s.local_solvers("nn", "k_scaling")
        for tau in (0.1, 0.5):
            c_nn, _ = coarse_sharp(tau, ls_nn, s.dirichlet_locals)
            c_fl, _ = coarse_flat(1.0 / tau, ls_as, Ms)
            s_nn = assemble_coarse(c_nn, s.A, s.restrictions)
            s_fl = assemble_coarse(c_fl, s.A, s.restrictions)
            assert s_nn.n0 == s_fl.n0
            if s_nn.n0:
                ang = sla.subspace_angles(s_nn.basis.toarray(),
                                          s_fl.basis.toarray())
                assert ang.max() <= 1e-8


def _records(records, sub, pencil):
    return [r for r in records if r.subdomain == sub and r.pencil == pencil]


def _assert_same_block(got_vals, got_vecs, want_vals, want_vecs, scale):
    assert got_vals.shape == want_vals.shape
    assert np.abs(got_vals - want_vals).max(initial=0.0) <= 1e-10 * scale
    if want_vecs.shape[1]:
        assert sla.subspace_angles(got_vecs, want_vecs).max() <= 1e-8


SCALINGS = ["multiplicity", "k_scaling"]


class TestWindowedSelection:
    """The thresholded eigensolves against the full spectrum plus ``below``.

    The toy tests run both scalings and every threshold, the desk tests the
    benchmark's scaling.  The sparse, inertia-counted path must have run on
    every pencil, sharp and flat.
    """

    @staticmethod
    def _check_sharp(s, variant, scaling, taus, sparse_solves):
        ls = s.local_solvers(variant, scaling)
        fulls = [gen_eig(ls.tilde_matrix(sub), s.dirichlet_locals[sub])
                 for sub in range(ls.n_subdomains)]
        for tau in taus:
            sparse_solves.clear()
            contribs, records = coarse_sharp(tau, ls, s.dirichlet_locals)
            assert len(sparse_solves) == ls.n_subdomains
            assert None not in sparse_solves
            for sub, c in enumerate(contribs):
                full = fulls[sub]
                low = below(full, tau)
                scale = np.abs(full.eigenvalues).max()
                recs = _records(records, sub, "sharp")
                assert [r.index for r in recs] == list(range(low.size))
                got = np.array([r.eigenvalue for r in recs])
                assert got.shape == (low.size,)
                assert np.abs(got - low.eigenvalues).max(initial=0.0) \
                    <= 1e-10 * scale
                k = ls.kernel_basis(sub).shape[1]
                lead = min(k, low.size)
                _assert_same_block(c.eigenvalues[k:], c.vectors[:, k:],
                                   low.eigenvalues[lead:],
                                   low.eigenvectors[:, lead:], scale)

    @staticmethod
    def _check_flat(s, variant, scaling, taus, sparse_solves):
        _, Ms, _ = s.scaled(scaling)
        ls = s.local_solvers(variant, scaling)
        fulls = [gen_eig(M, ls.tilde_matrix(sub)) for sub, M in enumerate(Ms)]
        for tau in taus:
            sparse_solves.clear()
            contribs, records = coarse_flat(tau, ls, Ms)
            assert len(sparse_solves) == ls.n_subdomains
            assert None not in sparse_solves
            for sub, c in enumerate(contribs):
                full = fulls[sub]
                low = below(full, 1.0 / tau)
                scale = np.abs(full.eigenvalues).max()
                recs = _records(records, sub, "flat")
                assert [r.index for r in recs] == list(range(low.size))
                assert all(r.selected for r in recs)
                got = np.array([r.eigenvalue for r in recs])
                assert np.abs(got - low.eigenvalues).max(initial=0.0) \
                    <= 1e-10 * scale
                _assert_same_block(c.eigenvalues, c.vectors, low.eigenvalues,
                                   low.eigenvectors, scale)

    @pytest.mark.parametrize("scaling", SCALINGS)
    @pytest.mark.parametrize("variant", ["nn", "is"])
    def test_sharp_matches_full_solve(self, variant, scaling, sparse_solves):
        self._check_sharp(toy(), variant, scaling, (0.1, 0.5, 0.9),
                          sparse_solves)

    @pytest.mark.parametrize("scaling", SCALINGS)
    @pytest.mark.parametrize("variant", ["as", "is"])
    def test_flat_matches_full_solve(self, variant, scaling, sparse_solves):
        self._check_flat(toy(), variant, scaling, (2.0, 4.0, 10.0, 100.0),
                         sparse_solves)

    @pytest.mark.parametrize("variant", ["nn", "is"])
    def test_desk_sharp_matches_full_solve(self, variant, sparse_solves):
        self._check_sharp(desk(), variant, "k_scaling", (0.5, 0.9),
                          sparse_solves)

    @pytest.mark.parametrize("variant", ["as", "is"])
    def test_desk_flat_matches_full_solve(self, variant, sparse_solves):
        self._check_flat(desk(), variant, "k_scaling", (4.0, 10.0),
                         sparse_solves)

    @pytest.mark.parametrize("variant", ["as", "is"])
    @pytest.mark.parametrize("setup", [toy, desk], ids=["toy", "desk"])
    def test_dense_window_matches_full_flat_selection(self, setup, variant,
                                                      sparse_solves):
        # the stable-splitting reference of geneo.oracle: dense inputs take
        # the dense reduction restricted to the window, never the sparse
        # solve that built V0
        s = setup()
        _, Ms, _ = s.scaled("k_scaling")
        ls = s.local_solvers(variant)
        for sub, M in enumerate(Ms):
            T = ls.tilde_matrix(sub)
            full = gen_eig(M, T)
            scale = np.abs(full.eigenvalues).max()
            for tau_flat in (4.0, 10.0):
                want = below(full, 1.0 / tau_flat)
                got = gen_eig(M.toarray(), T.toarray(), tau=1.0 / tau_flat)
                assert got.size == want.size
                assert np.abs(got.eigenvalues - want.eigenvalues).max(
                    initial=0.0) <= 1e-12 * scale
                if want.size:
                    assert sla.subspace_angles(
                        got.eigenvectors, want.eigenvectors).max() <= 1e-8
        assert sparse_solves == []

    def test_tie_at_threshold_goes_high(self):
        # diagonal pencils with an eigenvalue exactly at the threshold: it
        # is left out of both selections, which keep the pairs strictly
        # below it, as gen_eig rules (flat: 1/tau_flat = 0.5)
        T = np.diag([0.5, 1.0, 2.0, 4.0])
        eye = np.eye(4)
        tau = 2.0
        assert tau in gen_eig(T, eye).eigenvalues
        ls = LocalSolverSet("as", [None], [pivoted_cholesky(T)])
        sharp, sharp_records = coarse_sharp(tau, ls, [eye])
        np.testing.assert_array_equal(sharp[0].eigenvalues, [0.5, 1.0])
        assert [r.eigenvalue for r in sharp_records] == [0.5, 1.0]
        ls = LocalSolverSet("as", [None], [pivoted_cholesky(eye)])
        flat, flat_records = coarse_flat(tau, ls, [np.diag([0.25, 0.5, 1.0, 2.0])])
        np.testing.assert_array_equal(flat[0].eigenvalues, [0.25])
        assert [(r.index, r.eigenvalue) for r in flat_records] == [(0, 0.25)]
        assert all(r.selected for r in flat_records)

    def test_tie_at_threshold_goes_high_sparse(self, sparse_solves):
        # the same rule on the sparse path: T - tau I is exactly singular,
        # so the count is taken just below tau.  The sparse path solves
        # windows of less than half the spectrum, so each side gets its own
        # pencil with few eigenvalues in its window.
        tau = 2.0
        eye = sp.identity(8, format="csr")
        T = sp.diags([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).tocsr()
        ls = LocalSolverSet("as", [None], [pivoted_cholesky(T)])
        sharp, sharp_records = coarse_sharp(tau, ls, [eye])
        np.testing.assert_array_equal(sharp[0].eigenvalues, [0.5, 1.0])
        assert [r.eigenvalue for r in sharp_records] == [0.5, 1.0]
        M = sp.diags([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0]).tocsr()
        ls = LocalSolverSet("as", [None], [pivoted_cholesky(eye)])
        flat, flat_records = coarse_flat(tau, ls, [M])
        np.testing.assert_array_equal(flat[0].eigenvalues, [0.25])
        assert [(r.index, r.eigenvalue) for r in flat_records] == [(0, 0.25)]
        assert all(r.selected for r in flat_records)
        assert sparse_solves == [2, 1]

    def test_desk_is_pencils_stay_sparse(self, densified, sparse_solves):
        # every sharp and flat pencil runs on the sparse path, floating
        # subdomains included; only the coarse matrix E of all lifted
        # columns is densified
        s = desk()
        _, Ms, factors = s.scaled("k_scaling")
        ls = s.local_solvers("is")
        densified.clear()       # the cached setup may be built just now
        space, _ = build_coarse_space(
            GenEOConfig(tau_sharp=0.5, tau_flat=10.0), s.A, s.restrictions,
            ls, ls.dirichlet, Ms)
        n_sub = ls.n_subdomains
        assert 0 < sum(f.kernel_dim > 0 for f in factors) < n_sub
        assert densified == [(sum(space.subdomain_counts),) * 2]
        sharp, flat = sparse_solves[:n_sub], sparse_solves[n_sub:]
        assert None not in sparse_solves
        assert len(sharp) == len(flat) == n_sub
        assert sum(flat) > 0


class TestVectorCap:
    def test_sharp_cap_never_cuts_kernels(self):
        s = Setup(6, 3, 3, "strips", "no_layers")
        ls = s.local_solvers("nn", "multiplicity")
        capped, _ = coarse_sharp(0.5, ls, s.dirichlet_locals, cap=0)
        for sub, c in enumerate(capped):
            assert c.count == ls.kernel_basis(sub).shape[1]

    def test_flat_cap_keeps_zero_modes(self):
        # toy "as": Ker(M_s) has dimension 0/3/3/3 and the uncapped flat
        # selection below 1/10 keeps 3/4/9/3 vectors.  A cap below a kernel's
        # dimension keeps exactly the zero modes, a larger one keeps ``cap``
        # vectors; either way the kept ones lead the uncapped selection.
        s = toy()
        _, Ms, factors = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        full, _ = coarse_flat(10.0, ls, Ms)
        assert [f.kernel_dim for f in factors] == [0, 3, 3, 3]
        assert [c.count for c in full] == [3, 4, 9, 3]
        for cap, want in ((1, [1, 3, 3, 3]), (5, [3, 4, 5, 3])):
            capped, records = coarse_flat(10.0, ls, Ms, cap=cap)
            assert [c.count for c in capped] == want
            for cf, cc, f in zip(full, capped, factors):
                np.testing.assert_array_equal(cc.eigenvalues,
                                              cf.eigenvalues[:cc.count])
                np.testing.assert_array_equal(cc.vectors,
                                              cf.vectors[:, :cc.count])
                if cap < f.kernel_dim:
                    assert np.abs(cc.eigenvalues).max() <= 1e-10
                    ang = sla.subspace_angles(cc.vectors, f.kernel_basis)
                    assert ang.max() < 1e-8
            assert sum(r.selected for r in records) == sum(want)

    def test_flat_cap_floor_reads_true_kernels(self):
        # case A: 30x15, 4 rcb, hard layers, k-scaling.  The Jacobi-scaled
        # M_s have kernels 0/3/3/3, and subdomain 2's smallest nonzero mode
        # sits at mu ~ 6e-5.  The zero-mode floor is relative to the
        # diagonal ratio bound (at most 1.7e5 here), not to the top of the
        # spectrum, so a cap of 1 keeps exactly the kernels.
        s = Setup(30, 15, 4, "rcb", "with_layers")
        _, Ms, _ = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        capped, _ = coarse_flat(10.0, ls, Ms, cap=1)
        assert [c.count for c in capped] == [1, 3, 3, 3]
        assert capped[0].eigenvalues[0] > 1e-4
        for sub in (1, 2, 3):
            V = capped[sub].vectors
            assert np.abs(capped[sub].eigenvalues).max() <= 1e-8
            assert np.linalg.norm(Ms[sub] @ V) <= 1e-10 * spla.norm(Ms[sub], 1) \
                * np.linalg.norm(V)


class TestAssembleCoarse:
    def test_empty(self):
        s = toy()
        space = assemble_coarse([], s.A, s.restrictions)
        assert space.n0 == 0
        x = np.random.default_rng(0).standard_normal(s.problem.n)
        np.testing.assert_array_equal(space.project(x), x)

    def test_duplicates_are_dropped(self):
        s = toy()
        _, Ms, _ = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        contribs, _ = coarse_flat(10.0, ls, Ms)
        space1 = assemble_coarse(contribs, s.A, s.restrictions)
        space2 = assemble_coarse(contribs + contribs, s.A, s.restrictions)
        assert space1.n0 == space2.n0
        # per-subdomain counts double, the basis does not
        assert sum(space2.subdomain_counts) == 2 * sum(space1.subdomain_counts)
        assert space2.dropped_columns == space1.dropped_columns + space1.n0
        assert_same_projector(s, space1, space2)

    def test_whole_space_rejected(self):
        from geneo.coarse import SubdomainContribution

        s = Setup(2, 1, 2, "strips", "no_layers")
        contribs = [
            SubdomainContribution(i, np.eye(m.n_local), ["x"] * m.n_local,
                                  np.full(m.n_local, np.nan))
            for i, m in enumerate(s.restrictions)
        ]
        with pytest.raises(CoarseIsWholeSpace):
            assemble_coarse(contribs, s.A, s.restrictions)

    @pytest.mark.parametrize("variant", ["as", "nn", "is"])
    def test_coarse_matrix_spd_and_span_of_orthonormal_basis(self, variant):
        # the basis is the sparse, unorthogonalized Z; E = Z^T A Z is spd
        # after deduplication and Z spans what the orthonormalized lifted
        # columns span.  "nn" takes no flat selection (it needs invertible
        # local solvers).
        s = toy()
        ls = s.local_solvers(variant)
        _, Ms, _ = s.scaled("k_scaling")
        contribs = coarse_sharp(0.5, ls, s.dirichlet_locals)[0]
        if variant != "nn":
            contribs += coarse_flat(10.0, ls, Ms)[0]
        space = assemble_coarse(contribs, s.A, s.restrictions)
        Z = space.basis
        assert sp.issparse(Z) and space.n0 > 0
        E = (Z.T @ (s.A @ Z)).toarray()
        np.linalg.cholesky(E)
        np.testing.assert_allclose(np.diag(E), 1.0, rtol=1e-12)
        # the smallest pivot is the squared A-norm distance of one column
        # from the span of the others
        distances = 1.0 / np.diag(np.linalg.inv(E))
        assert np.isclose(distances, space.min_pivot, rtol=1e-8).any()
        assert space.min_pivot >= np.linalg.eigvalsh(E)[0] * (1 - 1e-8)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(space.n0)
        assert np.linalg.norm(E @ space.solve(w) - w) <= 1e-8 * np.linalg.norm(w)
        Q = orthonormalize_columns(lifted_basis(s, contribs), 1e-10)
        assert Q.shape[1] == space.n0
        assert sla.subspace_angles(Q, Z.toarray()).max() <= 1e-8
        x = rng.standard_normal((s.problem.n, 3))
        AQ = s.A @ Q
        old = x - Q @ np.linalg.solve(Q.T @ AQ, AQ.T @ x)
        assert np.linalg.norm(space.project(x) - old) <= 1e-10 * np.linalg.norm(old)

    def test_typed_errors(self):
        from geneo.schwarz import CoarseSpace

        s = toy()
        rng = np.random.default_rng(5)
        basis = orthonormalize_columns(rng.standard_normal((s.problem.n, 5)))
        with pytest.raises(CoarseSingular):
            CoarseSpace(-s.A, one_block(basis))
        basis[0, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            CoarseSpace(s.A, one_block(basis))

    def test_basis_sparse_without_orthonormalization(self, monkeypatch):
        # Z is held as dense blocks local to one subdomain each, V_s on the
        # subdomain's rows, and A Z not at all: the only arrays held are
        # the blocks and the coarse factor, none with n rows, A is the
        # system matrix itself and Z is sparse on demand
        from geneo import coarse, linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("orthonormalize_columns called")

        monkeypatch.setattr(linalg, "orthonormalize_columns", forbidden)
        assert "orthonormalize_columns" not in vars(coarse)
        s = toy()
        space, _ = s.coarse("as", "k_scaling", tau_flat=10.0)
        subs = [sub for sub, k in enumerate(space.subdomain_counts) if k]
        assert len(space.V_blocks) == len(subs) > 1
        for sub, (rows, V, pos) in zip(subs, space.V_blocks):
            gi = s.restrictions[sub].global_index
            np.testing.assert_array_equal(rows, gi)
            assert V.shape == (gi.size, pos.size)
        positions = np.concatenate([pos for _, _, pos in space.V_blocks])
        np.testing.assert_array_equal(np.sort(positions), np.arange(space.n0))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for v in value:
                    yield from arrays(v)

        held = {name: list(arrays(value)) for name, value in vars(space).items()}
        assert {name for name, a in held.items() if a} == {"V_blocks", "_L"}
        assert all(a.shape[0] != s.problem.n for a in sum(held.values(), []))
        assert space.A is s.A
        assert sp.issparse(space.basis) and space.basis.shape == (s.problem.n, space.n0)

    @pytest.mark.parametrize("case", ["toy-nn", "toy-is", "desk-is", "desk-nn"])
    def test_E_from_blocks_matches_sparse_product(self, case, monkeypatch):
        # E from the dense blocks is exactly symmetric and agrees with the
        # sparse Z^T (A Z) to rounding; the space that product gives keeps
        # the same columns with min_pivot equal to rounding (the pivot
        # order is not compared: on a unit diagonal it follows ties)
        from geneo import schwarz

        formed = []
        real = schwarz._coarse_matrix

        def spy(A, blocks):
            formed.append((A, blocks, real(A, blocks)))
            return formed[-1][2]

        monkeypatch.setattr(schwarz, "_coarse_matrix", spy)
        name, variant = case.split("-")
        s = desk() if name == "desk" else toy()
        kw = dict(tau_flat=10.0) if variant == "is" else {}
        space, _ = s.coarse(variant, "k_scaling", tau_sharp=0.5, **kw)
        (A, blocks, E), = formed
        assert len(blocks) > 1
        reference = reference_coarse_matrix(A, blocks)
        assert np.array_equal(E, E.T)
        assert np.abs(E - reference).max() <= 1e-14 * np.abs(E).max()
        monkeypatch.setattr(schwarz, "_coarse_matrix",
                            lambda A, blocks: reference)
        sparse, _ = s.coarse(variant, "k_scaling", tau_sharp=0.5, **kw)
        assert (space.n0, space.dropped_columns) == (sparse.n0,
                                                     sparse.dropped_columns)
        assert space.min_pivot == pytest.approx(sparse.min_pivot, rel=1e-10)
        # the on-demand basis is the kept, scaled columns in coarse order
        dense = np.zeros((s.problem.n, space.n0))
        for rows, V, pos in space.V_blocks:
            dense[np.ix_(rows, pos)] += V
        np.testing.assert_array_equal(space.basis.toarray(), dense)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(2, 40), band=st.integers(0, 6),
           widths=st.lists(st.integers(0, 4), min_size=1, max_size=5),
           seed=st.integers(0, 2**31 - 1))
    def test_E_from_random_blocks(self, n, band, widths, seed):
        # overlapping row windows of a random banded spd A, columns in a
        # random order: E equals the sparse product to rounding, its
        # uncoupled blocks are exact zeros, and it is exactly symmetric
        from geneo.schwarz import _coarse_matrix

        rng = np.random.default_rng(seed)
        i, j = np.triu_indices(n, 1)
        near = (j - i <= band) & (rng.random(i.size) < 0.7)
        upper = sp.coo_matrix((rng.standard_normal(near.sum()),
                               (i[near], j[near])), shape=(n, n))
        off = (upper + upper.T).tocsr()
        margin = rng.uniform(0.1, 1.0, n)
        A = (off + sp.diags(abs(off).sum(1).A1 + margin)).tocsr()
        cols = rng.permutation(sum(widths))
        blocks = []
        for w, first in zip(widths, np.cumsum([0] + widths)):
            lo = rng.integers(n)
            rows = np.arange(lo, min(n, lo + rng.integers(1, n + 1)))
            blocks.append((rows, rng.standard_normal((rows.size, w)),
                           cols[first:first + w]))
        E = _coarse_matrix(A, blocks)
        reference = reference_coarse_matrix(A, blocks)
        Z = np.zeros((n, cols.size))
        for rows, V, c in blocks:
            Z[np.ix_(rows, c)] = V
        scale = abs(Z).T @ (abs(A) @ abs(Z))
        eps = np.finfo(float).eps
        assert np.array_equal(E, E.T)
        assert np.all(np.abs(E - reference) <= 4 * n * eps * scale)
        assert np.all(E[scale == 0.0] == 0.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(n=st.integers(2, 40), band=st.integers(0, 6),
           widths=st.lists(st.integers(1, 4), min_size=1, max_size=5),
           seed=st.integers(0, 2**31 - 1))
    def test_required_columns_never_dropped(self, n, band, widths, seed):
        # random blocks of a random banded spd A, each column followed by a
        # near-duplicate (pivot about 1e-14): of every pair at most one is
        # kept, and a required column, from a random well-conditioned
        # choice, is kept whichever of its pair dpstrf would pivot first
        from geneo.schwarz import _coarse_matrix, _kept_columns

        rng = np.random.default_rng(seed)
        i, j = np.triu_indices(n, 1)
        near = (j - i <= band) & (rng.random(i.size) < 0.7)
        upper = sp.coo_matrix((rng.standard_normal(near.sum()),
                               (i[near], j[near])), shape=(n, n))
        off = (upper + upper.T).tocsr()
        A = (off + sp.diags(abs(off).sum(1).A1 + rng.uniform(0.1, 1.0, n))).tocsr()
        blocks, k = [], 0
        for w in widths:
            lo = rng.integers(n)
            rows = np.arange(lo, min(n, lo + rng.integers(1, n + 1)))
            V = rng.standard_normal((rows.size, w))
            twins = V * rng.uniform(0.5, 2.0, w) \
                + 1e-7 * rng.standard_normal(V.shape)
            blocks.append((rows, np.hstack([V, twins]), np.arange(k, k + 2 * w)))
            k += 2 * w
        E = _coarse_matrix(A, blocks)
        d = np.sqrt(np.diag(E))
        Es = E / np.outer(d, d)
        required = np.zeros(k, bool)
        for c in rng.permutation(k):
            trial = required.copy()
            trial[c] = rng.random() < 0.6
            if np.linalg.eigvalsh(Es[np.ix_(trial, trial)]).min(initial=1.0) > 1e-3:
                required = trial
        perm, L, n0 = _kept_columns(Es, required)
        r = int(required.sum())
        np.testing.assert_array_equal(np.sort(perm[:r]), np.flatnonzero(required))
        assert r <= n0 <= k // 2
        assert np.abs(L @ L[:n0].T - Es[np.ix_(perm, perm[:n0])]).max() <= 1e-10
        space = CoarseSpace(A, blocks, required=required)
        assert (space.n0, space.dropped_columns) == (n0, k - n0)

    def test_dependent_required_columns_refused(self):
        # of two copies of a column one is dropped, unless both are
        # required: dependent local solver kernels are a CoarseSingular
        A = sp.identity(4, format="csr")
        v = np.ones((4, 1))
        blocks = [(np.arange(4), np.hstack([v, v]), np.array([0, 1]))]
        assert CoarseSpace(A, blocks).n0 == 1
        assert CoarseSpace(A, blocks, required=[False, True]).n0 == 1
        with pytest.raises(CoarseSingular):
            CoarseSpace(A, blocks, required=[True, True])

    def test_high_contrast_coarse_matrix_builds(self):
        # per-element contrast 10^11.67 on a 6x3 mesh: the sparse Z^T (A Z)
        # rounds asymmetrically by 4.5e-9 of its unit diagonal once scaled,
        # past dpstrf's 1e-10 symmetry check (NotSymmetric); E from the
        # blocks is a symmetric Gram matrix and the space builds
        from geneo.elasticity import (
            CoefficientField,
            assemble,
            assemble_local_neumann,
            build_mesh,
        )
        from geneo.partitioning import (
            build_restrictions,
            partition_elements,
            pou_matrices,
        )
        from geneo.schwarz import build_local_solvers, local_dirichlet_matrices

        mesh = build_mesh(6, 3)
        part = partition_elements(mesh, 2, "rcb")
        rng = np.random.default_rng(2)
        field = CoefficientField(10.0 ** rng.uniform(0.0, 11.67, mesh.n_elements),
                                 0.4)
        problem = assemble(mesh, field)
        neumann = assemble_local_neumann(mesh, field, part)
        maps, _ = build_restrictions(mesh, part, problem.dof_map)
        weights = pou_matrices(maps, "k_scaling", A=problem.A, neumann=neumann)
        Ms = [build_Ms(d, As) for d, As in zip(weights, neumann)]
        space, _ = build_coarse_space(
            GenEOConfig(tau_flat=10.0 ** 0.3), problem.A, maps,
            build_local_solvers(problem.A, maps, "as"),
            local_dirichlet_matrices(problem.A, maps), Ms)
        assert space.n0 == sum(space.subdomain_counts) - space.dropped_columns > 0
        assert space.min_pivot > ORTHO_TOL

    def test_kernel_inclusion_for_nn(self):
        s = Setup(6, 3, 3, "strips", "no_layers")
        space, _ = s.coarse("nn", "multiplicity", tau_sharp=0.5)
        ls = s.local_solvers("nn", "multiplicity")
        for sub in range(3):
            Z = ls.kernel_basis(sub)
            for j in range(Z.shape[1]):
                v = s.restrictions[sub].prolong(Z[:, j])
                r = space.project(v)
                va = np.sqrt(v @ (s.A @ v))
                ra = np.sqrt(abs(r @ (s.A @ r)))
                assert ra <= 1e-8 * max(va, 1.0)


class TestDeduplication:
    """The A-norm drop rule of the coarse matrix E = Z^T A Z."""

    @staticmethod
    def _contributions():
        s = toy()
        _, Ms, _ = s.scaled("k_scaling")
        contribs, _ = coarse_flat(10.0, s.local_solvers("as"), Ms)
        return s, [c for c in contribs if c.count]

    def test_perturbed_copy_dropped(self):
        from geneo.coarse import SubdomainContribution

        s, contribs = self._contributions()
        c = contribs[0]
        noise = np.random.default_rng(3).standard_normal(c.vectors.shape)
        copy = SubdomainContribution(
            c.subdomain, c.vectors + 1e-12 * np.abs(c.vectors).max() * noise,
            c.origins, c.eigenvalues)
        once = assemble_coarse(contribs, s.A, s.restrictions)
        perturbed = assemble_coarse(contribs + [copy], s.A, s.restrictions)
        assert perturbed.n0 == once.n0
        assert perturbed.dropped_columns == once.dropped_columns + c.count
        assert_same_projector(s, once, perturbed)

    @pytest.mark.parametrize("dist2, kept", [(1e-9, True), (1e-11, False)])
    def test_drop_rule_at_ortho_tol(self, dist2, kept):
        # a copy of a unit-A-norm column moved A-orthogonally to V0: its
        # pivot is dist2 / (1 + dist2), kept only above ORTHO_TOL = 1e-10
        from geneo.schwarz import CoarseSpace

        s, contribs = self._contributions()
        space = assemble_coarse(contribs, s.A, s.restrictions)
        Z = space.basis.toarray()
        u = space.project(np.random.default_rng(4).standard_normal(s.problem.n))
        u /= np.sqrt(u @ (s.A @ u))
        grown = CoarseSpace(
            s.A, one_block(np.column_stack([Z, Z[:, 0] + np.sqrt(dist2) * u])))
        assert grown.n0 == space.n0 + kept
        assert grown.dropped_columns == (not kept)

    def test_column_scaling_changes_nothing(self):
        from geneo.coarse import SubdomainContribution

        s, contribs = self._contributions()
        c = contribs[0]
        vectors = c.vectors.copy()
        vectors[:, 0] *= 1e8
        scaled = [SubdomainContribution(c.subdomain, vectors, c.origins,
                                        c.eigenvalues)] + contribs[1:]
        once = assemble_coarse(contribs, s.A, s.restrictions)
        big = assemble_coarse(scaled, s.A, s.restrictions)
        assert big.n0 == once.n0
        assert_same_projector(s, once, big)


class TestBlockOperatorsAgainstDenseFormulas:
    """The coarse operators against the dense formulas with Z the
    materialized basis: Q = Z E^{-1} Z^T by gather/gemm/scatter over the
    blocks, Pi = I - Q A and Pi^T = I - A Q with the system matrix, and the
    hybrid apply Pi H Pi^T + Q built on them."""

    VARIANT = {"desk": "is", "random": "as"}

    @classmethod
    def _space(cls, case):
        if case == "random":
            s = toy()
            B = np.random.default_rng(7).standard_normal((s.problem.n, 5))
            space = CoarseSpace(s.A, one_block(np.column_stack([B, B[:, 2]])))
            assert space.n0 == 5 and space.dropped_columns == 1
            return s, space
        s = desk() if case == "desk" else toy()
        variant = cls.VARIANT.get(case, case)
        # "nn" takes no flat selection (it needs invertible local solvers)
        kw = {} if variant == "nn" else dict(tau_flat=10.0)
        return s, s.coarse(variant, "k_scaling", tau_sharp=0.5, **kw)[0]

    def _hybrid(self, case):
        s, space = self._space(case)
        ls = s.local_solvers(self.VARIANT.get(case, case))
        return s, space, PreconditionedOperator(s.A, ls, space, mode="hybrid")

    @staticmethod
    def _dense(s, space):
        Z = space.basis.toarray()
        AZ = s.A @ Z
        return Z, AZ, np.linalg.inv(Z.T @ AZ)

    @pytest.mark.parametrize("case", ["as", "nn", "is", "desk", "random"])
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_operators_match_dense_formulas(self, case, shape):
        s, space = self._space(case)
        Z, AZ, Einv = self._dense(s, space)
        x = np.random.default_rng(8).standard_normal((s.problem.n,) + shape)
        want = {
            "project": x - Z @ (Einv @ (AZ.T @ x)),
            "project_transpose": x - AZ @ (Einv @ (Z.T @ x)),
            "coarse_apply": Z @ (Einv @ (Z.T @ x)),
        }
        for name, ref in want.items():
            got = getattr(space, name)(x)
            assert got.shape == x.shape
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), name

    @pytest.mark.parametrize("case", ["as", "nn", "is", "desk", "random"])
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_hybrid_matches_dense_formula(self, case, shape):
        s, space, op = self._hybrid(case)
        Z, AZ, Einv = self._dense(s, space)
        x = np.random.default_rng(8).standard_normal((s.problem.n,) + shape)
        t = op.apply_one_level(x - AZ @ (Einv @ (Z.T @ x)))
        ref = t - Z @ (Einv @ (AZ.T @ t)) + Z @ (Einv @ (Z.T @ x))
        got = op.apply_hybrid(x)
        assert got.shape == x.shape
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_hybrid_work_count(self, shape, monkeypatch):
        # Q x is computed once: two coarse solves and one H per apply
        s, _, op = self._hybrid("as")
        calls = []
        for cls, name in ((CoarseSpace, "solve"),
                          (PreconditionedOperator, "apply_one_level")):
            def spy(self, x, _real=getattr(cls, name), _name=name):
                calls.append(_name)
                return _real(self, x)
            monkeypatch.setattr(cls, name, spy)
        op.apply_hybrid(np.ones((s.problem.n,) + shape))
        assert sorted(calls) == ["apply_one_level", "solve", "solve"]

    @pytest.mark.parametrize("case", ["as", "nn", "is", "desk", "random"])
    def test_drift_energy_is_the_coarse_part(self, case):
        # y = Pi u + Z w: the part of y outside range(Pi) is Z w.  Both
        # parts get the same A-norm; rounding in Z^T A y is relative to
        # ||y||_A, so a random u (A-norm 4e5 times that of Z w on the random
        # case) would bound any formula, the old y - Pi y as well, at 1e-10.
        s, space = self._space(case)
        rng = np.random.default_rng(9)
        Zw = space.basis @ rng.standard_normal(space.n0)
        want = Zw @ (s.A @ Zw)
        Pu = space.project(rng.standard_normal(s.problem.n))
        y = Pu * np.sqrt(want / (Pu @ (s.A @ Pu))) + Zw
        assert abs(space.coarse_energy(s.A @ y) - want) <= 1e-10 * want


@pytest.mark.usefixtures("one_cpu")
class TestMsFactorsReleased:
    """The flat selection solves its pencil without a factor of M_s:
    ``build_coarse_space`` factors no M_s at all, by either pivoted
    Cholesky (the spies see the windows: they run in this process)."""

    @pytest.mark.parametrize("case", ["toy-as", "toy-is", "desk-is"])
    def test_no_Ms_factor_alive_after_build(self, case, monkeypatch):
        from geneo import linalg, schwarz

        name, variant = case.split("-")
        s = desk() if name == "desk" else toy()
        Ms = s.scaled("k_scaling")[1]
        ls = s.local_solvers(variant)
        factored = []

        def spy(real):
            def factor(M, *args, **kwargs):
                factored.append(M)
                return real(M, *args, **kwargs)
            return factor

        for fn in ("pivoted_cholesky", "dense_pivoted_cholesky"):
            wrapped = spy(getattr(linalg, fn))
            for module in (linalg, schwarz):
                monkeypatch.setattr(module, fn, wrapped)
        kw = dict(tau_sharp=0.5) if variant == "is" else {}
        space, _ = build_coarse_space(GenEOConfig(tau_flat=10.0, **kw), s.A,
                                      s.restrictions, ls, ls.dirichlet, Ms)
        # the one factorization is the coarse matrix E's
        assert [M.shape for M in factored] == [(sum(space.subdomain_counts),) * 2]
        assert not any(M is Ms_s for M in factored for Ms_s in Ms)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWindows:
    """The per-subdomain windows solved by forked workers give the serial
    loop's results and errors, bit for bit, and leave no child behind."""

    CASES = [("toy", "as"), ("toy", "nn"), ("toy", "is"), ("desk", "is"),
             ("case_a", "nn")]

    @staticmethod
    def _build(s, variant, monkeypatch):
        from geneo import schwarz

        kw = {"as": dict(tau_flat=10.0), "nn": dict(tau_sharp=0.5),
              "is": dict(tau_sharp=0.5, tau_flat=10.0)}[variant]
        Ms = s.scaled("k_scaling")[1]
        ls = s.local_solvers(variant)
        parts = []
        if "tau_sharp" in kw:
            parts.append(coarse_sharp(kw["tau_sharp"], ls, s.dirichlet_locals))
        if "tau_flat" in kw:
            parts.append(coarse_flat(kw["tau_flat"], ls, Ms))
        real, E = schwarz._coarse_matrix, []
        monkeypatch.setattr(schwarz, "_coarse_matrix",
                            lambda *a: E.append(real(*a)) or E[-1])
        space, records = build_coarse_space(
            GenEOConfig(**kw), s.A, s.restrictions, ls, s.dirichlet_locals, Ms)
        return parts, records, E[0], space

    @pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
    def test_bitwise_serial(self, case, workers, monkeypatch):
        import helpers

        name, variant = case
        s = getattr(helpers, name)()
        workers(1)
        want = self._build(s, variant, monkeypatch)
        for count in (2, 3):
            workers(count)
            got = self._build(s, variant, monkeypatch)
            _no_child_left()
            for (gc, gr), (wc, wr) in zip(got[0], want[0]):
                assert gr == wr
                for g, w in zip(gc, wc):
                    assert (g.subdomain, g.origins) == (w.subdomain, w.origins)
                    np.testing.assert_array_equal(g.vectors, w.vectors)
                    np.testing.assert_array_equal(g.eigenvalues, w.eigenvalues)
            assert got[1] == want[1] == [r for _, rec in want[0] for r in rec]
            np.testing.assert_array_equal(got[2], want[2])
            g, w = got[3], want[3]
            assert (g.n0, g.dropped_columns, g.min_pivot) \
                == (w.n0, w.dropped_columns, w.min_pivot)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_first_error_in_subdomain_order(self, count, workers, monkeypatch):
        # within a pencil the lowest subdomain's error is raised, and in a
        # build every sharp window comes before every flat one
        from geneo import coarse
        from geneo.errors import PencilNotDefinite

        s = toy()
        ls = s.local_solvers("is")
        tildes = [ls.tilde_matrix(i) for i in range(ls.n_subdomains)]
        real, refused = coarse.gen_eig, {("sharp", 1), ("sharp", 3)}

        def failing(M_A, M_B, tau=None):
            for pencil, locals_ in (("sharp", s.dirichlet_locals), ("flat", tildes)):
                sub = next((i for i, D in enumerate(locals_) if D is M_B), None)
                if (pencil, sub) in refused:
                    raise PencilNotDefinite(f"{pencil} subdomain {sub} refused")
            return real(M_A, M_B, tau=tau)

        monkeypatch.setattr(coarse, "gen_eig", failing)
        workers(count)
        with pytest.raises(PencilNotDefinite) as info:
            coarse_sharp(0.5, ls, s.dirichlet_locals)
        assert type(info.value) is PencilNotDefinite
        assert str(info.value) == "sharp subdomain 1 refused"
        _no_child_left()

        refused = {("sharp", 2), ("flat", 0)}
        with pytest.raises(PencilNotDefinite) as info:
            build_coarse_space(GenEOConfig(tau_sharp=0.5, tau_flat=10.0), s.A,
                               s.restrictions, ls, s.dirichlet_locals,
                               s.scaled("k_scaling")[1])
        assert str(info.value) == "sharp subdomain 2 refused"
        _no_child_left()

    @pytest.mark.parametrize("kw", [
        dict(tau_sharp=0.5), dict(tau_flat=10.0), dict(tau_sharp=0.5, tau_flat=10.0)],
        ids=["sharp", "flat", "both"])
    def test_one_map_per_build(self, kw, workers, monkeypatch):
        # a build forks once, whatever its thresholds
        from geneo import coarse

        s = toy()
        ls = s.local_solvers("is")
        real, maps = coarse._map_subdomains, []

        def spy(fn, items):
            maps.append(len(items))
            return real(fn, items)

        monkeypatch.setattr(coarse, "_map_subdomains", spy)
        workers(2)
        build_coarse_space(GenEOConfig(**kw), s.A, s.restrictions, ls,
                           s.dirichlet_locals, s.scaled("k_scaling")[1])
        assert maps == [len(kw) * ls.n_subdomains]

    def test_dead_child_redone_by_parent(self, workers, monkeypatch):
        # the parent's item 0 waits until the child has solved item 1 and
        # died in item 2; the parent solves both again, and item 3
        import time

        from geneo import coarse

        s = toy()
        ls = s.local_solvers("is")
        parent, solved, real = os.getpid(), [], coarse.gen_eig

        def dying(M_A, M_B, tau=None):
            sub = next(i for i, D in enumerate(s.dirichlet_locals) if D is M_B)
            if os.getpid() != parent:
                if sub == 2:
                    os._exit(1)
            elif sub == 0:
                time.sleep(0.5)
            solved.append(sub)      # seen in the parent only
            return real(M_A, M_B, tau=tau)

        workers(1)
        want = coarse_sharp(0.5, ls, s.dirichlet_locals)
        monkeypatch.setattr(coarse, "gen_eig", dying)
        workers(2)
        solved.clear()
        got = coarse_sharp(0.5, ls, s.dirichlet_locals)
        _no_child_left()
        assert sorted(solved) == [0, 1, 2, 3]
        assert got[1] == want[1]
        for g, w in zip(got[0], want[0]):
            np.testing.assert_array_equal(g.vectors, w.vectors)

    def test_interrupt_kills_children(self, workers, monkeypatch):
        # the children would sleep for a minute: they are killed, not
        # waited for
        import time

        from geneo import coarse

        s = toy()
        ls = s.local_solvers("is")
        parent = os.getpid()

        def interrupted(M_A, M_B, tau=None):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(coarse, "gen_eig", interrupted)
        workers(3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            coarse_sharp(0.5, ls, s.dirichlet_locals)
        assert time.perf_counter() - start < 30
        _no_child_left()
