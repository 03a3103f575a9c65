"""Coarse-space construction: weighted Neumann matrices, selections, assembly."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from geneo.schwarz import CoarseSpace, LocalSolverSet
from helpers import Setup, desk, one_block, toy


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

    def test_requires_invertible_solvers(self):
        s = Setup(6, 3, 3, "strips", "no_layers")
        _, Ms, _ = s.scaled("multiplicity")
        ls = s.local_solvers("nn", "multiplicity")
        with pytest.raises(LocalSolverSingular):
            coarse_flat(10.0, ls, Ms)

    def test_as_below_one_floods(self):
        # the pencil has a huge eigenspace at exactly 1; thresholds tau_flat
        # <= 1 sweep it into the coarse space.  The pencil difference
        # M - R A R^T is supported on interface rows and columns, so its
        # rank is at most twice the interface size.
        s = toy()
        _, Ms, _ = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        contribs, records = coarse_flat(0.99, ls, Ms)
        for sub in range(4):
            n_s = s.restrictions[sub].n_local
            gamma_s = s.interface.interface_sets[sub].shape[0]
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
                low = full.below(tau)
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
                low = full.below(1.0 / tau)
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
        # Z and A Z are held as dense blocks local to one subdomain each:
        # V_s on the subdomain's rows, W_s on the rows A reaches from them;
        # no attribute holds an n-row array and Z is sparse on demand
        from geneo import coarse, linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("orthonormalize_columns called")

        monkeypatch.setattr(linalg, "orthonormalize_columns", forbidden)
        assert "orthonormalize_columns" not in vars(coarse)
        s = toy()
        space, _ = s.coarse("as", "k_scaling", tau_flat=10.0)
        A = s.A.tocsc()
        subs = [sub for sub, k in enumerate(space.subdomain_counts) if k]
        assert len(space.V_blocks) == len(space.W_blocks) == len(subs) > 1
        for sub, (rows, V, pos), (reach, W, wpos) in zip(
                subs, space.V_blocks, space.W_blocks):
            gi = s.restrictions[sub].global_index
            np.testing.assert_array_equal(rows, gi)
            np.testing.assert_array_equal(reach, np.unique(A[:, gi].indices))
            np.testing.assert_array_equal(pos, wpos)
            assert V.shape == (gi.size, pos.size)
            assert W.shape == (reach.size, pos.size)
            np.testing.assert_allclose(W, (A[:, gi] @ V)[reach], rtol=0,
                                       atol=1e-12 * np.abs(W).max())
        positions = np.concatenate([pos for _, _, pos in space.V_blocks])
        np.testing.assert_array_equal(np.sort(positions), np.arange(space.n0))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for v in value:
                    yield from arrays(v)

        held = list(arrays(list(vars(space).values())))
        assert held and all(a.shape[0] != s.problem.n for a in held)
        assert sp.issparse(space.basis) and space.basis.shape == (s.problem.n, space.n0)

    @pytest.mark.parametrize("case", ["toy-nn", "toy-is", "desk-is"])
    def test_one_pass_basis_keeps_E_bitwise(self, case, monkeypatch):
        # Z from one COO pass over the blocks equals the sum of one sparse
        # matrix per block, so E = Z^T (A Z), and with it the pivot order,
        # min_pivot and the dropped columns, is bitwise what that sum gave
        from geneo import schwarz

        built = []
        real = schwarz._sparse_basis

        def spy(n, k, blocks):
            built.append((blocks, real(n, k, blocks)))
            return built[-1][1]

        monkeypatch.setattr(schwarz, "_sparse_basis", spy)
        name, variant = case.split("-")
        s = desk() if name == "desk" else toy()
        kw = dict(tau_flat=10.0) if variant == "is" else {}
        space, _ = s.coarse(variant, "k_scaling", tau_sharp=0.5, **kw)
        (blocks, Z), = built
        summed = sp.csc_matrix(Z.shape)
        for rows, V, cols in blocks:
            i, j = np.nonzero(V)
            summed += sp.csc_matrix((V[i, j], (rows[i], cols[j])), shape=Z.shape)

        def coarse_matrix(Z):
            return (Z.T @ sp.csc_matrix(s.A @ Z)).toarray()

        assert np.array_equal(coarse_matrix(Z), coarse_matrix(summed))
        # the on-demand basis is the kept, scaled columns in coarse order
        dense = np.zeros((s.problem.n, space.n0))
        for rows, V, pos in space.V_blocks:
            dense[np.ix_(rows, pos)] += V
        np.testing.assert_array_equal(space.basis.toarray(), dense)

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
    """The block gather/gemm/scatter operators against the dense projector
    formulas with Q the materialized basis."""

    @staticmethod
    def _space(case):
        if case == "random":
            s = toy()
            B = np.random.default_rng(7).standard_normal((s.problem.n, 5))
            space = CoarseSpace(s.A, one_block(np.column_stack([B, B[:, 2]])))
            assert space.n0 == 5 and space.dropped_columns == 1
            return s, space
        s = desk() if case == "desk" else toy()
        variant = "is" if case == "desk" else case
        # "nn" takes no flat selection (it needs invertible local solvers)
        kw = {} if variant == "nn" else dict(tau_flat=10.0)
        return s, s.coarse(variant, "k_scaling", tau_sharp=0.5, **kw)[0]

    @pytest.mark.parametrize("case", ["as", "nn", "is", "desk", "random"])
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_operators_match_dense_formulas(self, case, shape):
        s, space = self._space(case)
        A = s.A.toarray()
        Q = space.basis.toarray()
        AQ = A @ Q
        Einv = np.linalg.inv(Q.T @ AQ)
        x = np.random.default_rng(8).standard_normal((s.problem.n,) + shape)
        want = {
            "project": x - Q @ (Einv @ (AQ.T @ x)),
            "project_transpose": x - AQ @ (Einv @ (Q.T @ x)),
            "coarse_apply": Q @ (Einv @ (Q.T @ x)),
        }
        for name, ref in want.items():
            got = getattr(space, name)(x)
            assert got.shape == x.shape
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), name
        # the hybrid combination with H = I shares one coarse solve
        t = want["project_transpose"]
        ref = t - Q @ (Einv @ (AQ.T @ t)) + want["coarse_apply"]
        got = space.hybrid(x, lambda v: v.copy())
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

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


class TestMsFactorsReleased:
    """The flat selection solves its pencil without a factor of M_s:
    ``build_coarse_space`` factors no M_s at all, by either pivoted
    Cholesky."""

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
