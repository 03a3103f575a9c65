"""One-level apply, projector, hybrid/additive combinations, coloring."""

from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from geneo import linalg
from geneo.coarse import GenEOConfig, build_coarse_space
from geneo.errors import ConfigError, KernelNotInCoarseSpace, UnsupportedVariant
from geneo.linalg import orthonormalize_columns, pivoted_cholesky
from geneo.partitioning import RestrictionMap
from geneo.schwarz import (
    CoarseSpace,
    PreconditionedOperator,
    build_local_solvers,
    color_subdomains,
    coloring_constant,
    empty_coarse_space,
    interaction_graph,
    kernel_inclusion_residual,
)
from helpers import Setup, dense_from_apply, desk, full_scale, one_block, tiny, toy


def block_diag_problem():
    """Two decoupled spd blocks with one subdomain each."""
    rng = np.random.default_rng(0)
    A1 = rng.standard_normal((4, 4))
    A1 = A1 @ A1.T + 4 * np.eye(4)
    A2 = rng.standard_normal((3, 3))
    A2 = A2 @ A2.T + 3 * np.eye(3)
    A = sp.csr_matrix(sla.block_diag(A1, A2))
    maps = [RestrictionMap(np.arange(4), 7), RestrictionMap(np.arange(4, 7), 7)]
    return A, maps


class TestOneLevel:
    def test_single_subdomain_is_exact_inverse(self):
        s = tiny(N=1)
        ls = s.local_solvers("as")
        op = PreconditionedOperator(s.A, ls, mode="one_level")
        rng = np.random.default_rng(1)
        x = rng.standard_normal(s.problem.n)
        y = op.apply_one_level(x)
        assert np.linalg.norm(s.A @ y - x) <= 1e-10 * np.linalg.norm(x)

    def test_disjoint_blocks_solve_exactly(self):
        A, maps = block_diag_problem()
        ls = build_local_solvers(A, maps, "as")
        op = PreconditionedOperator(A, ls, mode="one_level")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(7)
        y = op.apply_one_level(x)
        assert np.linalg.norm(A @ y - x) <= 1e-12 * np.linalg.norm(x)

    def test_symmetry(self):
        s = toy()
        for variant in ("as", "nn", "is"):
            op = PreconditionedOperator(s.A, s.local_solvers(variant),
                                        mode="one_level")
            rng = np.random.default_rng(3)
            x = rng.standard_normal(s.problem.n)
            y = rng.standard_normal(s.problem.n)
            hx = op.apply_one_level(x)
            hy = op.apply_one_level(y)
            scale = abs(x @ hy) + abs(y @ hx) + 1.0
            assert abs(x @ hy - y @ hx) <= 1e-12 * scale

    def test_nn_with_kernels_is_spd(self):
        # dense spectrum oracle on a strip toy whose Neumann solvers are singular
        s = Setup(6, 3, 3, "strips", "no_layers")
        ls = s.local_solvers("nn")
        assert any(ls.kernel_basis(i).shape[1] == 3
                   for i in range(ls.n_subdomains))
        op = PreconditionedOperator(s.A, ls, mode="one_level")
        H = dense_from_apply(op.apply_one_level, s.problem.n)
        lam = sla.eigvalsh(0.5 * (H + H.T))
        assert lam.min() > 0.0

    @pytest.mark.parametrize("variant", ["as", "nn", "is"])
    def test_empty_coarse_space_is_exact(self, variant):
        # V0 = {0}: Pi = I, the coarse component is zero and H_hyb = H, bit
        # for bit, on a vector and on an (n, k) block
        s = toy()
        op = PreconditionedOperator(s.A, s.local_solvers(variant))
        assert op.coarse.n0 == 0
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(s.problem.n),
                  rng.standard_normal((s.problem.n, 3))):
            np.testing.assert_array_equal(op.apply_projector(x), x)
            np.testing.assert_array_equal(op.apply_projector_transpose(x), x)
            np.testing.assert_array_equal(op.coarse_component(x),
                                          np.zeros_like(x))
            np.testing.assert_array_equal(op.apply_hybrid(x),
                                          op.apply_one_level(x))

    @pytest.mark.parametrize("variant,mode,kw", [
        ("as", "one_level", {}), ("nn", "one_level", {}),
        ("as", "additive", dict(tau_flat=10.0)),
        ("nn", "projected", dict(tau_sharp=0.5)),
        ("is", "hybrid", dict(tau_sharp=0.5, tau_flat=10.0))])
    def test_kernel_inclusion_kept_for_every_mode(self, variant, mode, kw):
        s = toy()
        op = s.operator(variant, "k_scaling", mode, **kw)
        assert op.kernel_inclusion == kernel_inclusion_residual(
            s.A, op.local_set, op.coarse)
        # a floating nn subdomain's kernel sticks out of V0 = {0} entirely
        if (variant, mode) == ("nn", "one_level"):
            assert op.kernel_inclusion == pytest.approx(1.0, rel=1e-12)


class TestProjector:
    def test_empty_coarse_space_is_identity(self):
        s = tiny()
        op = PreconditionedOperator(s.A, s.local_solvers("as"),
                                    empty_coarse_space(s.A), mode="projected")
        x = np.random.default_rng(0).standard_normal(s.problem.n)
        np.testing.assert_array_equal(op.apply_projector(x), x)

    def _projected_op(self):
        s = toy()
        return s, s.operator("as", "k_scaling", "projected", tau_flat=10.0)

    def test_annihilates_coarse_space(self):
        s, op = self._projected_op()
        Q = op.coarse.basis.toarray()
        rng = np.random.default_rng(4)
        v = Q @ rng.standard_normal(Q.shape[1])
        out = op.apply_projector(v)
        assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(v)

    def test_idempotent_and_a_self_adjoint(self):
        s, op = self._projected_op()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(s.problem.n)
        y = rng.standard_normal(s.problem.n)
        px = op.apply_projector(x)
        ppx = op.apply_projector(px)
        assert np.linalg.norm(ppx - px) <= 1e-10 * np.linalg.norm(px)
        # <Pi x, A (I - Pi) y> = 0
        py = op.apply_projector(y)
        inner = px @ (s.A @ (y - py))
        scale = np.sqrt(px @ (s.A @ px)) * np.sqrt(y @ (s.A @ y)) + 1.0
        assert abs(inner) <= 1e-10 * scale
        # A Pi = Pi^T A
        left = s.A @ px
        right = op.apply_projector_transpose(s.A @ x)
        assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)

    def test_coarse_component(self):
        s, op = self._projected_op()
        assert np.abs(op.coarse_component(np.zeros(s.problem.n))).max() == 0.0
        rng = np.random.default_rng(6)
        # the projected-mode apply is Pi H, the projected solver's preconditioner
        assert op.coarse.n0 > 0
        x = rng.standard_normal(s.problem.n)
        np.testing.assert_array_equal(
            op.apply(x), op.apply_projector(op.apply_one_level(x)))
        Q = op.coarse.basis.toarray()
        xstar = Q @ rng.standard_normal(Q.shape[1])
        rec = op.coarse_component(s.A @ xstar)
        assert np.linalg.norm(rec - xstar) <= 1e-10 * np.linalg.norm(xstar)
        # random b matches the dense formula
        b = rng.standard_normal(s.problem.n)
        dense = Q @ np.linalg.solve(Q.T @ (s.A @ Q).toarray() if sp.issparse(s.A @ Q)
                                    else Q.T @ (s.A @ Q), Q.T @ b)
        np.testing.assert_allclose(op.coarse_component(b), dense, atol=1e-8)


class TestTwoLevel:
    def test_hybrid_exact_solver_gives_identity(self):
        s = tiny(N=1)
        ls = s.local_solvers("as")
        # any coarse space: with H = A^{-1} all eigenvalues of H_hyb A are 1
        rng = np.random.default_rng(7)
        basis = orthonormalize_columns(rng.standard_normal((s.problem.n, 3)),
                                       1e-10)
        op = PreconditionedOperator(s.A, ls, CoarseSpace(s.A, one_block(basis)),
                                    mode="hybrid")
        HA = dense_from_apply(lambda x: op.apply_hybrid(s.A @ x), s.problem.n)
        lam = np.linalg.eigvals(HA)
        np.testing.assert_allclose(np.sort(lam.real), 1.0, atol=1e-9)
        assert np.abs(lam.imag).max() < 1e-9

    def test_additive_with_empty_coarse_equals_one_level(self):
        s = toy()
        ls = s.local_solvers("as")
        op = PreconditionedOperator(s.A, ls, empty_coarse_space(s.A),
                                    mode="additive")
        x = np.random.default_rng(8).standard_normal(s.problem.n)
        np.testing.assert_allclose(op.apply_additive(x), op.apply_one_level(x),
                                   atol=1e-14)

    def test_additive_rejects_nn(self):
        s = toy()
        with pytest.raises(UnsupportedVariant):
            PreconditionedOperator(s.A, s.local_solvers("nn"),
                                   empty_coarse_space(s.A), mode="additive")

    def test_kernel_inclusion_enforced(self):
        # Neumann solvers have kernels; a coarse space without them must be
        # rejected at build time
        s = Setup(6, 3, 3, "strips", "no_layers")
        ls = s.local_solvers("nn")
        rng = np.random.default_rng(9)
        basis = orthonormalize_columns(rng.standard_normal((s.problem.n, 4)),
                                       1e-10)
        with pytest.raises(KernelNotInCoarseSpace):
            PreconditionedOperator(s.A, ls, CoarseSpace(s.A, one_block(basis)),
                                   mode="projected")

    def test_hybrid_matches_dense_formula(self):
        s, = [toy()]
        op = s.operator("as", "k_scaling", "hybrid", tau_flat=10.0)
        n = s.problem.n
        A = s.A.toarray()
        H = dense_from_apply(op.apply_one_level, n)
        Q = op.coarse.basis.toarray()
        C = np.linalg.inv(Q.T @ A @ Q)
        Pi = np.eye(n) - Q @ C @ Q.T @ A
        expected = Pi @ H @ Pi.T + Q @ C @ Q.T
        got = dense_from_apply(op.apply_hybrid, n)
        assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


class TestConfigErrors:
    """Bad arguments raise ConfigError, which a GeneoError handler catches."""

    def test_nn_needs_weighted_neumann(self):
        s = tiny()
        with pytest.raises(ConfigError, match="weighted Neumann"):
            build_local_solvers(s.A, s.restrictions, "nn")

    def test_unknown_mode(self):
        s = tiny()
        with pytest.raises(ConfigError, match="unknown mode"):
            PreconditionedOperator(s.A, s.local_solvers("as"), mode="x")

    @pytest.mark.parametrize("mode", ["projected", "hybrid", "additive"])
    def test_coarse_mode_needs_coarse_space(self, mode):
        s = tiny()
        with pytest.raises(ConfigError, match="requires a coarse space"):
            PreconditionedOperator(s.A, s.local_solvers("as"), mode=mode)


class TestColoring:
    def test_single_subdomain(self):
        s = tiny(N=1)
        assert coloring_constant(s.A, s.restrictions) == 1

    def test_disjoint_blocks_share_a_color(self):
        A, maps = block_diag_problem()
        assert coloring_constant(A, maps) == 1

    def test_strips_toy(self):
        s = Setup(8, 2, 4, "strips", "no_layers")
        assert coloring_constant(s.A, s.restrictions) == 2

    def test_classes_are_a_orthogonal(self):
        s = toy()
        colors = color_subdomains(s.A, s.restrictions)
        G = interaction_graph(s.A, s.restrictions)
        N = len(s.restrictions)
        for a in range(N):
            for b_ in range(a + 1, N):
                if colors[a] == colors[b_]:
                    gi = s.restrictions[a].global_index
                    gj = s.restrictions[b_].global_index
                    block = s.A[gi][:, gj]
                    assert block.nnz == 0 or np.abs(block.data).max() == 0.0
                    assert not G[a, b_]

    def test_covers_all_subdomains(self):
        s = toy()
        colors = color_subdomains(s.A, s.restrictions)
        assert colors.min() >= 0
        assert colors.shape[0] == len(s.restrictions)


def dense_squares(obj, dim, seen=None):
    """Dense (dim, dim) arrays reachable from a factor: its fields, and the
    closures, partials and containers its solve is made of."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if obj.shape == (dim, dim) else []
    if isinstance(obj, (tuple, list)):
        children = list(obj)
    elif isinstance(obj, partial):
        children = [obj.func, *obj.args, *obj.keywords.values()]
    elif callable(obj) and hasattr(obj, "__code__"):
        children = [c.cell_contents for c in obj.__closure__ or ()]
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [a for c in children for a in dense_squares(c, dim, seen)]


class TestMemoryContract:
    """Local factors of sparse matrices keep them sparse.  No factor holds
    a dense (dim, dim) array before its first apply; after it, a full-rank
    factor still holds none, and a factor with a kernel holds one, its
    dense Cholesky."""

    @pytest.mark.parametrize("setup", [toy, desk], ids=["toy", "desk"])
    @pytest.mark.parametrize("variant", ["as", "nn", "is"])
    def test_no_dense_copy_of_the_source(self, setup, variant):
        s = setup()
        Ms = s.scaled("k_scaling")[1] if variant == "nn" else None
        ls = build_local_solvers(s.A, s.restrictions, variant,
                                 weighted_neumann=Ms)
        rng = np.random.default_rng(0)
        for f in ls.factors:
            assert sp.issparse(f.source)
            assert dense_squares(f, f.dim) == []
            f.apply_pinv(rng.standard_normal(f.dim))
            held = dense_squares(f, f.dim)
            if f.full_rank:
                assert held == []
            else:                       # the Cholesky of N + Y Y^T
                [chol] = held
                L = np.tril(chol)
                d = np.sqrt(f.source.diagonal())
                Y = np.linalg.qr(d[:, None] * f.kernel_basis)[0]
                NYY = f.source.toarray() / np.outer(d, d) + Y @ Y.T
                assert np.abs(L @ L.T - NYY).max() <= 1e-12
        assert {f.full_rank for f in ls.factors} == (
            {True, False} if variant == "nn" else {True})

    @pytest.mark.parametrize("setup", [toy, desk], ids=["toy", "desk"])
    @pytest.mark.parametrize("variant", ["as", "nn", "is"])
    def test_solves_set_up_at_first_apply(self, setup, variant):
        # building the coarse space applies no local solver, so no solve
        # is held beside its transients; each factor sets its own up at
        # its first apply, once
        s = setup()
        Ms = s.scaled("k_scaling")[1]
        ls = build_local_solvers(s.A, s.restrictions, variant,
                                 weighted_neumann=Ms if variant == "nn" else None)
        cfg = GenEOConfig(tau_sharp=None if variant == "as" else 0.5,
                          tau_flat=None if variant == "nn" else 10.0)
        space, _ = build_coarse_space(cfg, s.A, s.restrictions, ls,
                                      s.dirichlet_locals, Ms)
        assert space.n0 > 0
        assert all(f._solve is None for f in ls.factors)
        rng = np.random.default_rng(2)
        for f in ls.factors:
            calls, setup_solve = [], f._setup

            def counted():
                calls.append(None)
                return setup_solve()

            f._setup = counted
            for _ in range(2):
                f.apply_pinv(rng.standard_normal(f.dim))
            assert len(calls) == 1 and f._solve is not None

    @pytest.mark.parametrize("setup", [desk, full_scale],
                             ids=["desk", "multiload"])
    @pytest.mark.parametrize("variant", ["as", "nn"])
    def test_full_rank_factors_never_reach_dpstrf(self, setup, variant,
                                                  monkeypatch):
        s = setup()
        Ms = s.scaled("k_scaling")[1] if variant == "nn" else None
        ls = s.local_solvers(variant)
        full = [f.source for f in ls.factors if f.full_rank]
        if setup is full_scale or variant == "as":
            assert len(full) == ls.n_subdomains
        assert full

        def no_dpstrf(*args, **kwargs):
            raise AssertionError("dpstrf on a full-rank local matrix")

        monkeypatch.setattr(linalg, "dpstrf", no_dpstrf)
        for M in full:
            assert pivoted_cholesky(M).full_rank
        if len(full) == ls.n_subdomains:
            build_local_solvers(s.A, s.restrictions, variant,
                                weighted_neumann=Ms)
