"""Dense verification machinery: spectra, bound checks, assumption audit."""

import numpy as np
import pytest

from geneo import oracle
from geneo.cli import ExperimentConfig, run
from geneo.coarse import GenEOConfig, build_coarse_space
from geneo.errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    KernelNotInCoarseSpace,
    ProblemTooLarge,
)
from geneo.linalg import orthonormalize_columns, pivoted_cholesky
from geneo.schwarz import (
    CoarseSpace,
    LocalSolverSet,
    PreconditionedOperator,
    kernel_inclusion_residual,
)
from helpers import Setup, case_a, full_scale, jacobi_scaled, one_block, tiny, toy

# (variant, thresholds) of the three local solver variants on the toy problem
VARIANTS = [("as", dict(tau_flat=10.0)), ("nn", dict(tau_sharp=0.5)),
            ("is", dict(tau_sharp=0.5, tau_flat=10.0))]
DENSE_MODES = ("one_level", "projector", "hybrid", "additive", "projected")


def modes_of(variant):
    return [m for m in ("one_level", "projected", "hybrid", "additive")
            if not (variant == "nn" and m == "additive")]


def assert_close_rel(actual, expected, rtol):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


class TestDenseOperator:
    def test_exact_one_level_is_identity(self):
        s = tiny(N=1)
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        HA = oracle.dense_operator(op, "one_level") @ s.A.toarray()
        assert np.abs(HA - np.eye(s.problem.n)).max() <= 1e-10

    def test_projected_kills_coarse_columns(self):
        s = toy()
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        HAP = oracle.dense_operator(op, "projected")
        Q = op.coarse.basis.toarray()
        assert np.abs(HAP @ Q).max() <= 1e-8 * np.abs(HAP).max()

    def test_size_cap(self):
        class Fake:
            n = oracle.DENSE_CAP + 1
            mode = "one_level"

        with pytest.raises(ProblemTooLarge):
            oracle.dense_operator(Fake(), "one_level")


class TestBlockedApply:
    """Every apply takes an (n, k) block and acts column by column."""

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=[v for v, _ in VARIANTS])
    def test_block_equals_column_applies(self, variant, kw):
        s = toy()
        X = np.random.default_rng(4).standard_normal((s.problem.n, 5))
        for mode in modes_of(variant):
            op = s.operator(variant, "k_scaling", mode, **kw)
            blocks = [(op.apply, X), (op.apply_one_level, X)]
            if mode != "one_level":
                blocks += [(f, X) for f in (
                    op.apply_projector, op.apply_projector_transpose,
                    op.coarse_component, op.apply_hybrid, op.coarse.project,
                    op.coarse.project_transpose, op.coarse.coarse_apply)]
                if variant != "nn":
                    blocks.append((op.apply_additive, X))
                # the "projected" materialization is apply_one_level of
                # A @ apply_projector(X); its stages are checked on their own
                # inputs, since H A amplifies the projector's rounding
                blocks.append((op.apply_one_level, op.A @ op.apply_projector(X)))
            for apply, Y in blocks:
                columns = np.column_stack([apply(y) for y in Y.T])
                assert_close_rel(apply(Y), columns, 1e-12)

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=[v for v, _ in VARIANTS])
    def test_wrong_row_count_rejected(self, variant, kw):
        s = toy()
        one_level = s.operator(variant, "k_scaling", "one_level")
        hybrid = s.operator(variant, "k_scaling", "hybrid", **kw)
        n = one_level.n
        for op in (one_level, hybrid):
            applies = [op.apply_one_level, op.apply_projector,
                       op.apply_projector_transpose, op.coarse_component]
            if op.coarse is not None:
                applies += [op.apply_hybrid, op.apply]
            for apply in applies:
                for bad in (np.ones(n + 1), np.ones((n + 1, 5))):
                    with pytest.raises(DimensionMismatch):
                        apply(bad)
        for factor in one_level.local_set.factors:
            with pytest.raises(DimensionMismatch):
                factor.apply_pinv(np.ones((factor.dim - 1, 5)))

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=[v for v, _ in VARIANTS])
    def test_one_apply_per_materialization(self, variant, kw, monkeypatch):
        s = toy()
        op = s.operator(variant, "k_scaling", "hybrid", **kw)
        calls = {"one_level": 0, "local": 0}
        one_level = PreconditionedOperator.apply_one_level
        local = LocalSolverSet.apply_local

        def counted_one_level(self, x):
            calls["one_level"] += 1
            return one_level(self, x)

        def counted_local(self, s_, xs):
            calls["local"] += 1
            return local(self, s_, xs)

        monkeypatch.setattr(PreconditionedOperator, "apply_one_level",
                            counted_one_level)
        monkeypatch.setattr(LocalSolverSet, "apply_local", counted_local)
        for mode in DENSE_MODES:
            if variant == "nn" and mode == "additive":
                continue
            calls.update(one_level=0, local=0)
            oracle.dense_operator(op, mode)
            expected = 0 if mode == "projector" else 1
            assert calls["one_level"] == expected, mode
            assert calls["local"] == expected * op.local_set.n_subdomains, mode


class TestSpectra:
    def test_projected_zero_block_is_coarse_dim(self):
        s = toy()
        for variant, kw in (("as", dict(tau_flat=10.0)),
                            ("nn", dict(tau_sharp=0.5)),
                            ("is", dict(tau_sharp=0.5, tau_flat=10.0))):
            op = s.operator(variant, "k_scaling", "projected", **kw)
            rep = oracle.projected_spectrum(op)
            assert rep.zero_multiplicity == op.coarse.n0
            assert rep.lambda_min_nonzero > 0

    def test_spectrum_matches_nonsymmetric_eigensolver(self):
        # cross-check the Cholesky-congruence route against a plain dense
        # eigensolve of H A Pi
        s = tiny(N=2, nx=6, ny=3, method="strips")
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        rep = oracle.projected_spectrum(op)
        HAP = oracle.dense_operator(op, "projected")
        lam = np.sort(np.linalg.eigvals(HAP).real)
        np.testing.assert_allclose(np.sort(rep.eigenvalues), lam, atol=1e-7)

    def test_projected_nn_matches_dense_product_eigenvalues(self):
        # H is only positive semidefinite for the Neumann variant
        s = toy()
        op = s.operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        rep = oracle.projected_spectrum(op)
        H = oracle.dense_operator(op, "one_level")
        AP = s.A.toarray() @ oracle.dense_operator(op, "projector")
        ref = np.sort(np.linalg.eigvals(H @ AP).real)
        assert np.abs(rep.eigenvalues - ref).max() <= 1e-9 * rep.lambda_max
        assert rep.zero_multiplicity == op.coarse.n0

    @pytest.mark.parametrize("mode", ["hybrid", "additive", "one_level"])
    def test_is_matches_dense_product_eigenvalues(self, mode):
        s = toy()
        op = s.operator("is", "k_scaling", mode,
                        **({} if mode == "one_level"
                           else dict(tau_sharp=0.5, tau_flat=10.0)))
        rep = oracle.preconditioned_spectrum(op, mode)
        B = oracle.dense_operator(op, mode)
        ref = np.sort(np.linalg.eigvals(B @ s.A.toarray()).real)
        assert np.abs(rep.eigenvalues - ref).max() <= 1e-9 * rep.lambda_max
        assert rep.zero_multiplicity == 0

    def test_indefinite_A_is_a_typed_error(self):
        s = tiny()
        op = PreconditionedOperator(-s.A, s.local_solvers("as"))
        with pytest.raises(IndefiniteMatrix):
            oracle.preconditioned_spectrum(op, "one_level")
        with pytest.raises(IndefiniteMatrix):
            oracle.projected_spectrum(op)

    def test_is_additive_lower_bound(self):
        s = toy()
        op = s.operator("is", "k_scaling", "additive", tau_sharp=0.5,
                        tau_flat=10.0)
        alo, aup = oracle.additive_interval("is", 0.5, 10.0, s.n_color)
        assert aup is None
        spec = oracle.preconditioned_spectrum(op, "additive")
        assert spec.lambda_min_nonzero >= alo * (1 - 1e-9)

    def test_hybrid_spectrum_vs_ritz(self):
        from geneo.krylov import KrylovConfig, pcg

        s = toy()
        op = s.operator("as", "k_scaling", "hybrid", tau_flat=10.0)
        spect = oracle.preconditioned_spectrum(op, "hybrid")
        rep = pcg(s.A, s.problem.b, op.apply_hybrid,
                  KrylovConfig(reorthogonalize=True),
                  x_ref=s.problem.reference_solution)
        assert abs(rep.kappa_estimate - spect.effective_kappa) \
            <= 0.05 * spect.effective_kappa


class TestBoundChecks:
    def test_interval_construction(self):
        assert oracle.projected_interval("as", None, 10.0, 3) == (0.1, 3.0)
        assert oracle.projected_interval("nn", 0.5, None, 3) == (1.0, 6.0)
        assert oracle.projected_interval("is", 0.5, 10.0, 3) == (0.1, 6.0)
        assert oracle.hybrid_interval(0.1, 3.0) == (0.1, 3.0)
        assert oracle.hybrid_interval(2.0, 3.0) == (1.0, 3.0)
        lo, up = oracle.additive_interval("as", None, 10.0, 3)
        assert up == 4.0
        np.testing.assert_allclose(lo, 1.0 / 70.0)

    def test_check_helpers(self):
        good = oracle.BoundCheck.lower("x", 1.0, 1.0 - 1e-12)
        assert good.satisfied
        bad = oracle.BoundCheck.lower("x", 1.0, 0.9)
        assert not bad.satisfied
        eq = oracle.BoundCheck.equal("x", 3.0, 3.0)
        assert eq.satisfied


class TestAudit:
    def test_well_formed_setup_passes(self):
        s = toy()
        weights, Ms, _ = s.scaled("k_scaling")
        coarse, _ = s.coarse("as", "k_scaling", tau_flat=10.0)
        checks = oracle.audit_assumptions(
            s.A, s.restrictions, weights=weights, neumann=s.neumann,
            local_set=s.local_solvers("as"), coarse=coarse, Ms_list=Ms)
        assert checks and all(c.satisfied for c in checks)

    def test_corrupted_weights_fail(self):
        s = toy()
        weights, _, _ = s.scaled("multiplicity")
        bad = [w.copy() for w in weights]
        bad[0] = bad[0] * 1.5
        checks = oracle.audit_assumptions(s.A, s.restrictions, weights=bad)
        pou = [c for c in checks if c.name == "partition_of_unity.identity"]
        assert pou and not pou[0].satisfied

    def test_missing_kernels_fail(self):
        s = Setup(6, 3, 3, "strips", "no_layers")
        ls = s.local_solvers("nn", "multiplicity")
        rng = np.random.default_rng(1)
        basis = orthonormalize_columns(rng.standard_normal((s.problem.n, 5)),
                                       1e-10)
        coarse = CoarseSpace(s.A, one_block(basis))
        checks = oracle.audit_assumptions(s.A, s.restrictions,
                                          local_set=ls, coarse=coarse)
        ker = [c for c in checks if c.name == "coarse.kernel_inclusion"]
        assert ker and not ker[0].satisfied
        # the build-time check of the operator sees the same residual
        assert ker[0].observed == kernel_inclusion_residual(s.A, ls, coarse)
        with pytest.raises(KernelNotInCoarseSpace):
            PreconditionedOperator(s.A, ls, coarse, mode="projected")

    def test_coloring_verified(self):
        s = toy()
        check = oracle.verify_coloring(s.A, s.restrictions)
        assert check.satisfied


class TestSubspaceAngles:
    def test_identical_spans(self):
        rng = np.random.default_rng(2)
        U = orthonormalize_columns(rng.standard_normal((8, 3)), 1e-10)
        ang = oracle.subspace_angles(U, U[:, ::-1])
        assert ang.max() < 1e-12

    def test_orthogonal_lines(self):
        U = np.array([[1.0], [0.0]])
        V = np.array([[0.0], [1.0]])
        ang = oracle.subspace_angles(U, V)
        np.testing.assert_allclose(ang, [np.pi / 2], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            oracle.subspace_angles(np.eye(3), np.eye(4))


class TestStableSplitting:
    def test_energy_constant_below_bound(self):
        s = toy()
        weights, Ms, _ = s.scaled("k_scaling")
        for variant, kw in (("as", dict(tau_flat=10.0)),
                            ("is", dict(tau_sharp=0.5, tau_flat=10.0))):
            op = s.operator(variant, "k_scaling", "projected", **kw)
            checks = oracle.check_stable_splitting(op, weights, Ms, 10.0)
            by_name = {c.name: c for c in checks}
            assert by_name["stable_split.reconstruction"].satisfied
            energy = by_name["stable_split.energy_constant"]
            assert energy.satisfied
            assert 0.0 < energy.observed <= 10.0

    def test_cut_low_block_fails_reconstruction(self):
        # a cap of 0 keeps only the zero modes of the flat selection: the
        # low block the splitting removes is then outside V0 and x is not
        # reconstructed, while the energy bound does not depend on V0
        s = toy()
        weights, Ms, _ = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        coarse, _ = build_coarse_space(
            GenEOConfig(tau_flat=10.0, max_vectors_per_subdomain=0), s.A,
            s.restrictions, ls, s.dirichlet_locals, Ms)
        op = PreconditionedOperator(s.A, ls, coarse, mode="projected")
        checks = oracle.check_stable_splitting(op, weights, Ms, 10.0)
        by_name = {c.name: c for c in checks}
        rec = by_name["stable_split.reconstruction"]
        assert not rec.satisfied and rec.observed > 0.1
        assert by_name["stable_split.energy_constant"].satisfied


    @pytest.mark.parametrize("scaling", ["multiplicity", "k_scaling"])
    @pytest.mark.parametrize("variant", ["as", "is"])
    def test_case_a_oracle_checks_pass(self, variant, scaling, tmp_path):
        # case A: 30x15, 4 rcb subdomains, hard layers, projected, tau_flat=10
        rc, out = run(ExperimentConfig(
            nx=30, ny=15, n_subdomains=4, partition_method="rcb",
            coefficients="with_layers", scaling=scaling, variant=variant,
            mode="projected", tau_flat=10.0,
            tau_sharp=0.5 if variant == "is" else None, oracle=True,
            output_dir=str(tmp_path)))
        failed = [c["name"] for c in out["oracle"] if not c["satisfied"]]
        assert failed == [] and rc == 0
        names = {c["name"] for c in out["oracle"]}
        assert {"stable_split.reconstruction",
                "stable_split.energy_constant"} <= names


class TestSharpEstimate:
    def test_empty_kernel_is_identity(self):
        s = toy()
        xi = oracle.xi_projection(s.A, s.restrictions[0],
                                  np.zeros((s.restrictions[0].n_local, 0)))
        x = np.random.default_rng(3).standard_normal(s.problem.n)
        np.testing.assert_array_equal(xi(x), x)

    def test_lifted_kernel_is_annihilated(self):
        s = Setup(6, 3, 3, "strips", "no_layers")
        ls = s.local_solvers("nn", "multiplicity")
        Z = ls.kernel_basis(1)
        xi = oracle.xi_projection(s.A, s.restrictions[1], Z)
        v = s.restrictions[1].prolong(Z[:, 0])
        out = xi(v)
        assert np.sqrt(abs(out @ (s.A @ out))) \
            <= 1e-8 * np.sqrt(v @ (s.A @ v))

    def test_as_stability_constant_is_one(self):
        # exact local solvers: ||R^T x||_A^2 = |x|^2 in the local energy, so
        # the sampled ratio sits at exactly 1
        s = toy()
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        check = oracle.check_sharp_estimate(op, omega=1.0, n_samples=4)
        assert check.satisfied
        np.testing.assert_allclose(check.observed, 1.0, rtol=1e-8)

    def test_nn_estimate_below_inverse_threshold(self):
        s = toy()
        op = s.operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        check = oracle.check_sharp_estimate(op, omega=2.0, n_samples=4)
        assert check.satisfied


class TestKernelDetectionUnderContrast:
    """Case A: 30x15, 4 rcb subdomains, k-scaling, ``nn``.

    With hard layers the diagonal of M_s spans about 2e9 inside subdomains
    0 and 2.  A pivot tolerance relative to the largest diagonal entry
    classes soft-region pivots as kernel (kernel dimensions 1/3/6/3 here,
    where a 2-D elasticity kernel has dimension 0 or 3); the Jacobi-scaled
    rule of ``pivoted_cholesky`` finds 0/3/3/3, and the oracle's bounds hold.
    """

    def test_kernel_dims_match_jacobi_scaled(self):
        s = case_a()
        ls = s.local_solvers("nn", "k_scaling")
        _, Ms, _ = s.scaled("k_scaling")
        expected = [pivoted_cholesky(jacobi_scaled(M)).kernel_dim for M in Ms]
        assert [f.kernel_dim for f in ls.factors] == expected == [0, 3, 3, 3]

    @staticmethod
    def _oracle_run(kind, tmp_path):
        rc, out = run(ExperimentConfig(
            nx=30, ny=15, n_subdomains=4, partition_method="rcb",
            coefficients=kind, scaling="k_scaling", variant="nn",
            mode="projected", tau_sharp=0.5, oracle=True,
            output_dir=str(tmp_path)))
        failed = [c["name"] for c in out["oracle"] if not c["satisfied"]]
        assert failed == [] and rc == 0
        assert len(out["oracle"]) == 16

    def test_oracle_checks_pass(self, tmp_path):
        self._oracle_run("with_layers", tmp_path)

    def test_oracle_checks_pass_without_layers(self, tmp_path):
        # the lambda_min >= 1 bound is exact here: a factor of the unscaled
        # M_s missed it by 1.9e-8
        self._oracle_run("no_layers", tmp_path)

    def test_multiload_nn_kernels_are_empty(self):
        # the 84x42, 8-strip problem of the multiload benchmark: no M_s
        # there has a kernel
        ls = full_scale().local_solvers("nn", "k_scaling")
        assert [f.kernel_dim for f in ls.factors] == [0] * 8
