"""Dense verification machinery: spectra, bound checks, assumption audit."""

import numpy as np
import pytest

from geneo import oracle
from geneo.errors import (
    DimensionMismatch,
    KernelNotInCoarseSpace,
    ProblemTooLarge,
)
from geneo.linalg import orthonormalize_columns
from geneo.schwarz import (
    CoarseSpace,
    PreconditionedOperator,
    kernel_inclusion_residual,
)
from helpers import Setup, tiny, toy


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
        Q = op.coarse.basis
        assert np.abs(HAP @ Q).max() <= 1e-8 * np.abs(HAP).max()

    def test_size_cap(self):
        class Fake:
            n = oracle.DENSE_CAP + 1
            mode = "one_level"

        with pytest.raises(ProblemTooLarge):
            oracle.dense_operator(Fake(), "one_level")


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
        # cross-check the symmetric-similarity route against a plain dense
        # eigensolve of H A Pi
        s = tiny(N=2, nx=6, ny=3, method="strips")
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        rep = oracle.projected_spectrum(op)
        HAP = oracle.dense_operator(op, "projected")
        lam = np.sort(np.linalg.eigvals(HAP).real)
        np.testing.assert_allclose(np.sort(rep.eigenvalues), lam, atol=1e-7)

    def test_prime_flat_space_gives_same_guarantee(self):
        # the alternate lower-bound construction carries the same spectral
        # guarantee as the standard one
        s = toy()
        for scaling in ("multiplicity", "k_scaling"):
            op = s.operator("as", scaling, "projected", tau_flat=10.0,
                            flat_variant="prime")
            rep = oracle.projected_spectrum(op)
            lo, up = oracle.projected_interval("as", None, 10.0, s.n_color)
            assert rep.zero_multiplicity == op.coarse.n0
            assert rep.lambda_min_nonzero >= lo - 1e-9
            assert rep.lambda_max <= up + 1e-9

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
        coarse = CoarseSpace(s.A, basis)
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
        weights, Ms, factors = s.scaled("k_scaling")
        for variant, kw in (("as", dict(tau_flat=10.0)),
                            ("is", dict(tau_sharp=0.5, tau_flat=10.0))):
            op = s.operator(variant, "k_scaling", "projected", **kw)
            checks = oracle.check_stable_splitting(op, weights, Ms, factors,
                                                   10.0)
            by_name = {c.name: c for c in checks}
            assert by_name["stable_split.reconstruction"].satisfied
            energy = by_name["stable_split.energy_constant"]
            assert energy.satisfied
            assert 0.0 < energy.observed <= 10.0

    def test_flat_and_prime_spaces_measured_not_asserted(self):
        # the two lower-bound constructions need not span the same space;
        # record their principal angles and only require well-formedness
        from geneo.coarse import assemble_coarse, coarse_flat, coarse_flat_prime

        s = toy()
        _, Ms, factors = s.scaled("k_scaling")
        ls = s.local_solvers("as")
        std, _ = coarse_flat(10.0, ls, Ms, factors)
        prime, _ = coarse_flat_prime(10.0, ls, Ms)
        space_std = assemble_coarse(std, s.A, s.restrictions)
        space_prime = assemble_coarse(prime, s.A, s.restrictions)
        angles = oracle.subspace_angles(space_std.basis, space_prime.basis)
        assert np.all(angles >= 0.0) and np.all(angles <= np.pi / 2 + 1e-12)


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
