"""PCG/PPCG behavior, stopping rules, Lanczos/Ritz estimates."""

import numpy as np
import pytest
from geneo.krylov import KrylovConfig, pcg, ppcg, ritz_bounds
from geneo.schwarz import empty_coarse_space, PreconditionedOperator
from helpers import tiny, toy
from geneo import oracle


def identity_precond(x):
    return x.copy()


class TestPcg:
    def test_zero_rhs(self):
        s = tiny()
        rep = pcg(s.A, np.zeros(s.problem.n), identity_precond,
                  KrylovConfig(track_error=False))
        assert rep.iterations == 0 and rep.converged
        assert np.abs(rep.solution).max() == 0.0
        assert np.isnan(rep.ritz_min)

    def test_exact_preconditioner_one_iteration(self):
        s = tiny(N=1)
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        rep = pcg(s.A, s.problem.b, op.apply_one_level, KrylovConfig(),
                  x_ref=s.problem.reference_solution)
        assert rep.converged and rep.iterations == 1
        # all Ritz values are 1
        np.testing.assert_allclose(rep.kappa_estimate, 1.0, rtol=1e-10)
        np.testing.assert_allclose(rep.ritz_max, 1.0, rtol=1e-10)

    def test_a_norm_error_monotone(self):
        s = toy()
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        rep = pcg(s.A, s.problem.b, op.apply_one_level,
                  KrylovConfig(max_iterations=60),
                  x_ref=s.problem.reference_solution)
        errs = rep.a_norm_errors
        assert np.all(np.diff(errs) <= 1e-12 * errs[0])

    def test_max_iterations_reports_failure(self):
        s = toy()
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        rep = pcg(s.A, s.problem.b, op.apply_one_level,
                  KrylovConfig(max_iterations=3),
                  x_ref=s.problem.reference_solution)
        assert not rep.converged
        assert rep.iterations == 3
        assert np.isfinite(rep.final_error) and rep.final_error > 0

    def test_residual_criterion_without_reference(self):
        s = toy()
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        rep = pcg(s.A, s.problem.b, op.apply_one_level,
                  KrylovConfig(track_error=False, rel_error_tol=1e-10,
                               max_iterations=400))
        assert rep.converged
        assert rep.criterion == "preconditioned_residual"
        x = rep.solution
        r = s.problem.b - s.A @ x
        assert np.linalg.norm(r) <= 1e-7 * np.linalg.norm(s.problem.b)

    def test_residual_z_orthogonality(self):
        # preconditioned residuals stay mutually orthogonal with full
        # reorthogonalization
        s = toy()
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        pairs = []

        def recording(r):
            z = op.apply_one_level(r)
            pairs.append((r.copy(), z.copy()))
            return z

        pcg(s.A, s.problem.b, recording,
            KrylovConfig(max_iterations=40, reorthogonalize=True),
            x_ref=s.problem.reference_solution)
        rs = [p[0] for p in pairs]
        zs = [p[1] for p in pairs]
        for i in range(2, len(rs), 7):
            for j in range(0, i):
                num = abs(zs[j] @ rs[i])
                den = np.linalg.norm(zs[j]) * np.linalg.norm(rs[i])
                assert num <= 1e-8 * den


class TestPpcg:
    def _setup(self):
        s = toy()
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        return s, op

    def test_solution_in_coarse_space_needs_no_iterations(self):
        s, op = self._setup()
        rng = np.random.default_rng(0)
        xstar = op.coarse.basis @ rng.standard_normal(op.coarse.n0)
        b = s.A @ xstar
        rep = ppcg(s.A, b, op, KrylovConfig(), x_ref=xstar)
        assert rep.iterations == 0 and rep.converged
        assert np.linalg.norm(rep.solution - xstar) \
            <= 1e-9 * np.linalg.norm(xstar)

    @pytest.mark.parametrize("reorthogonalize", [False, True])
    def test_empty_coarse_space_matches_pcg(self, reorthogonalize):
        s = toy()
        ls = s.local_solvers("as")
        op = PreconditionedOperator(s.A, ls, empty_coarse_space(s.A),
                                    mode="projected")
        cfg = KrylovConfig(max_iterations=25, reorthogonalize=reorthogonalize)
        rep_p = ppcg(s.A, s.problem.b, op, cfg,
                     x_ref=s.problem.reference_solution)
        rep_c = pcg(s.A, s.problem.b, op.apply_one_level, cfg,
                    x_ref=s.problem.reference_solution)
        assert rep_p.iterations == rep_c.iterations
        np.testing.assert_array_equal(rep_p.lanczos_alpha, rep_c.lanczos_alpha)
        np.testing.assert_array_equal(rep_p.a_norm_errors, rep_c.a_norm_errors)
        np.testing.assert_array_equal(rep_p.residual_norms, rep_c.residual_norms)

    def test_faster_than_one_level(self):
        s, op = self._setup()
        cfg = KrylovConfig(max_iterations=200)
        two = ppcg(s.A, s.problem.b, op, cfg, x_ref=s.problem.reference_solution)
        one = pcg(s.A, s.problem.b, op.apply_one_level, cfg,
                  x_ref=s.problem.reference_solution)
        assert two.converged
        assert two.iterations < one.iterations

    def test_iterates_stay_projected(self):
        s, op = self._setup()
        rep = ppcg(s.A, s.problem.b, op, KrylovConfig(max_iterations=100),
                   x_ref=s.problem.reference_solution)
        assert rep.converged
        assert rep.projection_drift <= 1e-10

    def test_final_solution_matches_direct_solve(self):
        s, op = self._setup()
        rep = ppcg(s.A, s.problem.b, op, KrylovConfig(),
                   x_ref=s.problem.reference_solution)
        e = rep.solution - s.problem.reference_solution
        err = np.sqrt(e @ (s.A @ e))
        ref = np.sqrt(s.problem.reference_solution
                      @ (s.A @ s.problem.reference_solution))
        assert err <= 1e-9 * ref


class TestRitz:
    def test_single_iteration_rayleigh_quotient(self):
        s = toy()
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        rep = pcg(s.A, s.problem.b, op.apply_one_level,
                  KrylovConfig(max_iterations=1),
                  x_ref=s.problem.reference_solution)
        lo, hi, kappa = ritz_bounds(rep)
        assert lo == hi == rep.ritz_min
        spect = oracle.preconditioned_spectrum(op, "one_level")
        assert spect.lambda_min_nonzero - 1e-8 <= lo
        assert hi <= spect.lambda_max + 1e-8

    def test_ritz_interval_contained_in_spectrum(self):
        s = toy()
        op = s.operator("as", "k_scaling", "hybrid", tau_flat=10.0)
        rep = pcg(s.A, s.problem.b, op.apply_hybrid,
                  KrylovConfig(reorthogonalize=True),
                  x_ref=s.problem.reference_solution)
        spect = oracle.preconditioned_spectrum(op, "hybrid")
        delta = 1e-8 * spect.lambda_max
        assert rep.ritz_min >= spect.lambda_min_nonzero - delta
        assert rep.ritz_max <= spect.lambda_max + delta

    def test_kappa_close_to_dense_oracle(self):
        s = toy()
        op = s.operator("as", "k_scaling", "hybrid", tau_flat=10.0)
        rep = pcg(s.A, s.problem.b, op.apply_hybrid,
                  KrylovConfig(reorthogonalize=True),
                  x_ref=s.problem.reference_solution)
        assert rep.converged
        spect = oracle.preconditioned_spectrum(op, "hybrid")
        assert abs(rep.kappa_estimate - spect.effective_kappa) \
            <= 0.05 * spect.effective_kappa

    def test_ppcg_ritz_never_sees_zero(self):
        s = toy()
        op = s.operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        rep = ppcg(s.A, s.problem.b, op,
                   KrylovConfig(reorthogonalize=True),
                   x_ref=s.problem.reference_solution)
        assert rep.converged
        spect = oracle.projected_spectrum(op)
        assert rep.ritz_min >= spect.lambda_min_nonzero - 1e-8
        assert rep.ritz_min > 0.5


class TestConfig:
    def test_tracking_requires_reference(self):
        s = tiny()
        with pytest.raises(ValueError):
            pcg(s.A, s.problem.b, identity_precond,
                KrylovConfig(track_error=True), x_ref=None)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            KrylovConfig(rel_error_tol=0.0)
