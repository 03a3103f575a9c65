"""PCG/PPCG behavior, stopping rules, Lanczos/Ritz estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from geneo.errors import ConfigError, DimensionMismatch, NonFiniteValue
from geneo.krylov import KrylovConfig, SolveReport, pcg, ppcg, ritz_bounds
from geneo.schwarz import empty_coarse_space, PreconditionedOperator
from helpers import reference_pcg, tiny, toy
from geneo import cli, oracle


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

    @pytest.mark.parametrize("mode,iterations", [("one_level", 48),
                                                 ("hybrid", 28)])
    def test_start_pair_in_reorthogonalization(self, mode, iterations):
        # the start residual is reorthogonalized against like every later
        # one: z0 stays orthogonal to every r_i to rounding
        s = toy()
        if mode == "one_level":
            op = PreconditionedOperator(s.A, s.local_solvers("as"))
        else:
            op = s.operator("as", "k_scaling", mode, tau_flat=10.0)
        pairs = []

        def recording(r):
            z = op.apply(r)
            pairs.append((r.copy(), z.copy()))
            return z

        rep = pcg(s.A, s.problem.b, recording,
                  KrylovConfig(reorthogonalize=True),
                  x_ref=s.problem.reference_solution)
        assert rep.converged and rep.iterations == iterations
        z0 = pairs[0][1]
        worst = max(abs(z0 @ r) / (np.linalg.norm(z0) * np.linalg.norm(r))
                    for r, _ in pairs[1:])
        assert worst <= 1e-16


@st.composite
def spd_system(draw):
    """A dense spd ``A`` with condition number in [10, 1e6], an spd
    preconditioner ``M`` of the same bound and a right-hand side; the
    eigenvalues are log-spaced, so no cluster lets CG finish early."""
    n = draw(st.integers(6, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spd(log_cond):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (Q * np.logspace(0.0, log_cond, n)) @ Q.T

    A = spd(draw(st.floats(1.0, 6.0)))
    M = spd(draw(st.floats(1.0, 6.0)))
    return 0.5 * (A + A.T), 0.5 * (M + M.T), rng.standard_normal(n)


class TestReferenceLoop:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(spd_system(), st.booleans())
    def test_ties_textbook_pcg(self, system, track_error):
        # fewer than n/2 steps: neither loop converges or breaks down
        A, M, b = system
        steps = (A.shape[0] - 1) // 2
        x_ref = np.linalg.solve(A, b)
        x, alphas, betas, residuals, errors = reference_pcg(A, b, M, steps,
                                                            x_ref)
        rep = pcg(A, b, lambda r: M @ r,
                  KrylovConfig(max_iterations=steps, rel_error_tol=1e-300,
                               track_error=track_error),
                  x_ref=x_ref if track_error else None)
        assert rep.iterations == steps and not rep.converged
        for got, want in ((rep.lanczos_alpha, alphas),
                          (rep.lanczos_beta, betas),
                          (rep.residual_norms, residuals)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(rep.solution, x, rtol=1e-12,
                                   atol=1e-12 * np.abs(x).max())
        if track_error:
            np.testing.assert_allclose(rep.a_norm_errors, errors, rtol=1e-12,
                                       atol=0.0)


class TestPpcg:
    def _setup(self):
        s = toy()
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        return s, op

    def test_solution_in_coarse_space_needs_no_iterations(self):
        s, op = self._setup()
        rng = np.random.default_rng(0)
        xstar = op.coarse.basis.toarray() @ rng.standard_normal(op.coarse.n0)
        b = s.A @ xstar
        rep = ppcg(s.A, b, op, KrylovConfig(), x_ref=xstar)
        assert rep.iterations == 0 and rep.converged
        assert np.linalg.norm(rep.solution - xstar) \
            <= 1e-9 * np.linalg.norm(xstar)

    def test_coarse_solution_stops_on_preconditioned_residual(self):
        # the projected start residual is rounding noise; iterating on it
        # used to run on to the cap
        s, op = self._setup()
        rng = np.random.default_rng(0)
        xstar = op.coarse.basis.toarray() @ rng.standard_normal(op.coarse.n0)
        rep = ppcg(s.A, s.A @ xstar, op,
                   KrylovConfig(max_iterations=5, track_error=False))
        assert rep.iterations == 0 and rep.converged
        assert rep.criterion == "preconditioned_residual"
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

    @pytest.mark.parametrize("mode", ["one_level", "hybrid", "additive"])
    def test_rejects_non_projected_operator(self, mode):
        # a one-level operator has no coarse space, and an additive or hybrid
        # apply is not Pi H: neither can run inside the projected iteration
        s = toy()
        op = s.operator("as", "k_scaling", mode, tau_flat=10.0)
        with pytest.raises(ConfigError, match="projected"):
            ppcg(s.A, s.problem.b, op, KrylovConfig(),
                 x_ref=s.problem.reference_solution)

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
    @staticmethod
    def scalars(alphas, betas):
        # only the recorded CG scalars are read
        return SolveReport(0, False, "a_norm_error", np.zeros(0), np.zeros(0),
                           np.array(alphas), np.array(betas), np.nan, np.nan,
                           np.nan, np.nan, np.zeros(0))

    def test_indefinite_tridiagonal_has_no_kappa(self):
        # alpha_1 < 0, as after lost orthogonality: the tridiagonal
        # [[1, 1], [1, -1]] has Ritz values -sqrt(2) and sqrt(2), so no
        # condition estimate is given, and report.json writes null
        lo, hi, kappa = ritz_bounds(self.scalars([1.0, -0.5], [1.0, 1.0]))
        np.testing.assert_allclose([lo, hi], [-np.sqrt(2.0), np.sqrt(2.0)])
        assert np.isnan(kappa) and cli._json_float(kappa) is None
        # with alpha_1 > 0 the tridiagonal is positive definite
        lo, hi, kappa = ritz_bounds(self.scalars([1.0, 0.5], [1.0, 1.0]))
        assert 0.0 < lo and kappa == hi / lo

    def test_indefinite_preconditioner_has_no_ritz_values(self):
        # d = +-1/diag(A) with random signs: r.z changes sign, so a beta is
        # negative and the tridiagonal is not real symmetric; the report
        # carries NaN Ritz values, which report.json writes as null
        s = toy()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(s.problem.n)
        d = rng.choice([-1.0, 1.0], s.problem.n) / s.A.diagonal()
        rep = pcg(s.A, b, lambda r: d * r,
                  KrylovConfig(max_iterations=200, track_error=False))
        assert min(rep.lanczos_beta) < 0.0
        assert np.isnan([rep.ritz_min, rep.ritz_max, rep.kappa_estimate]).all()
        assert cli._json_float(rep.kappa_estimate) is None
        rep.lanczos_beta[0] = np.inf
        assert np.isnan(ritz_bounds(rep)).all()

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
        kappa = spect.lambda_max / spect.lambda_min_nonzero
        assert abs(rep.kappa_estimate - kappa) <= 0.05 * kappa

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
        with pytest.raises(ConfigError):
            pcg(s.A, s.problem.b, identity_precond,
                KrylovConfig(track_error=True), x_ref=None)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError):
            KrylovConfig(rel_error_tol=0.0)


class TestNonFinite:
    """The factor applies skip finiteness scans; the CG loop reports NaNs."""

    def _nan_rhs(self, s):
        b = s.problem.b.copy()
        b[0] = np.nan
        return b

    def test_pcg_nan_rhs_raises(self):
        s = toy()
        op = s.operator("is", "k_scaling", "hybrid", tau_sharp=0.5,
                        tau_flat=10.0)
        with pytest.raises(NonFiniteValue):
            pcg(s.A, self._nan_rhs(s), op.apply, KrylovConfig(track_error=False))

    def test_zero_preconditioner_breaks_down(self):
        # r.z = 0 and p = 0: the step alpha = 0 / 0 used to be a bare
        # ZeroDivisionError
        s = tiny()
        with pytest.raises(NonFiniteValue, match="iteration 0"):
            pcg(s.A, s.problem.b, lambda r: np.zeros_like(r),
                KrylovConfig(track_error=False))

    def test_non_finite_rz_after_the_first_step(self):
        s = tiny()
        applies = []

        def nan_after_first(r):
            applies.append(1)
            return r.copy() if len(applies) == 1 else np.full_like(r, np.nan)

        with pytest.raises(NonFiniteValue, match="r.z = nan at iteration 1"):
            pcg(s.A, s.problem.b, nan_after_first,
                KrylovConfig(track_error=False))

    def test_rhs_length_mismatch(self):
        s = tiny()
        with pytest.raises(DimensionMismatch, match="rhs of length"):
            pcg(s.A, s.problem.b[:-1], identity_precond,
                KrylovConfig(track_error=False))

    def test_ppcg_nan_rhs_raises(self):
        s = toy()
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        with pytest.raises(NonFiniteValue):
            ppcg(s.A, self._nan_rhs(s), op, KrylovConfig(track_error=False))
