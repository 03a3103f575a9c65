"""Dense verification machinery: spectra, bound checks, assumption audit."""

import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from geneo import cli, elasticity, oracle
from geneo.cli import ExperimentConfig, run
from geneo.coarse import GenEOConfig, build_coarse_space
from geneo.errors import (
    DimensionMismatch,
    GeneoError,
    IndefiniteMatrix,
    KernelNotInCoarseSpace,
    NonFiniteValue,
    ProblemTooLarge,
)
from geneo.linalg import orthonormalize_columns, pivoted_cholesky
from geneo.partitioning import RestrictionMap
from geneo.schwarz import (
    KERNEL_INCLUSION_TOL,
    CoarseSpace,
    LocalSolverSet,
    PreconditionedOperator,
    build_local_solvers,
)
from helpers import (
    Setup,
    case_a,
    dense_operator,
    desk,
    full_scale,
    jacobi_scaled,
    one_block,
    reference_congruence,
    reference_eigenvalues,
    reference_spectrum,
    tiny,
    toy,
)

# (variant, thresholds) of the three local solver variants on the toy problem
VARIANTS = [("as", dict(tau_flat=10.0)), ("nn", dict(tau_sharp=0.5)),
            ("is", dict(tau_sharp=0.5, tau_flat=10.0))]
DENSE_MODES = ("one_level", "projector", "hybrid", "additive", "projected")


def modes_of(variant):
    return [m for m in ("one_level", "projected", "hybrid", "additive")
            if not (variant == "nn" and m == "additive")]


def assert_close_rel(actual, expected, rtol):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


def assert_extremes(report, ref, rtol, scale=None):
    """The oracle's extremes against the full reference spectrum: within
    each one's residual bound plus ``rtol`` times ``scale`` (the reference's
    largest eigenvalue unless given), the zero count exact."""
    scale = ref.lambda_max if scale is None else scale
    assert report.zero_multiplicity == ref.zero_multiplicity
    for lam, error, exact in (
            (report.lambda_max, report.lambda_max_error, ref.lambda_max),
            (report.lambda_min_nonzero, report.lambda_min_error,
             ref.lambda_min_nonzero)):
        assert abs(lam - exact) <= error + rtol * scale, (lam, exact, error)


class TestDenseOperator:
    def test_exact_one_level_is_identity(self):
        s = tiny(N=1)
        op = PreconditionedOperator(s.A, s.local_solvers("as"))
        HA = oracle.dense_operator(op) @ s.A.toarray()
        assert np.abs(HA - np.eye(s.problem.n)).max() <= 1e-10

    def test_projected_kills_coarse_columns(self):
        s = toy()
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        HAP = dense_operator(op, "projected")
        Q = op.coarse.basis.toarray()
        assert np.abs(HAP @ Q).max() <= 1e-8 * np.abs(HAP).max()

    @pytest.mark.parametrize("setup,variant", [
        (toy, "as"), (toy, "nn"), (toy, "is"), (desk, "as"), (desk, "is"),
        (case_a, "as"), (case_a, "nn"), (case_a, "is")],
        ids=["toy-as", "toy-nn", "toy-is", "desk-as", "desk-is", "case_a-as",
             "case_a-nn", "case_a-is"])
    def test_blocks_equal_n_wide_reference(self, setup, variant):
        # each entry of H is the same sum, in the same subdomain order, of
        # the same local solves, which act column by column
        op = setup().operator(variant, "k_scaling", "one_level")
        np.testing.assert_array_equal(oracle.dense_operator(op),
                                      dense_operator(op, "one_level"))

    def test_blocks_match_n_wide_reference_with_kernels(self):
        # desk nn: the kernel factors' dense Cholesky applies round by the
        # width of the block they are applied to
        op = desk().operator("nn", "k_scaling", "one_level")
        assert any(f.kernel_dim for f in op.local_set.factors)
        H = oracle.dense_operator(op)
        ref = dense_operator(op, "one_level")
        assert np.abs(H - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_size_cap(self):
        class Fake:
            n = oracle.DENSE_CAP + 1

        with pytest.raises(ProblemTooLarge):
            oracle.dense_operator(Fake())


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
                       op.apply_projector_transpose, op.coarse_component,
                       op.apply_hybrid, op.apply]
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
            dense_operator(op, mode)
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
        ref = reference_spectrum(op, "projected")
        HAP = dense_operator(op, "projected")
        lam = np.sort(np.linalg.eigvals(HAP).real)
        np.testing.assert_allclose(ref.eigenvalues, lam, atol=1e-7)
        assert_extremes(oracle.projected_spectrum(op), ref, 1e-12)

    def test_projected_nn_matches_dense_product_eigenvalues(self):
        # H is only positive semidefinite for the Neumann variant
        s = toy()
        op = s.operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        rep = reference_spectrum(op, "projected")
        H = oracle.dense_operator(op)
        AP = s.A.toarray() @ dense_operator(op, "projector")
        ref = np.sort(np.linalg.eigvals(H @ AP).real)
        assert np.abs(rep.eigenvalues - ref).max() <= 1e-9 * rep.lambda_max
        assert rep.zero_multiplicity == op.coarse.n0
        assert_extremes(oracle.projected_spectrum(op), rep, 1e-12)

    @pytest.mark.parametrize("mode", ["hybrid", "additive", "one_level"])
    def test_is_matches_dense_product_eigenvalues(self, mode):
        s = toy()
        op = s.operator("is", "k_scaling", mode,
                        **({} if mode == "one_level"
                           else dict(tau_sharp=0.5, tau_flat=10.0)))
        rep = reference_spectrum(op, mode)
        B = dense_operator(op, mode)
        ref = np.sort(np.linalg.eigvals(B @ s.A.toarray()).real)
        assert np.abs(rep.eigenvalues - ref).max() <= 1e-9 * rep.lambda_max
        spect = oracle.preconditioned_spectrum(op, mode)
        assert spect.zero_multiplicity == 0
        assert_extremes(spect, rep, 1e-12)

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
        kappa = spect.lambda_max / spect.lambda_min_nonzero
        assert abs(rep.kappa_estimate - kappa) <= 0.05 * kappa


def spectrum(op, mode, congruence=None):
    if mode == "projected":
        return oracle.projected_spectrum(op, congruence)
    return oracle.preconditioned_spectrum(op, mode, congruence)


def zero_count(lam):
    return int((np.abs(lam) <= oracle.ZERO_TOL_FACTOR * lam[-1]).sum())


class TestCongruence:
    """The operators as updates of G = L^T H L, their full spectra tied to
    the F^T B F route and the oracle's extremes to those spectra."""

    @staticmethod
    def assert_tied(op, modes):
        # both routes round at the size of G, lambda_max(H A): for "as" and
        # "is" that is the size of every spectrum here, for "nn" it is 1e4
        # times the projected one
        congruence = oracle.Congruence(op)
        scale = reference_spectrum(op, "one_level", congruence).lambda_max
        for mode in modes:
            full = reference_spectrum(op, mode, congruence)
            ref = reference_eigenvalues(op, mode)
            assert np.abs(full.eigenvalues - ref).max() <= 1e-12 * scale, mode
            if mode == "projected":
                assert full.zero_multiplicity == zero_count(ref) == op.coarse.n0
            assert_extremes(spectrum(op, mode, congruence), full, 1e-12, scale)

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=[v for v, _ in VARIANTS])
    def test_toy_matches_reference_route(self, variant, kw):
        s = toy()
        self.assert_tied(s.operator(variant, "k_scaling", "one_level"),
                         ["one_level"])
        mode = "hybrid" if variant == "nn" else "additive"
        self.assert_tied(s.operator(variant, "k_scaling", mode, **kw),
                         [m for m in modes_of(variant) if m != "one_level"])

    def test_desk_is_additive_matches_reference_route(self):
        op = desk().operator("is", "k_scaling", "additive", tau_sharp=0.5,
                             tau_flat=10.0)
        self.assert_tied(op, ["additive"])

    def test_case_a_nn_projected_matches_reference_route(self):
        op = case_a().operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        self.assert_tied(op, ["projected"])

    @staticmethod
    def random_band_operator(half_bandwidth, n=300):
        # every entry inside the band nonzero, so every panel of L is full
        # to its last row; diagonal dominance makes A spd
        assert n > 2 * oracle.PANEL
        rng = np.random.default_rng(3)
        i, j = np.indices((n, n))
        B = np.where(abs(i - j) <= half_bandwidth,
                     rng.uniform(0.1, 1.0, (n, n)), 0.0)
        A = sp.csr_matrix(B + B.T + 2 * n * np.eye(n))
        restrictions = [RestrictionMap(np.arange(0, 180), n),
                        RestrictionMap(np.arange(120, n), n)]
        return PreconditionedOperator(
            A, build_local_solvers(A, restrictions, "as"),
            CoarseSpace(A, one_block(rng.standard_normal((n, 3)))),
            mode="additive")

    @pytest.mark.parametrize("case", [
        "toy-as", "toy-nn", "toy-is", "desk", "dense", "band-20"])
    def test_band_products_match_dense_reference(self, case):
        # G and W from the band factor of A against the dense Cholesky
        # factor and dtrmm; "dense" has half-bandwidth n - 1
        if case == "dense":
            op = self.random_band_operator(299)
        elif case == "band-20":
            op = self.random_band_operator(20)
        elif case == "desk":
            op = desk().operator("is", "k_scaling", "additive",
                                 tau_sharp=0.5, tau_flat=10.0)
        else:
            variant = case[4:]
            kw = dict(VARIANTS)[variant]
            mode = "projected" if variant == "nn" else "additive"
            op = toy().operator(variant, "k_scaling", mode, **kw)
        congruence = oracle.Congruence(op)
        if case == "dense":
            assert congruence.band.shape == (op.n, op.n)
        G, W = reference_congruence(op)
        assert op.coarse.n0 > 0
        assert_close_rel(congruence.W, W, 1e-13)
        assert_close_rel(congruence.G(), G, 1e-13)

    def test_projected_accurate_to_rounding_of_G(self):
        # G is about 4e3 times the projected spectrum here (floating nn
        # subdomains, hard layers); against an extended-precision X^T G X
        # the two-update form errs by about eps |G|, the expanded
        # G - GWK - (GWK)^T + K^T W^T G W K by over 300 eps |G|
        s = Setup(16, 8, 4, "rcb", "with_layers")
        op = s.operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        congruence = oracle.Congruence(op)
        scale = reference_spectrum(op, "one_level", congruence).lambda_max
        ld = np.longdouble
        L = sla.cholesky(op.A.toarray(), lower=True).astype(ld)
        W = L.T @ op.coarse.basis.toarray().astype(ld)
        F = L @ (np.eye(op.n, dtype=ld) - W @ congruence.K.astype(ld))
        C = F.T @ oracle.dense_operator(op).astype(ld) @ F
        exact = sla.eigvalsh(np.asarray(0.5 * (C + C.T), dtype=float))
        lam = reference_spectrum(op, "projected", congruence).eigenvalues
        eps = np.finfo(float).eps
        assert np.abs(lam - exact).max() <= 10 * eps * scale
        # the oracle's extremes of the deflated matrix are as accurate
        rep = oracle.projected_spectrum(op, congruence)
        assert abs(rep.lambda_max - exact[-1]) \
            <= rep.lambda_max_error + 10 * eps * scale
        assert abs(rep.lambda_min_nonzero - exact[op.coarse.n0]) \
            <= rep.lambda_min_error + 10 * eps * scale

    def test_sabotaged_coarse_solve_is_caught(self, monkeypatch):
        # zeroing the last coarse component of E^{-1} w leaves span(Z)
        # intact; the oracle must see the implemented solve, not the span
        s = toy()
        op = s.operator("as", "k_scaling", "projected", tau_flat=10.0)
        bounds = oracle.projected_interval("as", None, 10.0, s.n_color)

        def checks():
            rep = oracle.projected_spectrum(op, None, *bounds)
            return rep, oracle.check_projected_bounds(rep, op.coarse.n0)

        rep, good = checks()
        assert rep.zero_multiplicity == op.coarse.n0
        assert all(c.satisfied for c in good)
        solve = op.coarse.solve

        def sabotaged(w):
            out = solve(w)
            out[-1] = 0.0
            return out

        monkeypatch.setattr(op.coarse, "solve", sabotaged)
        rep, bad = checks()
        assert rep.zero_multiplicity != op.coarse.n0
        assert not all(c.satisfied for c in bad)

    def test_poisoned_block_is_a_typed_error(self, monkeypatch):
        # one NaN in one subdomain block is refused when the congruence is
        # built, before any eigensolve, as a NonFiniteValue
        op = toy().operator("as", "k_scaling", "additive", tau_flat=10.0)
        apply_local = op.local_set.apply_local

        def poisoned(s_, xs):
            out = apply_local(s_, xs)
            if s_ == 1:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(op.local_set, "apply_local", poisoned)
        with pytest.raises(NonFiniteValue):
            oracle.Congruence(op)
        with pytest.raises(NonFiniteValue):
            oracle.preconditioned_spectrum(op, "additive")

    def test_overflowing_eigenvalue_is_a_typed_error(self):
        # finite entries whose largest eigenvalue overflows to inf
        op = toy().operator("as", "k_scaling", "one_level")
        w, Ms, _ = toy().scaled("k_scaling")
        with pytest.raises(NonFiniteValue):
            oracle.audit_assumptions(op, w, toy().neumann, Ms,
                                     H=np.full((op.n, op.n), 0.8e308))

    @pytest.mark.parametrize("variant,mode,kw,certificates", [
        ("is", "additive", dict(tau_sharp=0.5, tau_flat=10.0), 5),
        ("nn", "projected", dict(tau_sharp=0.5), 3)], ids=["is-additive", "nn"])
    def test_one_materialization_one_cholesky(self, variant, mode, kw,
                                              certificates, tmp_path,
                                              monkeypatch):
        # H comes from one local solve per subdomain on its own identity,
        # never from an n-wide apply_one_level; A is factored once, in band
        # storage, and no n x n array gets any dense factorization but the
        # certificates' in-place pivoted Cholesky (dpstrf): one of H; one
        # above the projected lambda_max, which also certifies both upper
        # bounds, and one at the lower bound, both of which the hybrid
        # reuses; the additive lower bound and lambda_max; none falls back
        # to P's spectrum or a dense eigensolve
        counts = {"n_wide_one_level": 0, "banded_cholesky_of_A": 0,
                  "dense_n_by_n_cholesky": 0, "certificate_cholesky": 0,
                  "dense_n_by_n_other": 0}
        identity_solves = []
        n = []
        oracle_checks = cli._oracle_checks
        one_level = PreconditionedOperator.apply_one_level
        local = LocalSolverSet.apply_local
        cholesky_banded = sla.cholesky_banded

        def counted_checks(cfg, problem, *args):
            n.append(problem.n)
            try:
                return oracle_checks(cfg, problem, *args)
            finally:
                n.pop()

        def counted_one_level(self, x):
            if n and x.shape == (n[0], n[0]):
                counts["n_wide_one_level"] += 1
            return one_level(self, x)

        def counted_local(self, s_, xs):
            if (n and xs.ndim == 2 and xs.shape[0] == xs.shape[1]
                    and np.array_equal(xs, np.eye(xs.shape[0]))):
                identity_solves.append((s_, xs.shape[0]))
            return local(self, s_, xs)

        def counted_banded(ab, *args, **kwargs):
            if n and np.shape(ab)[1] == n[0]:
                counts["banded_cholesky_of_A"] += 1
            return cholesky_banded(ab, *args, **kwargs)

        def counted_dense(factor, key="dense_n_by_n_cholesky"):
            def counted(a, *args, **kwargs):
                if n and np.shape(a) == (n[0], n[0]):
                    counts[key] += 1
                return factor(a, *args, **kwargs)
            return counted

        monkeypatch.setattr(cli, "_oracle_checks", counted_checks)
        monkeypatch.setattr(PreconditionedOperator, "apply_one_level",
                            counted_one_level)
        monkeypatch.setattr(LocalSolverSet, "apply_local", counted_local)
        monkeypatch.setattr(sla, "cholesky_banded", counted_banded)
        for module, name in ((sla, "cholesky"), (sla, "cho_factor"),
                             (np.linalg, "cholesky")):
            monkeypatch.setattr(module, name,
                                counted_dense(getattr(module, name)))
        monkeypatch.setattr(lapack, "dpstrf", counted_dense(
            lapack.dpstrf, "certificate_cholesky"))
        for module, name in ((lapack, "dpotrf"), (lapack, "dsytrf"),
                             (sla, "eigh"), (sla, "eigvalsh"),
                             (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, counted_dense(
                getattr(module, name), "dense_n_by_n_other"))
        rc, out = run(ExperimentConfig(
            nx=20, ny=10, n_subdomains=4, coefficients="with_layers",
            variant=variant, mode=mode, oracle=True, output_dir=str(tmp_path),
            **kw))
        assert rc == 0 and out["oracle"][-1]["name"].startswith(
            "additive" if mode == "additive" else "hybrid")
        assert counts == {"n_wide_one_level": 0, "banded_cholesky_of_A": 1,
                          "dense_n_by_n_cholesky": 0,
                          "certificate_cholesky": certificates,
                          "dense_n_by_n_other": 0}
        sizes = [m.n_local for m in toy().restrictions]
        assert identity_solves == list(enumerate(sizes))

    @pytest.mark.parametrize("variant,mode,kw", [
        ("is", "additive", dict(tau_sharp=0.5, tau_flat=10.0)),
        ("nn", "projected", dict(tau_sharp=0.5))], ids=["is-additive", "nn"])
    def test_uncertified_projector_one_spectrum(self, variant, mode, kw,
                                                tmp_path, monkeypatch):
        # with the projector left uncertified, each projected pass reads
        # its zero count and lower verdict from one dense spectrum of P,
        # with no Bunch-Kaufman factorization (dsytrf), and every verdict
        # is the certified route's
        def verdicts():
            rc, out = run(ExperimentConfig(
                nx=20, ny=10, n_subdomains=4, coefficients="with_layers",
                variant=variant, mode=mode, oracle=True,
                output_dir=str(tmp_path), **kw))
            assert rc == 0
            n.append(out["problem"]["n"])
            return [(c["name"], c["satisfied"]) for c in out["oracle"]]

        n, counts = [], {"dsytrf": 0, "n_by_n_eigvalsh": 0, "projected": 0}
        certified = verdicts()
        dsytrf, eigvalsh = lapack.dsytrf, sla.eigvalsh
        projected = oracle.Congruence._projected

        def counted_dsytrf(*args, **kwargs):
            counts["dsytrf"] += 1
            return dsytrf(*args, **kwargs)

        def counted_eigvalsh(a, *args, **kwargs):
            counts["n_by_n_eigvalsh"] += np.shape(a) == (n[0], n[0])
            return eigvalsh(a, *args, **kwargs)

        def counted_projected(self, *args):
            counts["projected"] += 1
            return projected(self, *args)

        monkeypatch.setattr(lapack, "dsytrf", counted_dsytrf)
        monkeypatch.setattr(sla, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(oracle.Congruence, "_projected", counted_projected)
        monkeypatch.setattr(oracle, "PROJECTOR_TOL", -1.0)
        assert verdicts() == certified
        assert counts == {"dsytrf": 0, "n_by_n_eigvalsh": 1, "projected": 1}


class TestInertiaVerdicts:
    """Verdicts against the reference spectrum: a bound 1e-6 outside an
    extreme holds and one 1e-6 inside it fails, by the deflated Cholesky
    and, with the projector left uncertified, by P's spectrum alike; the
    extremes stay within their errors of the reference."""

    EDGE = 1e-6

    @staticmethod
    def edges(ref, outside):
        step = TestInertiaVerdicts.EDGE * (1.0 if outside else -1.0)
        return ref.lambda_min_nonzero * (1 - step), ref.lambda_max * (1 + step)

    @pytest.mark.parametrize("deflated", [True, False],
                             ids=["deflated", "inertia"])
    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=[v for v, _ in VARIANTS])
    def test_projected_edges(self, variant, kw, deflated, monkeypatch):
        if not deflated:
            monkeypatch.setattr(oracle, "PROJECTOR_TOL", -1.0)
        op = toy().operator(variant, "k_scaling", "projected", **kw)
        ref = reference_spectrum(op, "projected")
        for outside in (True, False):
            bounds = self.edges(ref, outside)
            rep = oracle.projected_spectrum(op, None, *bounds)
            checks = oracle.check_projected_bounds(rep, op.coarse.n0)
            assert [c.satisfied for c in checks] == [True, outside, outside]
            assert (rep.lower, rep.upper) == bounds
            assert [rep.lower_certified, rep.upper_certified] \
                == [outside, outside]
            assert_extremes(rep, ref, 1e-12)

    def test_projected_bounds_out_of_order(self):
        # a lower bound above the upper one (nn with tau_sharp above the
        # coloring constant) puts sigma between them, below the shifted
        # lower bound: D then fails to factor there whatever P's spectrum,
        # so the lower verdict comes from that spectrum
        op = toy().operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        ref = reference_spectrum(op, "projected")
        lower = ref.lambda_min_nonzero * (1 - self.EDGE)
        rep = oracle.projected_spectrum(op, None, lower, 0.5 * lower)
        assert rep.zero_multiplicity == op.coarse.n0
        assert [rep.lower_certified, rep.upper_certified] == [True, False]
        assert_extremes(rep, ref, 1e-12)

    @pytest.mark.parametrize("mode", ["hybrid", "additive"])
    def test_preconditioned_edges(self, mode):
        op = toy().operator("is", "k_scaling", mode, tau_sharp=0.5,
                            tau_flat=10.0)
        ref = reference_spectrum(op, mode)
        for outside in (True, False):
            bounds = self.edges(ref, outside)
            rep = oracle.preconditioned_spectrum(op, mode, None, *bounds)
            checks = oracle.check_interval(rep, label=mode)
            assert [c.satisfied for c in checks] == [outside, outside]
            assert (rep.lower, rep.upper) == bounds
            assert [rep.lower_certified, rep.upper_certified] \
                == [outside, outside]
            assert_extremes(rep, ref, 1e-12)

    def test_disagreement_fails(self):
        # a check passes only when the certificate and the bound on the
        # observed value both hold
        for certified in (True, False):
            def report(lower, upper):
                return oracle.SpectrumReport(0, 0.5, 2.0, 0.0, 0.0, lower,
                                             upper, certified, certified)

            inside = oracle.check_interval(report(0.4, 3.0), label="x")
            outside = oracle.check_interval(report(0.6, 1.9), label="x")
            assert [c.satisfied for c in inside] == [certified] * 2
            assert [c.satisfied for c in outside] == [False, False]

    def test_lanczos_short_of_the_top_is_caught(self, monkeypatch):
        # a Lanczos vector that converged to the second largest eigenvalue:
        # no Cholesky factor exists just above it, so a dense solve gives
        # the top pair
        op = toy().operator("is", "k_scaling", "additive", tau_sharp=0.5,
                            tau_flat=10.0)
        ref = reference_spectrum(op, "additive")
        second = sla.eigh(oracle.Congruence(op).matrix(False, 1.0),
                          subset_by_index=(op.n - 2, op.n - 2))[1][:, 0]
        assert ref.eigenvalues[-1] - ref.eigenvalues[-2] > 1e-6
        largest = oracle._largest

        def short(apply, n, restrict=None):
            # shift-invert runs on the factor's solve; Lanczos on the matrix
            if getattr(apply, "__name__", "") == "solve":
                return largest(apply, n, restrict)
            return second

        monkeypatch.setattr(oracle, "_largest", short)
        rep = oracle.preconditioned_spectrum(op, "additive")
        assert abs(rep.lambda_max - ref.lambda_max) \
            <= rep.lambda_max_error + 1e-12 * ref.lambda_max


class TestMemoryContract:
    """The desk oracle holds one n x n array, H's subdomain blocks and
    panel-sized temporaries; each spectrum rebuilds G in that array and
    factors in place there (tracemalloc sees every numpy buffer)."""

    def test_desk_peak(self, tmp_path, monkeypatch):
        oracle_checks = cli._oracle_checks
        spectrum = oracle.Congruence.spectrum
        peaks, calls, base = [], [], []

        def traced_checks(*args):
            tracemalloc.start()
            base.append(tracemalloc.get_traced_memory()[0])
            try:
                return oracle_checks(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        def traced_spectrum(self, mode, *bounds):
            # reset_peak would drop the peak so far: keep it first
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return spectrum(self, mode, *bounds)
            finally:
                calls.append((mode, tracemalloc.get_traced_memory()[1] - start))

        monkeypatch.setattr(cli, "_oracle_checks", traced_checks)
        monkeypatch.setattr(oracle.Congruence, "spectrum", traced_spectrum)
        rc, out = run(ExperimentConfig(
            nx=40, ny=20, n_subdomains=4, partition_method="rcb",
            coefficients="with_layers", scaling="k_scaling", variant="is",
            mode="additive", tau_sharp=0.5, tau_flat=10.0, oracle=True,
            output_dir=str(tmp_path)))
        assert rc == 0
        nn_bytes = desk().problem.n ** 2 * 8
        assert [m for m, _ in calls] == ["projected", "hybrid", "additive"]
        # 0.086 n^2 measured: panel temporaries of G and the rank-n0
        # products, no n x n finiteness mask
        for mode, allocated in calls:
            assert allocated <= 0.1 * nn_bytes, (mode, allocated / nn_bytes)
        peak = max(peaks) - base[0]
        assert peak <= 1.6 * nn_bytes, peak / nn_bytes


AUDIT = ["restriction.orthonormal_rows", "restriction.cover",
         "partition_of_unity.identity", "neumann.splitting",
         "local_solver.symmetric", "one_level.spd"]
COARSE = ["coarse.strictly_smaller", "coarse.kernel_inclusion",
          "stable_split.identity", "coloring.orthogonality"]
SPECTRA = ["projected.zero_multiplicity", "projected.lambda_min",
           "projected.lambda_max", "hybrid.lambda_min", "hybrid.lambda_max"]
FLAT = ["stable_split.reconstruction", "stable_split.energy_constant"]


class TestCheckList:
    """The ordered oracle checks per configuration: every check is one
    operation of the benchmark, so none may go missing."""

    @pytest.mark.parametrize("fields,names", [
        (dict(variant="as", mode="one_level"),
         AUDIT + ["stable_split.identity", "coloring.orthogonality"]),
        (dict(variant="nn", mode="projected", tau_sharp=0.5),
         AUDIT + COARSE + ["sharp_estimate.omega"] + SPECTRA),
        (dict(variant="is", mode="hybrid", tau_sharp=0.5, tau_flat=10.0),
         AUDIT + COARSE + FLAT + ["sharp_estimate.omega"] + SPECTRA),
        (dict(variant="as", mode="additive", tau_flat=10.0),
         AUDIT + COARSE + FLAT + SPECTRA
         + ["additive.lambda_min", "additive.lambda_max"]),
    ], ids=["one_level", "projected", "hybrid", "additive"])
    def test_toy(self, fields, names, tmp_path):
        rc, out = run(ExperimentConfig(nx=20, ny=10, n_subdomains=4,
                                       coefficients="with_layers", oracle=True,
                                       output_dir=str(tmp_path), **fields))
        assert rc == 0 and [c["name"] for c in out["oracle"]] == names

    def test_desk(self, tmp_path):
        # the desk-oracle benchmark configuration: 19 checks
        rc, out = run(ExperimentConfig(
            nx=40, ny=20, n_subdomains=4, coefficients="with_layers",
            variant="is", mode="additive", tau_sharp=0.5, tau_flat=10.0,
            oracle=True, output_dir=str(tmp_path)))
        names = (AUDIT + COARSE + FLAT + ["sharp_estimate.omega"] + SPECTRA
                 + ["additive.lambda_min"])
        assert rc == 0 and [c["name"] for c in out["oracle"]] == names
        assert len(names) == 19


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
    """The audit of the operator it is handed: its coarse space, empty for
    one-level, and the kernel-inclusion residual it measured at build."""

    @staticmethod
    def audit(op, weights=None, H=None):
        s = toy()
        w, Ms, _ = s.scaled("k_scaling")
        return oracle.audit_assumptions(op, w if weights is None else weights,
                                        s.neumann, Ms, H=H)

    def test_well_formed_setup_passes(self):
        op = toy().operator("as", "k_scaling", "projected", tau_flat=10.0)
        checks = self.audit(op, H=oracle.Congruence(op).H())
        assert [c.name for c in checks] == AUDIT + COARSE[:3]
        assert all(c.satisfied for c in checks)

    @pytest.mark.parametrize("variant,mode,kw", [
        ("as", "one_level", {}), ("nn", "hybrid", dict(tau_sharp=0.5))],
        ids=["one_level", "hybrid"])
    def test_coarse_checks_for_two_level_modes(self, variant, mode, kw):
        op = toy().operator(variant, "k_scaling", mode, **kw)
        checks = self.audit(op, H=oracle.Congruence(op).H())
        coarse = COARSE[:3] if mode != "one_level" else ["stable_split.identity"]
        assert [c.name for c in checks] == AUDIT + coarse
        assert all(c.satisfied for c in checks)

    def test_without_H_skips_the_dense_check(self):
        op = toy().operator("as", "k_scaling", "one_level")
        names = [c.name for c in self.audit(op)]
        assert "one_level.spd" not in names and len(names) == len(AUDIT)

    @pytest.mark.parametrize("variant", ["as", "nn", "is"])
    def test_one_level_spd_from_congruence_is_the_dense_route(self, variant):
        # the one-level H of the congruence is the sum dense_operator forms
        op = toy().operator(variant, "k_scaling", "one_level")
        via_congruence = self.audit(op, H=oracle.Congruence(op).H())
        via_dense = self.audit(op, H=oracle.dense_operator(op))
        spd = [c for c in via_congruence if c.name == "one_level.spd"]
        assert spd and spd[0].satisfied
        assert via_congruence == via_dense

    def test_corrupted_weights_fail(self):
        s = toy()
        weights, _, _ = s.scaled("multiplicity")
        bad = [w.copy() for w in weights]
        bad[0] = bad[0] * 1.5
        checks = self.audit(s.operator("as", "k_scaling", "one_level"), bad)
        pou = [c for c in checks if c.name == "partition_of_unity.identity"]
        assert pou and not pou[0].satisfied

    def test_kernel_inclusion_is_the_operators(self):
        op = toy().operator("nn", "k_scaling", "projected", tau_sharp=0.5)

        def kernel_check():
            ker = [c for c in self.audit(op) if c.name == "coarse.kernel_inclusion"]
            assert len(ker) == 1
            return ker[0]

        assert kernel_check().observed == op.kernel_inclusion
        assert kernel_check().satisfied
        op.kernel_inclusion = 2 * KERNEL_INCLUSION_TOL
        assert not kernel_check().satisfied

    def test_missing_kernels_fail(self):
        # a coarse space without the Neumann kernels: the operator's
        # build-time check refuses it, so no audit of it can run
        s = Setup(6, 3, 3, "strips", "no_layers")
        ls = s.local_solvers("nn", "multiplicity")
        rng = np.random.default_rng(1)
        basis = orthonormalize_columns(rng.standard_normal((s.problem.n, 5)),
                                       1e-10)
        coarse = CoarseSpace(s.A, one_block(basis))
        for mode in ("projected", "hybrid"):
            with pytest.raises(KernelNotInCoarseSpace):
                PreconditionedOperator(s.A, ls, coarse, mode=mode)

    def test_coloring_verified(self):
        s = toy()
        check = oracle.verify_coloring(s.A, s.restrictions)
        assert check.satisfied


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
        check = oracle.check_sharp_estimate(op, omega=1.0)
        assert check.satisfied
        np.testing.assert_allclose(check.observed, 1.0, rtol=1e-8)

    def test_nn_estimate_below_inverse_threshold(self):
        s = toy()
        op = s.operator("nn", "k_scaling", "projected", tau_sharp=0.5)
        check = oracle.check_sharp_estimate(op, omega=2.0)
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


PAIRS = [(v, m) for v in ("as", "nn", "is")
         for m in ("one_level", "projected", "hybrid", "additive")
         if not (v == "nn" and m == "additive")]


@st.composite
def scenarios(draw):
    """A toy run: mesh, rcb subdomains, per-element Young's modulus
    ``10^U(0, c)`` for ``c <= 12``, log-uniform thresholds, a scaling and a
    (variant, mode) pair that ``check_method`` accepts."""
    variant, mode = draw(st.sampled_from(PAIRS))
    two_level = mode != "one_level"
    fields = dict(
        nx=draw(st.integers(6, 20)), ny=draw(st.integers(3, 13)),
        n_subdomains=draw(st.integers(2, 6)), partition_method="rcb",
        variant=variant, mode=mode,
        tau_sharp=(10.0 ** draw(st.floats(-1.5, 0.0))
                   if two_level and variant != "as" else None),
        tau_flat=(10.0 ** draw(st.floats(0.3, 2.0))
                  if two_level and variant != "nn" else None),
        scaling=draw(st.sampled_from(["multiplicity", "k_scaling"])),
        max_iterations=200, oracle=True)
    return fields, draw(st.floats(0.0, 12.0)), draw(st.integers(0, 2**31 - 1))


def reference_verdicts(op):
    """name -> (observed, scale) of every spectral check, from the full
    reference spectra; ``scale`` is the norm the computation rounds at
    (that of H for its own check, of G for the operators built from it)."""
    H = oracle.dense_operator(op)
    lam_H = sla.eigvalsh(0.5 * (H + H.T))
    out = {"one_level.spd": (lam_H[0], abs(lam_H).max())}
    if op.mode == "one_level":
        return out
    congruence = oracle.Congruence(op)
    scale = abs(reference_spectrum(op, "one_level", congruence).eigenvalues).max()
    for mode in ("projected", "hybrid", "additive"):
        if mode == "additive" and op.mode != "additive":
            continue
        ref = reference_spectrum(op, mode, congruence)
        out[f"{mode}.lambda_min"] = (ref.lambda_min_nonzero, scale)
        out[f"{mode}.lambda_max"] = (ref.lambda_max, scale)
        if mode == "projected":
            out["projected.zero_multiplicity"] = (ref, scale)
    return out


class TestGeneratedScenarios:
    """The inertia verdicts and Lanczos extremes tied to the full dense
    spectra on generated toy runs.  A verdict whose reference margin is
    under the rounding estimate ``n eps |M|`` is compared by value only;
    a run may end in a typed error before the oracle, never inside it."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=24,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios())
    def test_verdicts_match_dense_reference(self, scenario):
        fields, contrast, seed = scenario
        seen = []
        young = elasticity.young_field
        oracle_checks = cli._oracle_checks

        def field(kind, partition, mesh, nu=0.4):
            rng = np.random.default_rng(seed)
            young(kind, partition, mesh, nu)        # its checks
            return elasticity.CoefficientField(
                10.0 ** rng.uniform(0.0, contrast, mesh.n_elements), nu)

        def recorded(cfg, op, *args):
            seen.append(op)
            return oracle_checks(cfg, op, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "young_field", field)
            patch.setattr(cli, "_oracle_checks", recorded)
            with tempfile.TemporaryDirectory() as outdir:
                try:
                    _, out = run(ExperimentConfig(output_dir=outdir, **fields))
                except GeneoError:
                    assert not seen, "a typed error inside the oracle"
                    return
        op, = seen
        eps = np.finfo(float).eps
        reference = reference_verdicts(op)
        checks = [c for c in out["oracle"] if c["error"] is not None
                  or c["kind"] == "equal"]
        assert {c["name"] for c in checks} <= set(reference)
        for check in checks:
            exact, scale = reference[check["name"]]
            estimate = op.n * eps * scale
            if check["kind"] == "equal":
                # the zero count: exact unless an eigenvalue is within the
                # estimate of the zero threshold
                lam = exact.eigenvalues
                t = oracle.ZERO_TOL_FACTOR * max(lam[-1], 0.0)
                near = int(np.sum(abs(abs(lam) - t) <= estimate))
                assert abs(check["observed"] - exact.zero_multiplicity) <= near
                continue
            bound = check["theoretical_bound"]
            assert abs(check["observed"] - exact) <= check["error"] + estimate, \
                (check, exact, estimate)
            rule = (oracle.BoundCheck.lower if check["kind"] == "lower"
                    else oracle.BoundCheck.upper)
            edge = bound + (-1 if check["kind"] == "lower" else 1) \
                * oracle.REL_TOL * abs(bound)
            if abs(exact - edge) > estimate:
                assert check["satisfied"] == rule("", bound, exact).satisfied, \
                    (check, exact)


def test_nn_selected_kernels_are_in_the_coarse_space(monkeypatch):
    # a generated scenario: 6x3, six rcb subdomains, per-element Young's
    # modulus 10^U(0, 11.64).  Its E on unit-A-norm columns has condition
    # number 2e9, and the pivot rule alone dropped 3 of the 15 lifted kernel
    # columns as near-duplicates: the residual read 7.849e-6.  The kernels
    # are required columns now.  The solve still breaks down in CG
    # (NonFiniteValue), so only the operator is built.
    import helpers

    def field(kind, partition, mesh, nu=0.4):
        rng = np.random.default_rng(35361)
        return elasticity.CoefficientField(
            10.0 ** rng.uniform(0.0, 11.64, mesh.n_elements), nu)

    monkeypatch.setattr(helpers, "young_field", field)
    s = Setup(6, 3, 6, "rcb", "with_layers")
    op = s.operator("nn", "multiplicity", "projected", tau_sharp=0.594)
    assert op.coarse.dropped_columns > 0
    assert op.kernel_inclusion <= KERNEL_INCLUSION_TOL
