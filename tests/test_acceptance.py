"""Acceptance suite: every spectral guarantee at its stated tolerance.

One test per criterion; each prints a PASS line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The full-scale
criteria run the 84x42 grid (7224 unknowns) with 8 horizontal-strip
subdomains and the hard-layer coefficient field.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from geneo import oracle
from geneo.coarse import coarse_flat, coarse_sharp, assemble_coarse
from geneo.krylov import KrylovConfig, pcg, ppcg
from geneo.linalg import gen_eig, pivoted_cholesky
from geneo.partitioning import multiplicity, pou_matrices
from helpers import full_scale, random_spsd, random_spsd_conditioned, toy

REL = 1e-9
FIELDS = ("no_layers", "with_layers")
SCALINGS = ("multiplicity", "k_scaling")


def _pass(k, msg):
    print(f"ACCEPTANCE {k}: {msg}: PASS")


@lru_cache(maxsize=None)
def hybrid_sweep_run(tau_flat):
    """Full-scale AS hybrid with k-scaling at one threshold."""
    s = full_scale()
    op = s.operator("as", "k_scaling", "hybrid", tau_flat=tau_flat)
    rep = pcg(s.A, s.problem.b, op.apply_hybrid,
              KrylovConfig(max_iterations=200, reorthogonalize=True),
              x_ref=s.problem.reference_solution)
    return s, op, rep


def test_criterion_1_algebraic_identities():
    # partition-of-unity and splitting identities at full scale, both
    # scalings and two partition shapes
    for setup in (full_scale(), toy()):
        for scaling in SCALINGS:
            w = pou_matrices(setup.restrictions, scaling, A=setup.A,
                             neumann=setup.neumann)
            assert np.abs(multiplicity(setup.restrictions, w) - 1).max() <= 1e-14
        S = sp.csr_matrix(setup.A.shape)
        for m, As in zip(setup.restrictions, setup.neumann):
            gi = m.global_index
            lifted = sp.coo_matrix(As)
            S = S + sp.coo_matrix(
                (lifted.data, (gi[lifted.row], gi[lifted.col])),
                shape=setup.A.shape).tocsr()
        diff = S - setup.A
        rel = np.sqrt(diff.multiply(diff).sum() / setup.A.multiply(setup.A).sum())
        assert rel <= 1e-12

    # Moore-Penrose identities, dense, on random spsd factors of dims 1..30
    rng = np.random.default_rng(42)
    for n in range(1, 31):
        M = random_spsd_conditioned(rng, n, int(rng.integers(0, n + 1)))
        f = pivoted_cholesky(M)
        P = np.column_stack([f.apply_pinv(e) for e in np.eye(n)])
        mscale = max(np.abs(M).max(), 1e-30)
        pscale = max(np.abs(P).max(), 1e-30)
        assert np.abs(M @ P @ M - M).max() <= 1e-12 * mscale
        assert np.abs(P @ M @ P - P).max() <= 1e-12 * pscale
        Z = f.kernel_basis
        if Z.shape[1]:
            # range(M^+) = range(M)
            assert np.abs(P @ Z).max() <= 1e-12 * max(pscale, 1.0)
            assert np.abs(Z.T @ P).max() <= 1e-12 * max(pscale, 1.0)

    # full-scale weighted Neumann factors: the conditioning-stable identity
    # and kernel orthogonality of the pseudo-inverse output
    fs = full_scale()
    _, Ms, Ms_factors = fs.scaled("k_scaling")
    for M, f in zip(Ms, Ms_factors):
        scale = np.abs(M.data).max()
        for _ in range(3):
            v = rng.standard_normal(M.shape[0])
            pv = f.apply_pinv(v)
            r1 = M @ f.apply_pinv(M @ v) - M @ v
            assert np.linalg.norm(r1) <= 1e-12 * scale * np.linalg.norm(v)
            Z = f.kernel_basis
            if Z.shape[1]:
                assert np.abs(Z.T @ pv).max() \
                    <= 1e-12 * max(np.linalg.norm(pv), 1e-30)
    _pass(1, "algebraic identities (POU, splitting, Moore-Penrose)")


def test_criterion_2_generalized_eigensolver_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 41))
        MB = random_spsd(rng, n, n) + n * np.eye(n)
        MA = random_spsd(rng, n, int(rng.integers(0, n + 1)))
        res = gen_eig(MA, MB)
        Y = res.eigenvectors
        assert np.abs(Y.T @ MB @ Y - np.eye(n)).max() <= 1e-10
        D = Y.T @ MA @ Y
        assert np.abs(D - np.diag(res.eigenvalues)).max() \
            <= 1e-10 * max(np.abs(MA).max(), 1.0)
        reference = sla.eigh(MA, MB, eigvals_only=True)
        scale = max(np.abs(reference).max(), 1.0)
        assert np.abs(res.eigenvalues - reference).max() <= 1e-10 * scale
    _pass(2, "generalized eigensolver matches the dense reduction oracle")


def _variant_threshold_grid():
    return (("as", dict(tau_flat=10.0)),
            ("nn", dict(tau_sharp=0.5)),
            ("is", dict(tau_sharp=0.5, tau_flat=10.0)))


def test_criterion_3_projected_operator_bounds():
    for kind in FIELDS:
        s = toy(kind)
        for scaling in SCALINGS:
            for variant, kw in _variant_threshold_grid():
                op = s.operator(variant, scaling, "projected", **kw)
                spectrum = oracle.projected_spectrum(op)
                lo, up = oracle.projected_interval(
                    variant, kw.get("tau_sharp"), kw.get("tau_flat"), s.n_color)
                assert spectrum.zero_multiplicity == op.coarse.n0, \
                    (kind, scaling, variant)
                assert spectrum.lambda_min_nonzero >= lo - REL, \
                    (kind, scaling, variant, spectrum.lambda_min_nonzero, lo)
                assert spectrum.lambda_max <= up + REL, \
                    (kind, scaling, variant, spectrum.lambda_max, up)
    _pass(3, "projected-operator spectra inside the guaranteed intervals")


def test_criterion_4_hybrid_and_additive_bounds():
    for kind in FIELDS:
        s = toy(kind)
        for scaling in SCALINGS:
            for variant, kw in _variant_threshold_grid():
                op = s.operator(variant, scaling, "hybrid", **kw)
                lo, up = oracle.projected_interval(
                    variant, kw.get("tau_sharp"), kw.get("tau_flat"), s.n_color)
                hlo, hup = oracle.hybrid_interval(lo, up)
                spec = oracle.preconditioned_spectrum(op, "hybrid")
                assert spec.lambda_min_nonzero >= hlo * (1 - REL) - REL
                assert spec.lambda_max <= hup * (1 + REL) + REL
            # additive bounds (exact local solvers)
            tau_flat = 10.0
            opa = s.operator("as", scaling, "additive", tau_flat=tau_flat)
            alo, aup = oracle.additive_interval("as", None, tau_flat, s.n_color)
            assert aup == s.n_color + 1
            assert alo == 1.0 / ((1 + 2 * s.n_color) * tau_flat)
            spec = oracle.preconditioned_spectrum(opa, "additive")
            assert spec.lambda_min_nonzero >= alo * (1 - REL)
            assert spec.lambda_max <= aup * (1 + REL)
    _pass(4, "hybrid and additive spectra inside the guaranteed intervals")


def test_criterion_5_duality_of_coarse_spaces():
    s = toy()
    for scaling in SCALINGS:
        _, Ms, _ = s.scaled(scaling)
        ls_as = s.local_solvers("as")
        ls_nn = s.local_solvers("nn", scaling)
        for tau in (0.1, 0.5):
            c_nn, _ = coarse_sharp(tau, ls_nn, s.dirichlet_locals)
            c_pr, _ = coarse_flat(1.0 / tau, ls_as, Ms)
            s_nn = assemble_coarse(c_nn, s.A, s.restrictions)
            s_pr = assemble_coarse(c_pr, s.A, s.restrictions)
            assert s_nn.n0 == s_pr.n0 and s_nn.n0 > 0
            angles = sla.subspace_angles(s_nn.basis.toarray(),
                                         s_pr.basis.toarray())
            assert angles.max() <= 1e-8, (scaling, tau, angles.max())
    _pass(5, "weighted-Neumann and exact-solver coarse spaces coincide")


def test_criterion_6_ritz_consistency():
    cfg = KrylovConfig(reorthogonalize=True)
    s = toy()
    op = s.operator("as", "k_scaling", "hybrid", tau_flat=10.0)
    rep = pcg(s.A, s.problem.b, op.apply_hybrid, cfg,
              x_ref=s.problem.reference_solution)
    assert rep.converged
    hyb = oracle.preconditioned_spectrum(op, "hybrid")
    dense = hyb.lambda_max / hyb.lambda_min_nonzero
    assert abs(rep.kappa_estimate - dense) <= 0.05 * dense

    opp = s.operator("nn", "k_scaling", "projected", tau_sharp=0.5)
    repp = ppcg(s.A, s.problem.b, opp, cfg,
                x_ref=s.problem.reference_solution)
    assert repp.converged
    proj = oracle.projected_spectrum(opp)
    densep = proj.lambda_max / proj.lambda_min_nonzero
    assert abs(repp.kappa_estimate - densep) <= 0.05 * densep
    _pass(6, "Ritz condition estimates within 5% of the dense spectra")


def test_criterion_7_full_scale_reproduction():
    s = full_scale()
    assert s.problem.n == 7224
    # one-level stagnates
    op1 = s.operator("as", "k_scaling", "one_level")
    rep1 = pcg(s.A, s.problem.b, op1.apply_one_level,
               KrylovConfig(max_iterations=100),
               x_ref=s.problem.reference_solution)
    assert not rep1.converged
    assert rep1.final_error > 1e-4
    # two-level hybrid converges fast with a small guaranteed condition number
    _, op, rep = hybrid_sweep_run(10.0)
    assert rep.converged
    assert rep.iterations <= 60
    assert rep.kappa_estimate <= 30.0
    assert 68 / 2 <= op.coarse.n0 <= 68 * 2
    _pass(7, f"full scale: one-level stalls (err {rep1.final_error:.1e}), "
             f"hybrid solves in {rep.iterations} its, "
             f"kappa {rep.kappa_estimate:.1f} <= 30, n0 {op.coarse.n0}")


def test_criterion_8_threshold_sweep_monotonicity():
    taus = (4.0, 10.0, 100.0, 1000.0)
    kappas, dims = [], []
    for tau in taus:
        s, op, rep = hybrid_sweep_run(tau)
        assert rep.converged
        bound = s.n_color * tau   # max(1, N) / min(1, 1/tau)
        assert rep.kappa_estimate <= bound + REL * bound, (tau, rep.kappa_estimate)
        kappas.append(rep.kappa_estimate)
        dims.append(op.coarse.n0)
    assert all(k2 >= k1 * (1 - 1e-9) for k1, k2 in zip(kappas, kappas[1:]))
    assert all(d2 <= d1 for d1, d2 in zip(dims, dims[1:]))
    _pass(8, f"sweep tau={taus}: kappa {[round(k, 1) for k in kappas]} "
             f"nondecreasing, n0 {dims} nonincreasing, all below bounds")


def test_criterion_9_ppcg_correctness():
    runs = []
    s = toy()
    for variant, kw in _variant_threshold_grid():
        op = s.operator(variant, "k_scaling", "projected", **kw)
        runs.append((s, op, ppcg(s.A, s.problem.b, op, KrylovConfig(),
                                 x_ref=s.problem.reference_solution)))
    fs = full_scale()
    opf = fs.operator("as", "k_scaling", "projected", tau_flat=10.0)
    runs.append((fs, opf, ppcg(fs.A, fs.problem.b, opf,
                               KrylovConfig(max_iterations=200),
                               x_ref=fs.problem.reference_solution)))
    for setup, op, rep in runs:
        assert rep.converged
        xs = setup.problem.reference_solution
        e = rep.solution - xs
        err = np.sqrt(e @ (setup.A @ e))
        ref = np.sqrt(xs @ (setup.A @ xs))
        assert err <= 1e-9 * ref
        assert rep.projection_drift <= 1e-10
    _pass(9, "PPCG solutions match direct solves; iterates stay projected")
