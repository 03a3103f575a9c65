"""Brute-force spectral verification.

Dense materialization of the preconditioned operators, exact spectra via
the Cholesky factor of A, and bound checks for every spectral guarantee
the two-level theory provides.  Everything here is O(n^3) on purpose and
capped at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import DimensionMismatch, IndefiniteMatrix, ProblemTooLarge
from .linalg import gen_eig
from .partitioning import multiplicity, pou_identity_residual
from .schwarz import (
    KERNEL_INCLUSION_TOL,
    PreconditionedOperator,
    color_subdomains,
    kernel_inclusion_residual,
)

DENSE_CAP = 3000
REL_TOL = 1e-9
ZERO_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of a preconditioned operator with the zero block split off."""

    eigenvalues: np.ndarray
    zero_multiplicity: int
    lambda_min_nonzero: float
    lambda_max: float

    @property
    def effective_kappa(self) -> float:
        return self.lambda_max / self.lambda_min_nonzero


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality (or equality) with its slack."""

    name: str
    kind: str                 # "lower" | "upper" | "equal" | "residual"
    theoretical_bound: float
    observed: float
    satisfied: bool
    slack: float

    @staticmethod
    def lower(name, bound, observed):
        tol = REL_TOL * abs(bound)
        return BoundCheck(name, "lower", bound, observed,
                          bool(observed >= bound - tol), observed - bound)

    @staticmethod
    def upper(name, bound, observed):
        tol = REL_TOL * abs(bound)
        return BoundCheck(name, "upper", bound, observed,
                          bool(observed <= bound + tol), bound - observed)

    @staticmethod
    def equal(name, expected, observed):
        return BoundCheck(name, "equal", expected, observed,
                          bool(observed == expected), -abs(observed - expected))

    @staticmethod
    def residual(name, tolerance, observed):
        return BoundCheck(name, "residual", tolerance, observed,
                          bool(observed <= tolerance), tolerance - observed)


def dense_operator(op: PreconditionedOperator, mode: str = None) -> np.ndarray:
    """Materialize the operator by one blocked application to the identity."""
    mode = mode or op.mode
    if op.n > DENSE_CAP:
        raise ProblemTooLarge(f"dense verification capped at {DENSE_CAP}, got {op.n}")
    apply = {
        "one_level": op.apply_one_level,
        "projector": op.apply_projector,
        "hybrid": op.apply_hybrid,
        "additive": op.apply_additive,
        "projected": lambda x: op.apply_one_level(
            op.A @ op.apply_projector(x)),
    }[mode]
    return apply(np.eye(op.n))


def _congruent_spectrum(op: PreconditionedOperator, B: np.ndarray,
                        project: bool = False) -> np.ndarray:
    """Eigenvalues of B A, or of B A Pi, from the symmetric F^T B F.

    F is the lower Cholesky factor L of A = L L^T, or Pi^T L when
    ``project`` (A Pi = Pi^T A Pi = F F^T).  eig(XY) = eig(YX) for square
    X, Y, so the characteristic polynomials agree and zero eigenvalues keep
    their multiplicity.
    """
    try:
        F = sla.cholesky(op.A.toarray(), lower=True)
    except sla.LinAlgError as exc:
        raise IndefiniteMatrix(f"A is not spd: {exc}") from exc
    if project:
        F = op.apply_projector_transpose(F)
    C = F.T @ B @ F
    return sla.eigvalsh(0.5 * (C + C.T))


def projected_spectrum(op: PreconditionedOperator) -> SpectrumReport:
    """Exact spectrum of H A Pi, with its zero block split off."""
    lam = _congruent_spectrum(op, dense_operator(op, "one_level"), project=True)
    zero = np.abs(lam) <= ZERO_TOL_FACTOR * max(float(lam[-1]), 0.0)
    nonzero = lam[~zero]
    return SpectrumReport(lam, int(zero.sum()),
                          float(nonzero.min()) if nonzero.size else np.nan,
                          float(lam[-1]))


def preconditioned_spectrum(op: PreconditionedOperator, mode: str) -> SpectrumReport:
    """Exact spectrum of H_hyb A, H_ad A, or the one-level H A (all spd)."""
    lam = _congruent_spectrum(op, dense_operator(op, mode))
    return SpectrumReport(lam, 0, float(lam[0]), float(lam[-1]))


def projected_interval(variant: str, tau_sharp, tau_flat, n_color: int):
    """Guaranteed interval for the nonzero spectrum of H A Pi.

    Exact local solvers carry the stability constant 1, so the upper bound
    does not need an eigenproblem; singular weighted-Neumann solvers get
    their lower bound for free once the kernels are in V0.
    """
    if variant == "as":
        lower = 1.0 / tau_flat
        upper = float(n_color)
    elif variant == "nn":
        lower = 1.0
        upper = n_color / tau_sharp
    elif variant == "is":
        lower = 1.0 / tau_flat
        upper = n_color / tau_sharp
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return lower, upper


def hybrid_interval(lower: float, upper: float):
    return min(1.0, lower), max(1.0, upper)


def additive_interval(variant: str, tau_sharp, tau_flat, n_color: int):
    """Two-sided bound for H_ad A; defined for invertible local solvers."""
    if variant == "as":
        c_sharp = 1.0
    elif variant == "is":
        if tau_sharp is None:
            raise ValueError("additive bound for 'is' needs tau_sharp")
        c_sharp = tau_sharp
    else:
        raise ValueError(f"no additive bound for variant {variant!r}")
    lower = 1.0 / (max(2.0, 1.0 + 2.0 * n_color / c_sharp)
                   * max(1.0, tau_flat))
    upper = n_color / c_sharp + 1.0 if variant == "as" else None
    return lower, upper


def check_projected_bounds(report: SpectrumReport, n0: int, lower: float,
                           upper: float, label: str = "projected"):
    """Zero multiplicity must equal dim(V0); nonzero spectrum inside bounds."""
    return [BoundCheck.equal(f"{label}.zero_multiplicity", float(n0),
                             float(report.zero_multiplicity)),
            *check_interval(report, lower, upper, label)]


def check_interval(report: SpectrumReport, lower, upper, label: str):
    checks = []
    if lower is not None:
        checks.append(BoundCheck.lower(f"{label}.lambda_min", lower,
                                       report.lambda_min_nonzero))
    if upper is not None:
        checks.append(BoundCheck.upper(f"{label}.lambda_max", upper,
                                       report.lambda_max))
    return checks


def verify_coloring(A, restrictions):
    """Same-colored subdomains must be exactly A-orthogonal."""
    colors = color_subdomains(A, restrictions)
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
    worst = 0.0
    for c in range(colors.max() + 1):
        members = np.flatnonzero(colors == c)
        for i, s in enumerate(members):
            gi = restrictions[s].global_index
            for t in members[i + 1:]:
                gt = restrictions[t].global_index
                block = A[gi][:, gt]
                if block.nnz:
                    worst = max(worst, float(np.abs(block.data).max()))
    return BoundCheck.residual("coloring.orthogonality", 0.0, worst)


def audit_assumptions(A, restrictions, weights=None, neumann=None,
                      local_set=None, coarse=None, Ms_list=None,
                      n_samples: int = 8, seed: int = 0):
    """Numerical audit of the framework assumptions; returns one check each."""
    rng = np.random.default_rng(seed)
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
    n = A.shape[0]
    checks = []

    inj = all(np.unique(m.global_index).size == m.n_local for m in restrictions)
    checks.append(BoundCheck.residual("restriction.orthonormal_rows", 0.0,
                                      0.0 if inj else 1.0))
    mult = multiplicity(restrictions)
    checks.append(BoundCheck.residual("restriction.cover", 0.0,
                                      float((mult == 0).sum())))

    if weights is not None:
        checks.append(BoundCheck.residual(
            "partition_of_unity.identity", 1e-14,
            pou_identity_residual(restrictions, weights)))

    if neumann is not None:
        S = sp.csr_matrix((n, n))
        for m, As in zip(restrictions, neumann):
            gi = m.global_index
            lifted = sp.coo_matrix(As)
            S = S + sp.coo_matrix(
                (lifted.data, (gi[lifted.row], gi[lifted.col])), shape=(n, n)).tocsr()
        diff = S - A
        res = np.sqrt(diff.multiply(diff).sum()) / np.sqrt(A.multiply(A).sum())
        checks.append(BoundCheck.residual("neumann.splitting", 1e-12, float(res)))

    if local_set is not None:
        worst = 0.0
        for s in range(local_set.n_subdomains):
            T = local_set.tilde_matrix(s)
            Td = T.toarray() if sp.issparse(T) else np.asarray(T)
            scale = max(np.abs(Td).max(), 1e-300)
            worst = max(worst, float(np.abs(Td - Td.T).max() / scale))
        checks.append(BoundCheck.residual("local_solver.symmetric", 1e-12, worst))
        if n <= DENSE_CAP:
            op = PreconditionedOperator(A, local_set, mode="one_level")
            H = dense_operator(op, "one_level")
            lam_min = float(sla.eigvalsh(0.5 * (H + H.T))[0])
            checks.append(BoundCheck.lower("one_level.spd", 0.0, lam_min))

    if coarse is not None:
        checks.append(BoundCheck.upper("coarse.strictly_smaller", float(n - 1),
                                       float(coarse.n0)))
        if local_set is not None:
            checks.append(BoundCheck.residual(
                "coarse.kernel_inclusion", KERNEL_INCLUSION_TOL,
                kernel_inclusion_residual(A, local_set, coarse)))

    if Ms_list is not None and weights is not None:
        worst = 0.0
        for _ in range(n_samples):
            x = rng.standard_normal(n)
            total = 0.0
            for m, d, Ms in zip(restrictions, weights, Ms_list):
                y = d * m.restrict(x)
                total += float(y @ (Ms @ y))
            xAx = float(x @ (A @ x))
            worst = max(worst, abs(total - xAx) / xAx)
        checks.append(BoundCheck.residual("stable_split.identity", 1e-12, worst))

    return checks


def subspace_angles(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Principal angles between column spans, ascending, in [0, pi/2]."""
    U = np.atleast_2d(U)
    V = np.atleast_2d(V)
    if U.shape[0] != V.shape[0]:
        raise DimensionMismatch(
            f"subspaces live in different spaces: {U.shape[0]} vs {V.shape[0]}")
    return np.sort(sla.subspace_angles(U, V))


def xi_projection(A, restriction, kernel_basis: np.ndarray):
    """A-orthogonal projection vanishing exactly on the lifted kernel.

    With no kernel this is the identity.  Returns a callable on global
    vectors.
    """
    if kernel_basis.shape[1] == 0:
        return lambda x: x.copy()
    Zt = restriction.prolong(kernel_basis)
    G = Zt.T @ (A @ Zt)
    chol = sla.cho_factor(0.5 * (G + G.T), lower=True)

    def apply(x):
        return x - Zt @ sla.cho_solve(chol, Zt.T @ (A @ x))

    return apply


def check_stable_splitting(op: PreconditionedOperator, weights, Ms_list,
                           tau_flat: float, n_samples: int = 5, seed: int = 0):
    """Build the explicit stable splitting behind the lower spectral bound.

    For sampled x in range(Pi): z_s = y_s - Y_L Y_L^T tilde A_s y_s with
    y_s = D_s R_s x, where Y_L is the low block of (M_s, tilde A_s) below
    1/tau_flat, solved here over its full dense spectrum.  Y_L spans what
    the flat selection puts in V0, so the splitting must reconstruct x
    through Pi; z_s keeps only eigenvalues mu >= 1/tau_flat, so its local
    energy is at most tau_flat y_s^T M_s y_s, and those terms sum to the
    energy of x.  The worst sampled energy ratio is the empirical squared
    stability constant.
    """
    rng = np.random.default_rng(seed)
    A = op.A
    ls = op.local_set
    pieces = []
    for s in range(ls.n_subdomains):
        tilde = ls.tilde_matrix(s)
        low = gen_eig(Ms_list[s], tilde).below(1.0 / tau_flat)
        pieces.append((low.eigenvectors, tilde))

    worst_energy = 0.0
    worst_rec = 0.0
    for _ in range(n_samples):
        x = op.apply_projector(rng.standard_normal(op.n))
        xAx = float(x @ (A @ x))
        energy = 0.0
        rec = np.zeros(op.n)
        for s, m in enumerate(ls.restrictions):
            YL, tilde = pieces[s]
            ys = weights[s] * m.restrict(x)
            # tilde A_s-orthogonal projection off the low block
            zs = ys - YL @ (YL.T @ (tilde @ ys))
            energy += float(zs @ (tilde @ zs))
            rec += op.apply_projector(m.prolong(zs))
        worst_energy = max(worst_energy, energy / xAx)
        worst_rec = max(worst_rec,
                        float(np.linalg.norm(rec - x) / np.linalg.norm(x)))
    return [
        BoundCheck.residual("stable_split.reconstruction", 1e-8, worst_rec),
        BoundCheck.upper("stable_split.energy_constant", tau_flat,
                         worst_energy),
    ]


def check_sharp_estimate(op: PreconditionedOperator, omega: float,
                         n_samples: int = 10, seed: int = 0) -> BoundCheck:
    """Sampled local stability estimate behind the upper spectral bound.

    Draws x_s in range(pinv(tilde A_s) R_s Pi^T), then checks
    ||Xi_s R_s^T x_s||_A^2 <= omega |x_s|^2_{tilde A_s}.
    """
    rng = np.random.default_rng(seed)
    A = op.A
    worst = 0.0
    for s in range(op.local_set.n_subdomains):
        m = op.local_set.restrictions[s]
        T = op.local_set.tilde_matrix(s)
        xi = xi_projection(A, m, op.local_set.kernel_basis(s))
        for _ in range(n_samples):
            v = rng.standard_normal(op.n)
            xs = op.local_set.apply_local(s, m.restrict(op.apply_projector_transpose(v)))
            energy = float(xs @ (T @ xs))
            if energy <= 0.0:
                continue
            w = xi(m.prolong(xs))
            ratio = float(w @ (A @ w)) / energy
            worst = max(worst, ratio)
    return BoundCheck.upper("sharp_estimate.omega", omega, worst)
