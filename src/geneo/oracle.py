"""Brute-force spectral verification.

Exact spectra of the preconditioned operators, from one congruence, bound
checks for every spectral guarantee the two-level theory provides, and an
audit of the assumptions that reads the built operator (its coarse space,
empty for one-level, and its kernel-inclusion residual).  With A = L L^T (a
band factor), ``G = L^T H L``, ``W = L^T Z``, ``X = I - W E^{-1} W^T`` and
``S = sym(W E^{-1} W^T)``, the spectrum of H A Pi is that of ``X^T G X``,
of H_hyb A that of ``X^T G X + S`` and of H_ad A that of ``G + S``: rank-n0
updates of G in the one n x n array of :class:`Congruence`, where the
audit's H and each spectrum's G are rebuilt from H's subdomain blocks.
Forming G and the eigensolves are O(n^3) on purpose, capped at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dgemm

from .errors import ConfigError, NonFiniteValue, ProblemTooLarge
from .linalg import band_cholesky, gen_eig
from .partitioning import multiplicity
from .schwarz import (
    KERNEL_INCLUSION_TOL,
    PreconditionedOperator,
    check_method,
    color_subdomains,
)

DENSE_CAP = 3000
PANEL = 128             # rows per block of the in-place dense products
REL_TOL = 1e-9
ZERO_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of a preconditioned operator with the zero block split off."""

    eigenvalues: np.ndarray
    zero_multiplicity: int
    lambda_min_nonzero: float
    lambda_max: float


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


def _blocks(op: PreconditionedOperator) -> list:
    """H's blocks: each local solver on its own identity, with its scatter index."""
    if op.n > DENSE_CAP:
        raise ProblemTooLarge(f"dense verification capped at {DENSE_CAP}, got {op.n}")
    return [(np.ix_(m.global_index, m.global_index),
             op.local_set.apply_local(s, np.eye(m.n_local)))
            for s, m in enumerate(op.local_set.restrictions)]


def _summed(blocks, H: np.ndarray) -> np.ndarray:
    """H zeroed, then the blocks added in subdomain order, as apply_one_level adds."""
    H.fill(0.0)
    for index, block in blocks:
        H[index] += block
    return H


# The benchmark's layer list (perfbench/layers.py) still names this; it goes
# with that entry in the next change to perfbench/.
def dense_operator(op: PreconditionedOperator) -> np.ndarray:
    """H from its subdomain blocks."""
    return _summed(_blocks(op), np.empty((op.n, op.n)))


def _eigvalsh(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric M, M overwritten; its inputs were checked
    finite where built, so the eigenvalues are checked, not an n x n mask."""
    lam = sla.eigvalsh(M, overwrite_a=True, check_finite=False)
    if not np.isfinite(lam).all():
        raise NonFiniteValue("non-finite eigenvalue of a dense operator")
    return lam


class Congruence:
    """``G = L^T H L``, ``W = L^T Z`` and ``K = E^{-1} W^T`` for A = L L^T.

    A is factored once in band storage, in its natural order, by
    :func:`~geneo.linalg.band_cholesky`, H kept as its subdomain blocks; the
    one n x n array, ``buffer``, holds H (:meth:`H`) or G (:meth:`G`), each
    rebuilt from the blocks.  K comes from the coarse space's own solve, so
    its implemented factor of E, dropped columns included, is verified.
    The blocks, W and K are checked finite once (:class:`NonFiniteValue`).
    """

    def __init__(self, op: PreconditionedOperator):
        self.blocks = _blocks(op)
        self.band = band_cholesky(op.A)
        self.W = self._left(op.coarse.basis.toarray(order="F"))
        self.K = op.coarse.solve(self.W.T)
        if not all(np.isfinite(X).all() for X in
                   [self.W, self.K] + [block for _, block in self.blocks]):
            raise NonFiniteValue("non-finite local solve or coarse basis")
        self.buffer = np.empty((op.n, op.n))

    def _left(self, X: np.ndarray) -> np.ndarray:
        """X <- L^T X in place, by ascending blocks j0:j1 of PANEL rows:
        each reads rows j0:r1 of X (r1 - j1 the bandwidth, clipped at n),
        which no earlier block overwrote, times the dense L[j0:r1, j0:j1]."""
        b, n = self.band.shape
        for j0 in range(0, n, PANEL):
            j1, r1 = min(j0 + PANEL, n), min(j0 + PANEL + b - 1, n)
            P = sp.dia_matrix((self.band[:, j0:j1], -np.arange(b)),
                              shape=(r1 - j0, j1 - j0)).toarray()
            X[j0:j1] = P.T @ X[j0:r1]
        return X

    def H(self) -> np.ndarray:
        return _summed(self.blocks, self.buffer)

    def G(self) -> np.ndarray:
        """G = L^T (H L) in the buffer, H L in place as (L^T H^T)^T."""
        return self._left(self._left(self.H().T).T)

    def eigvalsh(self, mode: str) -> np.ndarray:
        """Spectrum of B A for the mode's B (of H A Pi for "projected"),
        computed in the buffer: G rebuilt, updated in place by ``dgemm``."""
        project, add_coarse = {"one_level": (0, 0), "projected": (1, 0),
                               "hybrid": (1, 1), "additive": (0, 1)}[mode]
        W, K = self.W, self.K
        MT = self.G().T             # M^T, Fortran-ordered: where dgemm writes

        def update(alpha, a, b, **trans):
            dgemm(alpha, a, b, beta=1.0, c=MT, overwrite_c=1, **trans)

        if project:
            # X^T G X, X = I - W K, by two updates: the expanded G - GWK -
            # (GWK)^T + K^T W^T G W K cancels terms of size |G| cond(E).
            # M -= (G W) K, then M -= K^T (W^T M), each transposed
            update(-1.0, K, W.T @ MT, trans_a=1)
            update(-1.0, MT @ W, K)
        if add_coarse:
            update(0.5, W, K)
            update(0.5, K, W, trans_a=1, trans_b=1)
        # symmetric up to rounding: one triangle is read, in place
        return _eigvalsh(MT)


def projected_spectrum(op: PreconditionedOperator,
                       congruence: Congruence = None) -> SpectrumReport:
    """Exact spectrum of H A Pi, with its zero block split off."""
    lam = (congruence or Congruence(op)).eigvalsh("projected")
    zero = np.abs(lam) <= ZERO_TOL_FACTOR * max(float(lam[-1]), 0.0)
    nonzero = lam[~zero]
    return SpectrumReport(lam, int(zero.sum()),
                          float(nonzero.min()) if nonzero.size else np.nan,
                          float(lam[-1]))


def preconditioned_spectrum(op: PreconditionedOperator, mode: str,
                            congruence: Congruence = None) -> SpectrumReport:
    """Exact spectrum of H_hyb A, H_ad A, or the one-level H A (all spd)."""
    check_method(op.local_set.variant, mode)
    lam = (congruence or Congruence(op)).eigvalsh(mode)
    return SpectrumReport(lam, 0, float(lam[0]), float(lam[-1]))


def projected_interval(variant: str, tau_sharp, tau_flat, n_color: int):
    """Guaranteed interval for the nonzero spectrum of H A Pi.

    Exact local solvers carry the stability constant 1, so the upper bound
    does not need an eigenproblem; singular weighted-Neumann solvers get
    their lower bound for free once the kernels are in V0.
    """
    check_method(variant)
    lower = 1.0 if variant == "nn" else 1.0 / tau_flat
    upper = float(n_color) if variant == "as" else n_color / tau_sharp
    return lower, upper


def hybrid_interval(lower: float, upper: float):
    return min(1.0, lower), max(1.0, upper)


def additive_interval(variant: str, tau_sharp, tau_flat, n_color: int):
    """Two-sided bound for H_ad A; defined for invertible local solvers."""
    check_method(variant, "additive")
    c_sharp = 1.0 if variant == "as" else tau_sharp
    if c_sharp is None:
        raise ConfigError("tau_sharp: the additive bound for 'is' needs it")
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


def audit_assumptions(op: PreconditionedOperator, weights, neumann, Ms_list,
                      H=None):
    """Numerical audit of the framework assumptions behind ``op``, built from
    the partition of unity ``weights``, the local ``neumann`` matrices and
    ``Ms_list``; one check each, the coarse ones for two-level modes.

    ``H``, if given, is the one-level H of ``op`` (:meth:`Congruence.H`); it
    is consumed: symmetrized in place, then overwritten by the eigensolve of
    ``one_level.spd``.
    """
    rng = np.random.default_rng(0)
    A, n, restrictions = op.A, op.n, op.local_set.restrictions
    checks = []

    inj = all(np.unique(m.global_index).size == m.n_local for m in restrictions)
    checks.append(BoundCheck.residual("restriction.orthonormal_rows", 0.0,
                                      0.0 if inj else 1.0))
    checks.append(BoundCheck.residual(
        "restriction.cover", 0.0, float((multiplicity(restrictions) == 0).sum())))
    checks.append(BoundCheck.residual(
        "partition_of_unity.identity", 1e-14,
        float(np.abs(multiplicity(restrictions, weights) - 1.0).max())))

    S = sp.csr_matrix((n, n))
    for m, As in zip(restrictions, neumann):
        gi, lifted = m.global_index, sp.coo_matrix(As)
        S = S + sp.coo_matrix(
            (lifted.data, (gi[lifted.row], gi[lifted.col])), shape=(n, n)).tocsr()
    diff = S - A
    res = np.sqrt(diff.multiply(diff).sum()) / np.sqrt(A.multiply(A).sum())
    checks.append(BoundCheck.residual("neumann.splitting", 1e-12, float(res)))

    tildes = map(op.local_set.tilde_matrix, range(len(restrictions)))
    worst = max((float(abs(T - T.T).max() / max(abs(T).max(), 1e-300))
                 for T in tildes), default=0.0)
    checks.append(BoundCheck.residual("local_solver.symmetric", 1e-12, worst))
    if H is not None:
        # exactly symmetric, in place by row panels: H_ij and H_ji both
        # become (H_ij + H_ji) * 0.5, as in (H + H^T) * 0.5
        for i in range(0, n, PANEL):
            S = H[i:i + PANEL, i:] + H[i:, i:i + PANEL].T
            S *= 0.5
            H[i:i + PANEL, i:] = S
            H[i:, i:i + PANEL] = S.T
        checks.append(BoundCheck.lower("one_level.spd", 0.0,
                                       float(_eigvalsh(H.T)[0])))

    if op.mode != "one_level":
        checks.append(BoundCheck.upper("coarse.strictly_smaller", float(n - 1),
                                       float(op.coarse.n0)))
        checks.append(BoundCheck.residual(
            "coarse.kernel_inclusion", KERNEL_INCLUSION_TOL, op.kernel_inclusion))

    worst = 0.0
    for _ in range(8):
        x = rng.standard_normal(n)
        total = 0.0
        for m, d, Ms in zip(restrictions, weights, Ms_list):
            y = d * m.restrict(x)
            total += float(y @ (Ms @ y))
        xAx = float(x @ (A @ x))
        worst = max(worst, abs(total - xAx) / xAx)
    checks.append(BoundCheck.residual("stable_split.identity", 1e-12, worst))

    return checks


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
                           tau_flat: float):
    """Build the explicit stable splitting behind the lower spectral bound.

    For sampled x in range(Pi): z_s = y_s - Y_L Y_L^T tilde A_s y_s with
    y_s = D_s R_s x, where Y_L is the low block of (M_s, tilde A_s) below
    1/tau_flat, solved here by the dense reduction restricted to that
    window, independently of the sparse solve that built V0.  Y_L spans what
    the flat selection puts in V0, so the splitting must reconstruct x
    through Pi; z_s keeps only eigenvalues mu >= 1/tau_flat, so its local
    energy is at most tau_flat y_s^T M_s y_s, and those terms sum to the
    energy of x.  The worst sampled energy ratio is the empirical squared
    stability constant, over five samples.
    """
    rng = np.random.default_rng(0)
    A = op.A
    ls = op.local_set
    tildes = [ls.tilde_matrix(s) for s in range(ls.n_subdomains)]
    # dense inputs take the dense reduction, not the sparse window of V0
    pieces = [(gen_eig(Ms.toarray(), T.toarray(), tau=1.0 / tau_flat)
               .eigenvectors, T) for Ms, T in zip(Ms_list, tildes)]

    worst_energy = 0.0
    worst_rec = 0.0
    for _ in range(5):
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


def check_sharp_estimate(op: PreconditionedOperator, omega: float) -> BoundCheck:
    """Sampled local stability estimate behind the upper spectral bound.

    Draws ten x_s per subdomain in range(pinv(tilde A_s) R_s Pi^T), then
    checks ||Xi_s R_s^T x_s||_A^2 <= omega |x_s|^2_{tilde A_s}.
    """
    rng = np.random.default_rng(0)
    A = op.A
    worst = 0.0
    for s in range(op.local_set.n_subdomains):
        m = op.local_set.restrictions[s]
        T = op.local_set.tilde_matrix(s)
        xi = xi_projection(A, m, op.local_set.kernel_basis(s))
        for _ in range(10):
            v = rng.standard_normal(op.n)
            xs = op.local_set.apply_local(s, m.restrict(op.apply_projector_transpose(v)))
            energy = float(xs @ (T @ xs))
            if energy <= 0.0:
                continue
            w = xi(m.prolong(xs))
            ratio = float(w @ (A @ w)) / energy
            worst = max(worst, ratio)
    return BoundCheck.upper("sharp_estimate.omega", omega, worst)
