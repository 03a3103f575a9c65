"""Spectral verification by inertia.

Bound checks for every spectral guarantee the two-level theory provides,
decided on the operators as built, and an audit of the assumptions that
reads the built operator (its coarse space, empty for one-level, and its
kernel-inclusion residual).  With A = L L^T (a band factor),
``G = L^T H L``, ``W = L^T Z``, ``K = E^{-1} W^T`` (the coarse space's own
solve), ``X = I - W K`` and ``S = sym(W K)``, H A Pi has the spectrum of
``P = X^T G X``, H_hyb A that of ``P + S`` and H_ad A that of ``G + S``:
rank-n0 updates of G in the one n x n array of :class:`Congruence`, where
the audit's H and each operator are rebuilt from H's subdomain blocks.

Every bound is decided by Sylvester's law of inertia: ``lambda_min >= a``
holds iff ``M - a' I`` has a Cholesky factor and ``lambda_max <= b`` iff
``b' I - M`` does, ``a'`` and ``b'`` the bounds moved by their
:data:`REL_TOL` slack.  Each factor (pivoted, ``dpstrf``) is taken in
place in the array's upper triangle while the lower one keeps M.  Once
``||K W - I||`` certifies the projector, the projected checks factor the
deflated ``P + sigma S``, whose spectrum is P's nonzero one and sigma n0
times; with sigma = 1 it is the hybrid matrix, so one build serves both.
Otherwise, or with the zero block not certified, the zero count and the
lower verdict are read from P's spectrum by one dense eigensolve.  Each
pass returns the bounds it was given with their verdicts.  The reported
extremes come from Lanczos from a fixed start, each with an error
estimate: lambda_max on M, its error certified by a factor at
``lambda_max + error``; lambda_min by shift-invert on the lower factor,
with its residual norm, or a dense solve of the one eigenpair where a
factor fails.  A check passes only when its verdict and the bound on the
reported value both hold.  Forming G and each factorization are O(n^3),
capped at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.linalg.blas import dgemm, dsymm, dsymv, dsyr2k
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

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
EPS = np.finfo(float).eps
PROJECTOR_TOL = 1e-8    # ||K W - I|| up to which X is taken as a projector
LANCZOS_RESTARTS = 40   # ARPACK restarts before a dense solve takes over
LANCZOS_TOL = 1e-13     # ARPACK's relative residual: it resolves clusters
                        # wider than it, yet not those rounding splits


@dataclass(frozen=True)
class SpectrumReport:
    """Extremes of a preconditioned operator's spectrum with the zero block
    split off, each with its residual norm, and the bounds its pass was
    given with their verdicts: ``lower_certified`` that
    ``lambda_min_nonzero >= lower`` and ``upper_certified`` that
    ``lambda_max <= upper``, each with the REL_TOL slack (False for a bound
    not given)."""

    zero_multiplicity: int
    lambda_min_nonzero: float
    lambda_max: float
    lambda_min_error: float
    lambda_max_error: float
    lower: float | None = None
    upper: float | None = None
    lower_certified: bool = False
    upper_certified: bool = False


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality (or equality) with its slack; ``error``
    estimates the error of a computed ``observed`` (``None``: read exactly)."""

    name: str
    kind: str                 # "lower" | "upper" | "equal" | "residual"
    theoretical_bound: float
    observed: float
    satisfied: bool
    slack: float
    error: float | None = None

    @staticmethod
    def lower(name, bound, observed, certified=True, error=None):
        tol = REL_TOL * abs(bound)
        return BoundCheck(name, "lower", bound, observed,
                          bool(certified and observed >= bound - tol),
                          observed - bound, error)

    @staticmethod
    def upper(name, bound, observed, certified=True, error=None):
        tol = REL_TOL * abs(bound)
        return BoundCheck(name, "upper", bound, observed,
                          bool(certified and observed <= bound + tol),
                          bound - observed, error)

    @staticmethod
    def equal(name, expected, observed):
        return BoundCheck(name, "equal", expected, observed,
                          bool(observed == expected), -abs(observed - expected))

    @staticmethod
    def residual(name, tolerance, observed):
        return BoundCheck(name, "residual", tolerance, observed,
                          bool(observed <= tolerance), tolerance - observed)


def _shift(kind: str, bound: float) -> float:
    """The certificate's shift: the bound moved by its REL_TOL slack."""
    return bound + (REL_TOL if kind == "upper" else -REL_TOL) * abs(bound)


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


class _Dense:
    """The symmetric ``T`` in the lower triangle of the Fortran-ordered n x n
    array ``a``, its diagonal kept aside, and ``P = T - sigma S`` with
    ``S = sym(W K)`` (``P = T`` for sigma 0).

    A non-finite entry of T is a :class:`NonFiniteValue`.  The upper
    triangle and the diagonal hold one factorization at a time, taken in
    place: :meth:`factors` loads ``sign (T - shift I)`` there (P in place of
    T unless ``deflated``) and keeps its Cholesky factor for :meth:`solve`,
    its verdict kept per shift; :meth:`eigenvalues` and :meth:`pair` load T
    (or P) there for a dense eigensolve.
    """

    def __init__(self, a, W=None, K=None, sigma=0.0):
        self.a, self.W, self.K, self.sigma = a, W, K, sigma
        self.n = a.shape[0]
        if not all(np.isfinite(a[j:, j:j + PANEL]).all()
                   for j in range(0, self.n, PANEL)):
            raise NonFiniteValue("non-finite entry of a dense operator")
        self.d = a.diagonal().copy()
        self.held = None            # the key of the factor in the upper triangle
        self.cholesky = {}          # (shift, sign, deflated) -> factors

    def apply(self, v, deflated=True):
        """T v (P v unless ``deflated``) for a vector or an (n, k) block, the
        diagonal read from its copy."""
        if v.ndim == 1:
            y = dsymv(1.0, self.a, v, lower=1)
            y += (self.d - self.a.diagonal()) * v
        else:
            y = dsymm(1.0, self.a, v, lower=1)
            y += (self.d - self.a.diagonal())[:, None] * v
        if self.sigma and not deflated:
            y -= 0.5 * self.sigma * (self.W @ (self.K @ v)
                                     + self.K.T @ (self.W.T @ v))
        return y

    def _load(self, shift, sign, deflated):
        a = self.a
        for j0 in range(0, self.n, PANEL):
            j1 = min(j0 + PANEL, self.n)
            block = a[j0:j1, j0:j1]
            upper = np.triu_indices(j1 - j0, 1)
            block[upper] = sign * block.T[upper]
            np.multiply(a[j1:, j0:j1].T, sign, out=a[j0:j1, j1:])
        np.fill_diagonal(a, sign * (self.d - shift))
        if self.sigma and not deflated:
            dsyr2k(-0.5 * sign * self.sigma, self.W, self.K.T, beta=1.0, c=a,
                   lower=0, overwrite_c=1)

    def factors(self, shift, sign=1.0, deflated=True, keep=False) -> bool:
        """Whether ``sign (T - shift I)`` (P for T unless ``deflated``) has a
        Cholesky factor; with ``keep`` its factor is left held.  A factor
        at a shift farther from the spectrum, or a failure nearer to it,
        already decides."""
        key = (shift, sign, deflated)
        if self.held == ("chol",) + key:
            return True
        for (s, g, d), ok in self.cholesky.items():
            farther = sign * (s - shift)
            if (g, d) == (sign, deflated) and (
                    (not ok and farther <= 0) or (ok and farther >= 0 and not keep)):
                return ok
        # dpstrf with tolerance 0 stops at the first pivot <= 0 (or NaN); it
        # factors in place like dpotrf, whose OpenBLAS build packs an n-row
        # panel aside (5 MB more peak memory at n = 1,680)
        self._load(shift, sign, deflated)
        _, self.piv, _, info = lapack.dpstrf(self.a, tol=0.0, lower=0,
                                             overwrite_a=1)
        self.piv -= 1
        self.held = ("chol",) + key if info == 0 else None
        self.cholesky[key] = info == 0
        return info == 0

    def solve(self, v):
        """``(T - shift I)^{-1} v`` (or P's) with the held Cholesky factor,
        which is of the pivoted ``Pi^T (T - shift I) Pi``."""
        x = np.empty_like(v)
        x[self.piv] = lapack.dpotrs(self.a, v[self.piv], lower=0)[0]
        return x

    def pair(self, index, deflated=True):
        """The eigenpair ``index`` (ascending) of T (of P unless
        ``deflated``) by a dense solve of that one pair in the upper
        triangle."""
        self._load(0.0, 1.0, deflated)
        self.held = None
        _, y = sla.eigh(self.a, lower=False, overwrite_a=True,
                        check_finite=False, subset_by_index=(index, index))
        return y[:, 0]

    def eigenvalues(self, deflated=True):
        """T's ascending spectrum (P's unless ``deflated``) by a dense
        eigensolve in the upper triangle."""
        self._load(0.0, 1.0, deflated)
        self.held = None
        return sla.eigvalsh(self.a, lower=False, overwrite_a=True,
                            check_finite=False)


def _block_norm(apply, Q, width=8):
    """``||apply(Q)||_F`` by blocks of ``width`` columns of Q."""
    return float(np.sqrt(sum(np.linalg.norm(apply(Q[:, j:j + width])) ** 2
                             for j in range(0, Q.shape[1], width))))


def _largest(apply, n, restrict=None):
    """Unit vector of the largest eigenvalue of the symmetric operator
    ``apply`` (with ``restrict``, of ``restrict(apply(restrict(.)))``) by
    Lanczos (ARPACK) from a fixed start to :data:`LANCZOS_TOL`; ``None``
    when it does not converge within :data:`LANCZOS_RESTARTS`."""
    start = np.random.default_rng(0).standard_normal(n)
    if restrict is not None:
        inner = apply

        def apply(v):
            return restrict(inner(restrict(v)))

        start = restrict(start)
    try:
        return eigsh(LinearOperator((n, n), matvec=apply, dtype=float), k=1,
                     which="LA", v0=start, tol=LANCZOS_TOL,
                     maxiter=LANCZOS_RESTARTS)[1][:, 0]
    except ArpackNoConvergence:
        return None


def _rayleigh(apply, y) -> tuple[float, float]:
    """``y^T M y`` and ``||M y - (y^T M y) y||`` for y normalized; a
    non-finite quotient is a :class:`NonFiniteValue`."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = y / np.linalg.norm(y)
        My = apply(y)
        theta = float(y @ My)
        residual = float(np.linalg.norm(My - theta * y))
    if not np.isfinite(residual):
        raise NonFiniteValue("non-finite eigenvalue of a dense operator")
    return theta, residual


def _highest(M, deflate_above=None):
    """(lambda_max, error) of T, or with ``deflate_above`` of P, by Lanczos,
    its error certified by inertia: ``(lambda_max + error) I`` minus the
    matrix has a Cholesky factor, for an error of the residual plus
    ``n eps |lambda|`` or of a factor already taken within twice that;
    P's is taken on T (the deflated matrix) above ``deflate_above``.
    Where there is none, the Lanczos vector stopped short of the top, and
    a dense solve of the top pair gives it, with its residual."""
    projected = deflate_above is not None
    apply = partial(M.apply, deflated=not projected)
    y = _largest(apply, M.n)
    if y is not None:
        theta, residual = _rayleigh(apply, y)
        error = residual + M.n * EPS * abs(theta)
        deflated = not projected or theta + error > deflate_above
        taken = [s for (s, sign, d), ok in M.cholesky.items()
                 if ok and (sign, d) == (-1.0, deflated)
                 and theta <= s <= theta + 2 * error]
        if taken:
            return theta, min(taken) - theta
        if M.factors(theta + error, -1.0, deflated):
            return theta, error
    return _rayleigh(apply, M.pair(M.n - 1, not projected))


def _lowest(M, shift, apply, restrict=None):
    """(lambda_min, residual, certified) of the operator ``apply`` on M:
    certified iff ``T - shift I`` factors, then by shift-invert Lanczos on
    that factor (restricted by ``restrict``); otherwise, without a shift
    or without convergence, from T's lowest pair by a dense solve."""
    certified = shift is not None and M.factors(shift, keep=True)
    y = _largest(M.solve, M.n, restrict) if certified else None
    return (*_rayleigh(apply, M.pair(0) if y is None else y), certified)


class Congruence:
    """``G = L^T H L``, ``W = L^T Z`` and ``K = E^{-1} W^T`` for A = L L^T.

    A is factored once in band storage, in its natural order, by
    :func:`~geneo.linalg.band_cholesky`, H kept as its subdomain blocks; the
    one n x n array, ``buffer``, holds H (:meth:`H`), G (:meth:`G`) or one
    operator (:meth:`matrix`), each rebuilt from the blocks.  K comes from
    the coarse space's own solve, so its implemented factor of E, dropped
    columns included, is verified.  The blocks, W and K are checked finite
    once (:class:`NonFiniteValue`).
    """

    def __init__(self, op: PreconditionedOperator):
        self.blocks = _blocks(op)
        self.band = band_cholesky(op.A)
        self.W = self._left(op.coarse.basis.toarray(order="F"))
        self.K = op.coarse.solve(self.W.T)
        if not all(np.isfinite(X).all() for X in
                   [self.W, self.K] + [block for _, block in self.blocks]):
            raise NonFiniteValue("non-finite local solve or coarse basis")
        self.n0 = self.K.shape[0]
        self.projector_defect = float(
            np.abs(self.K @ self.W - np.eye(self.n0)).max(initial=0.0))
        self.buffer = np.empty((op.n, op.n))
        self.held = None            # (key, _Dense) of the operator in the buffer

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
        self.held = None
        return _summed(self.blocks, self.buffer)

    def G(self) -> np.ndarray:
        """G = L^T (H L) in the buffer, H L in place as (L^T H^T)^T."""
        return self._left(self._left(self.H().T).T)

    def matrix(self, project: bool, weight: float) -> np.ndarray:
        """``X^T G X`` (``G`` unless ``project``) plus ``weight S`` in the
        buffer, returned Fortran-ordered: G rebuilt, updated in place by
        ``dgemm``; symmetric up to rounding, its lower triangle is read."""
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
        if weight:
            update(0.5 * weight, W, K)
            update(0.5 * weight, K, W, trans_a=1, trans_b=1)
        return MT

    def _hold(self, project: bool, weight: float) -> _Dense:
        """The operator in the buffer, rebuilt unless it is already there."""
        key = (project, weight)
        if self.held is None or self.held[0] != key:
            self.held = (key, _Dense(self.matrix(project, weight), self.W,
                                     self.K, weight if project else 0.0))
        return self.held[1]

    def spectrum(self, mode: str, lower=None, upper=None) -> SpectrumReport:
        """The extremes of B A for the mode's B (of H A Pi for "projected")
        and the verdicts of the given bounds, the lower one taken first."""
        if mode == "projected":
            return self._projected(lower, upper)
        M = self._hold(*{"one_level": (False, 0.0), "hybrid": (True, 1.0),
                         "additive": (False, 1.0)}[mode])
        # the lower side first, while a factor the projected left is held
        low = _lowest(M, lower if lower is None else _shift("lower", lower),
                      M.apply)
        top = _highest(M)
        return SpectrumReport(
            0, low[0], top[0], low[1], top[1], lower, upper, low[2],
            upper is not None and M.factors(_shift("upper", upper), -1.0))

    def _projected(self, lower, upper) -> SpectrumReport:
        """H A Pi on the deflated ``D = P + sigma S``, sigma = 1 (the hybrid
        matrix) unless 1 lies outside [lower, upper].

        Once ``||K W - I||`` certifies the projector, D has P's nonzero
        spectrum (up to the square of that defect) and sigma n0 times.  If
        also ``2 ||P Q||_F <= t`` (Q an orthonormal basis of range(W): n0
        eigenvalues of P in [-t, t], by Kahan) and D factors at the shifted
        lower bound ``a`` (below sigma) or at t, the zero count is n0 and the
        factor at ``a`` is the lower verdict; otherwise both come from P's
        spectrum.  The upper verdict is a factor of D above sigma, or of P."""
        low_end = 0.0 if lower is None else lower
        high_end = 3.0 * max(low_end, 1.0) if upper is None else upper
        sigma = (1.0 if low_end <= 1.0 <= high_end
                 else 0.5 * (low_end + high_end))
        M = self._hold(True, sigma)
        n, W, K = M.n, self.W, self.K
        P = partial(M.apply, deflated=False)
        exact = self.projector_defect <= PROJECTOR_TOL
        top = _highest(M, sigma if exact else np.inf)
        t = ZERO_TOL_FACTOR * max(top[0], 0.0)
        s = -np.inf if lower is None else _shift("lower", lower)
        a = max(s, t)
        factored = ("chol", a, 1.0, True)     # D's factor at a, when held
        if (exact and 2 * _block_norm(P, np.linalg.qr(W)[0]) <= t
                and (M.factors(a, keep=True)
                     or (sigma > a and M.factors(t, keep=True)))):
            # the n0 zeros, the rest above t, and above a iff D factors there
            negative, low, above = 0, self.n0, M.held == factored
        else:
            lam = M.eigenvalues(deflated=False)
            negative, low = int(np.sum(lam < -t)), int(np.sum(lam <= t))
            above = np.all(lam[abs(lam) > t] >= s)
        if lower is not None and M.held == factored:
            bottom = _lowest(M, a, P, lambda v: v - W @ (K @ v))[:2]
        elif negative or low < n:
            bottom = _rayleigh(P, M.pair(0 if negative else low, False))
        else:
            bottom = (np.nan, np.nan)       # P has no nonzero eigenvalue
        b = np.inf if upper is None else _shift("upper", upper)
        return SpectrumReport(
            low - negative, bottom[0], top[0], bottom[1], top[1], lower, upper,
            lower is not None and bool(above), upper is not None and (
                (exact and sigma < b and M.factors(b, -1.0))
                or M.factors(b, -1.0, deflated=False)))


def projected_spectrum(op: PreconditionedOperator, congruence: Congruence = None,
                       lower=None, upper=None) -> SpectrumReport:
    """Extremes of H A Pi with its zero block split off, and the verdicts
    of the bounds ``lower`` and ``upper`` on them."""
    return (congruence or Congruence(op)).spectrum("projected", lower, upper)


def preconditioned_spectrum(op: PreconditionedOperator, mode: str,
                            congruence: Congruence = None, lower=None,
                            upper=None) -> SpectrumReport:
    """Extremes of H_hyb A, H_ad A, or the one-level H A (all spd), and the
    verdicts of the bounds ``lower`` and ``upper`` on them."""
    check_method(op.local_set.variant, mode)
    return (congruence or Congruence(op)).spectrum(mode, lower, upper)


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

def check_projected_bounds(report: SpectrumReport, n0: int,
                           label: str = "projected"):
    """Zero multiplicity must equal dim(V0); nonzero spectrum inside the
    report's bounds."""
    return [BoundCheck.equal(f"{label}.zero_multiplicity", float(n0),
                             float(report.zero_multiplicity)),
            *check_interval(report, label)]


def check_interval(report: SpectrumReport, label: str):
    """Each bound the report was given on its extreme, with its verdict."""
    checks = []
    if report.lower is not None:
        checks.append(BoundCheck.lower(
            f"{label}.lambda_min", report.lower, report.lambda_min_nonzero,
            report.lower_certified, report.lambda_min_error))
    if report.upper is not None:
        checks.append(BoundCheck.upper(
            f"{label}.lambda_max", report.upper, report.lambda_max,
            report.upper_certified, report.lambda_max_error))
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
    is consumed: symmetrized in place, then factored in place for
    ``one_level.spd``, which a Cholesky factor of H certifies.
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
        # become (H_ij + H_ji) * 0.5, as in (H + H^T) * 0.5, in panels of
        # a quarter PANEL rows, so the temporary S stays small
        for i in range(0, n, PANEL // 4):
            S = H[i:i + PANEL // 4, i:] + H[i:, i:i + PANEL // 4].T
            S *= 0.5
            H[i:i + PANEL // 4, i:] = S
            H[i:, i:i + PANEL // 4] = S.T
        H = _Dense(H.T)
        lam, error, certified = _lowest(H, 0.0, H.apply)
        checks.append(BoundCheck.lower("one_level.spd", 0.0, lam, certified,
                                       error))

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
