"""Preconditioned and projected-preconditioned conjugate gradients.

Both solvers start from zero, track the A-norm error against a reference
solution (the fair-comparison stopping rule) or fall back to the
preconditioned-residual criterion, and accumulate the Lanczos tridiagonal
from the CG scalars for extreme-Ritz condition estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, DimensionMismatch, NonFiniteValue


@dataclass(frozen=True)
class KrylovConfig:
    max_iterations: int = 100
    rel_error_tol: float = 1e-9
    track_error: bool = True        # A-norm error criterion; needs x_ref
    reorthogonalize: bool = False   # full reorthogonalization of residuals

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.rel_error_tol < np.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.rel_error_tol}")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    criterion: str
    a_norm_errors: np.ndarray
    residual_norms: np.ndarray
    lanczos_alpha: np.ndarray
    lanczos_beta: np.ndarray
    ritz_min: float
    ritz_max: float
    kappa_estimate: float
    final_error: float
    solution: np.ndarray
    projection_drift: float = 0.0


def ritz_bounds(report: SolveReport):
    """Extreme Ritz values and their ratio from the recorded CG scalars."""
    alphas = np.asarray(report.lanczos_alpha)
    betas = np.asarray(report.lanczos_beta)
    m = alphas.shape[0]
    if m == 0:
        return (np.nan, np.nan, np.nan)
    diag = 1.0 / alphas
    diag[1:] += betas[:m - 1] / alphas[:m - 1]
    off = np.sqrt(betas[:m - 1]) / alphas[:m - 1]
    if m == 1:
        vals = diag
    else:
        vals = sla.eigvalsh_tridiagonal(diag, off)
    lo, hi = float(vals[0]), float(vals[-1])
    return (lo, hi, hi / lo)


class _Tracker:
    """Stopping rule and error/residual history of one solve."""

    def __init__(self, A, cfg, x_ref):
        self.A = A
        self.cfg = cfg
        self.x_ref = x_ref
        if cfg.track_error:
            if x_ref is None:
                raise ConfigError("error tracking requires a reference solution")
            self.ref_norm = float(np.sqrt(x_ref @ (A @ x_ref)))
            self.criterion = "a_norm_error"
        else:
            self.ref_norm = None
            self.criterion = "preconditioned_residual"
        self.a_norm_errors = []
        self.residual_norms = []
        self.res0 = None

    def error(self, x) -> float:
        e = x - self.x_ref
        return float(np.sqrt(max(e @ (self.A @ e), 0.0)))

    def record(self, x, r) -> None:
        self.residual_norms.append(float(np.linalg.norm(r)))
        if self.cfg.track_error:
            self.a_norm_errors.append(self.error(x))

    def converged(self, x, rz) -> bool:
        if self.cfg.track_error:
            if self.ref_norm == 0.0:
                return self.error(x) == 0.0
            return self.a_norm_errors[-1] <= self.cfg.rel_error_tol * self.ref_norm
        return np.sqrt(max(rz, 0.0)) <= self.cfg.rel_error_tol * self.res0

    def final_error(self, x) -> float:
        if not self.cfg.track_error:
            return float("nan")
        if self.ref_norm == 0.0:
            return self.error(x)
        return self.error(x) / self.ref_norm


def _report(tracker, x, iters, converged, alphas, betas, drift=0.0) -> SolveReport:
    rep = SolveReport(
        iterations=iters,
        converged=converged,
        criterion=tracker.criterion,
        a_norm_errors=np.asarray(tracker.a_norm_errors),
        residual_norms=np.asarray(tracker.residual_norms),
        lanczos_alpha=np.asarray(alphas),
        lanczos_beta=np.asarray(betas),
        ritz_min=np.nan, ritz_max=np.nan, kappa_estimate=np.nan,
        final_error=tracker.final_error(x),
        solution=x,
        projection_drift=drift,
    )
    rep.ritz_min, rep.ritz_max, rep.kappa_estimate = ritz_bounds(rep)
    return rep


def _finite_rz(r, z, it) -> float:
    rz = float(r @ z)
    if not np.isfinite(rz):
        raise NonFiniteValue(f"r.z = {rz} at iteration {it}")
    return rz


def _cg(A, b, precondition, cfg, x_ref, start=None, project=None,
        drift_energy=None):
    """The CG loop behind both solvers.

    Solves ``A x = b`` as ``x = x0 + y``: ``x0 = start(b)`` (zero without
    ``start``) and ``y`` comes from CG started at zero on the residual
    ``b - A x0``.  ``project`` is applied to every residual.  With
    ``drift_energy`` (``A y`` to the squared A-norm of ``y``'s part outside
    range(Pi)) that A-norm is tracked relative to the largest iterate.  Under
    the preconditioned-residual criterion a start residual at or below
    ``rel_error_tol * ||b||`` is converged.  A non-finite ``r . z``
    raises :class:`NonFiniteValue` (the factor applies do not scan their
    inputs, so a NaN would otherwise run on to the iteration cap).
    """
    n = A.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(f"rhs of length {b.shape[0]} against n = {n}")
    tracker = _Tracker(A, cfg, x_ref)
    x0 = np.zeros(n) if start is None else start(b)
    y = np.zeros(n)
    r = b - A @ x0
    if project is not None:
        r = project(r)
    tracker.record(x0, r)
    alphas, betas = [], []
    done = (tracker.converged(x0, 0.0) if cfg.track_error
            else np.linalg.norm(r) <= cfg.rel_error_tol * np.linalg.norm(b))
    if done or np.linalg.norm(r) <= 1e-300:
        return _report(tracker, x0, 0, True, alphas, betas)

    hist_r, hist_z, hist_rho = [], [], []
    z = precondition(r)
    rz = _finite_rz(r, z, 0)
    tracker.res0 = np.sqrt(max(rz, 0.0))
    p = z.copy()
    converged = False
    it = 0
    drift_abs = 0.0
    ynorm_max = 0.0
    while it < cfg.max_iterations:
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        y = y + alpha * p
        r = r - alpha * Ap
        if project is not None:
            r = project(r)
        if cfg.reorthogonalize and hist_r:
            for _ in range(2):
                for rj, zj, rhoj in zip(hist_r, hist_z, hist_rho):
                    r -= ((zj @ r) / rhoj) * rj
        if cfg.reorthogonalize:
            hist_r.append(r.copy())
        z = precondition(r)
        rz_new = _finite_rz(r, z, it + 1)
        if cfg.reorthogonalize:
            hist_z.append(z.copy())
            hist_rho.append(rz_new)
        beta = rz_new / rz
        alphas.append(alpha)
        betas.append(beta)
        p = z + beta * p
        rz = rz_new
        it += 1
        if drift_energy is not None:
            # kernel pollution of the iterate, measured in the A-norm (the
            # projector's geometry); A y serves both norms
            Ay = A @ y
            drift_abs = max(drift_abs, np.sqrt(max(drift_energy(Ay), 0.0)))
            ynorm_max = max(ynorm_max, np.sqrt(max(y @ Ay, 0.0)))
        x = x0 + y
        tracker.record(x, r)
        if tracker.converged(x, rz):
            converged = True
            break
    drift = drift_abs / ynorm_max if ynorm_max > 0.0 else 0.0
    return _report(tracker, x0 + y, it, converged, alphas, betas, drift)


def pcg(A, b, precondition, cfg: KrylovConfig = KrylovConfig(), x_ref=None):
    """Preconditioned CG from a zero initial guess.

    ``precondition`` is a callable applying the spd preconditioner.  Returns
    a :class:`SolveReport`; a run that hits the iteration cap comes back with
    ``converged=False`` and the final relative error filled in.
    """
    return _cg(A, b, precondition, cfg, x_ref)


def ppcg(A, b, op, cfg: KrylovConfig = KrylovConfig(), x_ref=None):
    """Projected (deflated) preconditioned CG.

    The coarse component of the solution is computed exactly up front, then
    CG runs on the A-orthogonal complement of the coarse space: residuals
    are projected with Pi^T and preconditioned residuals with Pi every
    iteration so the iterates stay in range(Pi).  ``op`` is a projected-mode
    operator: ``op.apply`` is Pi H, and ``apply_projector_transpose``,
    ``coarse_component`` and ``op.coarse.coarse_energy`` are used too.
    ``projection_drift`` is the largest ``||(I - Pi) y||_A`` over the
    largest ``||y||_A``, its square taken as ``c^T E^{-1} c`` with
    ``c = Z^T A y`` on the coarse factor (no projection, no extra A product).
    Any other mode raises :class:`ConfigError`.
    """
    if op.mode != "projected":
        raise ConfigError(f"ppcg needs a projected operator, got {op.mode!r}")
    return _cg(A, b, op.apply, cfg, x_ref, start=op.coarse_component,
               project=op.apply_projector_transpose,
               drift_energy=op.coarse.coarse_energy)
