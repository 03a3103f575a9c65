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
    """Extreme Ritz values and their ratio from the recorded CG scalars; the
    ratio is NaN when the smallest Ritz value is not positive (the scalars
    then no longer describe an spd operator, e.g. after lost orthogonality),
    and all three are NaN when a recorded ``beta``, the last included, is
    negative or not finite (an indefinite preconditioner)."""
    alphas = np.asarray(report.lanczos_alpha)
    betas = np.asarray(report.lanczos_beta)
    m = alphas.shape[0]
    if m == 0 or not np.all(np.isfinite(betas) & (betas >= 0)):
        return (np.nan, np.nan, np.nan)
    diag = 1.0 / alphas
    diag[1:] += betas[:m - 1] / alphas[:m - 1]
    off = np.sqrt(betas[:m - 1]) / alphas[:m - 1]
    vals = sla.eigvalsh_tridiagonal(diag, off)
    lo, hi = float(vals[0]), float(vals[-1])
    return (lo, hi, hi / lo if lo > 0.0 else np.nan)


def _cg(A, b, precondition, cfg, x_ref, start=None, project=None,
        drift_energy=None):
    """The CG loop behind both solvers; one solve's state is its locals.

    Solves ``A x = b`` as ``x = x0 + y``: ``x0 = start(b)`` (zero without
    ``start``) and ``y`` comes from CG started at zero on the residual
    ``b - A x0``.  ``project`` is applied to every residual.  With
    ``drift_energy`` (``A y`` to the squared A-norm of ``y``'s part outside
    range(Pi)) that A-norm is tracked relative to the largest iterate.

    Every iterate is recorded: ``||r||`` always and, under the A-norm
    criterion, ``||x - x_ref||_A``, which stops the loop at
    ``rel_error_tol * ||x_ref||_A``; ``final_error`` is its last value over
    ``||x_ref||_A``.  The preconditioned-residual criterion stops at
    ``sqrt(|r . z|)`` below ``rel_error_tol`` times its start value, and
    takes a start residual at or below ``rel_error_tol * ||b||`` as
    converged.
    With ``reorthogonalize`` each new residual is orthogonalized twice
    against the ``(r, z, r . z)`` triples of the earlier iterations, the
    start residual's included.  A negative ``r . z`` (an indefinite
    preconditioner) ends the solve unconverged under either criterion, once
    the first ``alpha`` and ``beta`` computed from it are recorded (those
    of iteration 1 for the start's).  A non-finite ``r . z`` (the factor
    applies do not scan their inputs, so a NaN would otherwise run on to
    the iteration cap) and a breakdown (``r . z = 0`` or ``p . Ap = 0``, so
    no finite step ``alpha``) raise :class:`NonFiniteValue` with the
    iteration.
    """
    n = A.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(f"rhs of length {b.shape[0]} against n = {n}")
    tol = cfg.rel_error_tol
    if cfg.track_error:
        if x_ref is None:
            raise ConfigError("error tracking requires a reference solution")
        ref_norm = float(np.sqrt(x_ref @ (A @ x_ref)))
    errors, residuals, alphas, betas = [], [], [], []

    def record(x, r):
        """Log ``||r||`` and the A-norm error; True once that error converged."""
        residuals.append(float(np.linalg.norm(r)))
        if not cfg.track_error:
            return False
        e = x - x_ref
        errors.append(float(np.sqrt(max(e @ (A @ e), 0.0))))
        return errors[-1] <= tol * ref_norm

    def report(x, iterations, converged, drift=0.0):
        rep = SolveReport(
            iterations, converged,
            "a_norm_error" if cfg.track_error else "preconditioned_residual",
            np.asarray(errors), np.asarray(residuals), np.asarray(alphas),
            np.asarray(betas), np.nan, np.nan, np.nan,
            errors[-1] / (ref_norm or 1.0) if cfg.track_error else np.nan,
            x, drift)
        rep.ritz_min, rep.ritz_max, rep.kappa_estimate = ritz_bounds(rep)
        return rep

    x0 = np.zeros(n) if start is None else start(b)
    y = np.zeros(n)
    r = b - A @ x0
    if project is not None:
        r = project(r)
    if (record(x0, r) or residuals[0] <= 1e-300 or (
            not cfg.track_error and residuals[0] <= tol * np.linalg.norm(b))):
        return report(x0, 0, True)

    z = precondition(r)
    rz = float(r @ z)
    if not np.isfinite(rz):
        raise NonFiniteValue(f"r.z = {rz} at iteration 0")
    history = [(r, z.copy(), rz)] if cfg.reorthogonalize else []
    res_stop = tol * np.sqrt(abs(rz))
    p = z.copy()
    converged = False
    drift_abs = ynorm_max = 0.0
    for it in range(1, cfg.max_iterations + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        alpha = rz / pAp if rz and pAp else np.nan
        if not np.isfinite(alpha):
            raise NonFiniteValue(f"CG breakdown at iteration {it - 1}: alpha "
                                 f"= r.z / p.Ap = {rz} / {pAp}")
        y = y + alpha * p
        r = r - alpha * Ap
        if project is not None:
            r = project(r)
        for _ in range(2):
            for rj, zj, rhoj in history:
                r -= ((zj @ r) / rhoj) * rj
        z = precondition(r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise NonFiniteValue(f"r.z = {rz_new} at iteration {it}")
        if cfg.reorthogonalize:
            history.append((r, z.copy(), rz_new))
        beta = rz_new / rz
        alphas.append(alpha)
        betas.append(beta)
        p = z + beta * p
        indefinite = min(rz, rz_new) < 0.0
        rz = rz_new
        if drift_energy is not None:
            # kernel pollution of the iterate, measured in the A-norm (the
            # projector's geometry); A y serves both norms
            Ay = A @ y
            drift_abs = max(drift_abs, np.sqrt(max(drift_energy(Ay), 0.0)))
            ynorm_max = max(ynorm_max, np.sqrt(max(y @ Ay, 0.0)))
        if record(x0 + y, r) or indefinite or (
                not cfg.track_error and np.sqrt(abs(rz)) <= res_stop):
            converged = not indefinite
            break
    drift = drift_abs / ynorm_max if ynorm_max > 0.0 else 0.0
    return report(x0 + y, it, converged, drift)


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
