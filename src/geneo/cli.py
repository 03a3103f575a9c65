"""Experiment runner.

Builds a configured elasticity problem, partition, preconditioner, and
coarse space; solves; and emits machine-readable reports: ``report.json``
(scalar results with the theoretical bound next to every observed value),
``convergence.csv`` (per-iteration history), ``eigenvalues.csv`` (the
computed eigenvalues of every subdomain pencil), and ``partition.txt``
(element owners).  The sharp pencils (tilde A_s, R_s A R_s^T) and the flat
pencils (M_s, tilde A_s) are solved only for their selection (below
tau_sharp, below 1/tau_flat, as :func:`geneo.linalg.gen_eig` rules), so
their rows are the selected eigenvalues plus any a cap left out; ``index``
is the position in the pencil's full ascending spectrum.

Single values are checked by the layer that reads them, all before the
first factorization; :meth:`ExperimentConfig.validate` ties fields together
(the partition file, the thresholds of each variant) and leaves which
(variant, mode) pairs are methods to :func:`geneo.schwarz.check_method`.

Exit codes: 0 solved and all enabled bound checks pass, 1 bad
configuration (a :class:`~geneo.errors.ConfigError` from any layer: an
unreadable config or partition file, an output directory that can be
neither written nor created, found before the build), 2 not converged:
the iteration cap, or a negative ``r.z``, 3 a bound check failed, 4 the
library raised another :class:`~geneo.errors.GeneoError` (for example a
kernel outside the coarse space, an IC(0) breakdown, or a CG breakdown,
which raises :class:`~geneo.errors.NonFiniteValue`).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .coarse import GenEOConfig, build_Ms, build_coarse_space
from .elasticity import assemble, assemble_local_neumann, build_mesh, young_field
from .errors import ConfigError, GeneoError
from .krylov import KrylovConfig, pcg, ppcg
from .partitioning import (
    SCALINGS,
    build_restrictions,
    load_partition,
    partition_elements,
    pou_matrices,
    save_partition,
)
from .schwarz import (
    MODES,
    VARIANTS,
    PreconditionedOperator,
    build_local_solvers,
    check_method,
    coloring_constant,
)

PARTITION_METHODS = ("strips", "strips_y", "rcb", "file")


@dataclass
class ExperimentConfig:
    nx: int = 84
    ny: int = 42
    coefficients: str = "no_layers"        # no_layers | with_layers
    nu: float = 0.4
    n_subdomains: int = 8
    partition_method: str = "rcb"
    partition_file: str | None = None
    variant: str = "as"                    # as | nn | is
    scaling: str = "k_scaling"             # multiplicity | k_scaling
    mode: str = "hybrid"
    tau_sharp: float | None = None
    tau_flat: float | None = None
    max_coarse_vectors: int | None = None  # per subdomain and selection
    max_iterations: int = 100
    tol: float = 1e-9
    track_error: bool = True
    reorthogonalize: bool = False
    oracle: bool = False
    output_dir: str = "."

    def validate(self):
        """Cross-field rules; one-level runs also check the coarse options here."""
        def fail(path, msg):
            raise ConfigError(f"{path}: {msg}")

        if self.partition_method not in PARTITION_METHODS:
            fail("partition_method", f"unknown method {self.partition_method!r}")
        if self.partition_method == "file" and not self.partition_file:
            fail("partition_file", "required when partition_method is 'file'")
        check_method(self.variant, self.mode)
        if self.mode == "one_level":
            if self.tau_sharp is not None or self.tau_flat is not None:
                fail("tau_sharp/tau_flat", "one_level mode takes no thresholds")
            if self.max_coarse_vectors is not None and self.max_coarse_vectors < 0:
                fail("max_coarse_vectors", "must be nonnegative")
        elif self.variant == "as":
            if self.tau_flat is None:
                fail("tau_flat", "variant 'as' needs tau_flat")
            if self.tau_sharp is not None:
                fail("tau_sharp", "variant 'as' has stability constant 1; "
                     "tau_sharp does not apply")
        elif self.variant == "nn":
            if self.tau_sharp is None:
                fail("tau_sharp", "variant 'nn' needs tau_sharp")
            if self.tau_flat is not None:
                fail("tau_flat", "variant 'nn' already bounds the low end; "
                     "tau_flat does not apply")
        elif self.tau_sharp is None or self.tau_flat is None:
            fail("tau_sharp/tau_flat", "variant 'is' needs both thresholds")
        return self


def _theory_section(cfg, ncolor):
    theory = {"coloring_constant": ncolor, "n_prime": 1.0}
    if cfg.mode == "one_level":
        if cfg.variant == "as":
            theory["lambda_max_bound"] = float(ncolor)
        return theory
    lo, up = oracle_mod.projected_interval(cfg.variant, cfg.tau_sharp,
                                           cfg.tau_flat, ncolor)
    theory["projected_interval"] = [lo, up]
    theory["hybrid_interval"] = list(oracle_mod.hybrid_interval(lo, up))
    if cfg.variant in ("as", "is"):
        alo, aup = oracle_mod.additive_interval(cfg.variant, cfg.tau_sharp,
                                                cfg.tau_flat, ncolor)
        theory["additive_interval"] = [alo, aup]
    interval = theory.get(f"{cfg.mode}_interval")
    if interval and interval[1] is not None:
        theory["kappa_bound"] = interval[1] / interval[0]
    return theory


def run(cfg: ExperimentConfig) -> tuple[int, dict]:
    cfg.validate()
    kcfg = KrylovConfig(max_iterations=cfg.max_iterations, rel_error_tol=cfg.tol,
                        track_error=cfg.track_error,
                        reorthogonalize=cfg.reorthogonalize)
    geneo_cfg = None if cfg.mode == "one_level" else GenEOConfig(
        tau_sharp=cfg.tau_sharp, tau_flat=cfg.tau_flat,
        max_vectors_per_subdomain=cfg.max_coarse_vectors)
    outdir = _output_dir(cfg.output_dir)
    timings = {}
    t_all = time.perf_counter()

    t0 = time.perf_counter()
    mesh = build_mesh(cfg.nx, cfg.ny)
    if cfg.partition_method == "file":
        part = load_partition(cfg.partition_file, mesh.n_elements)
    else:
        part = partition_elements(mesh, cfg.n_subdomains, cfg.partition_method)
    field = young_field(cfg.coefficients, part, mesh, nu=cfg.nu)
    problem = assemble(mesh, field, compute_reference=cfg.track_error)
    neumann = assemble_local_neumann(mesh, field, part)
    restrictions, n_gamma = build_restrictions(mesh, part, problem.dof_map)
    ncolor = coloring_constant(problem.A, restrictions)
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    weights = pou_matrices(restrictions, cfg.scaling, A=problem.A,
                           neumann=neumann)
    Ms_list = [build_Ms(d, As) for d, As in zip(weights, neumann)]
    local_set = build_local_solvers(problem.A, restrictions, cfg.variant,
                                    weighted_neumann=Ms_list)
    timings["local_solvers"] = time.perf_counter() - t0

    records = []
    coarse = None
    if geneo_cfg is not None:
        t0 = time.perf_counter()
        coarse, records = build_coarse_space(
            geneo_cfg, problem.A, restrictions, local_set, local_set.dirichlet,
            Ms_list)
        timings["coarse_space"] = time.perf_counter() - t0

    op = PreconditionedOperator(problem.A, local_set, coarse, mode=cfg.mode)
    t0 = time.perf_counter()
    if cfg.mode == "projected":
        report = ppcg(problem.A, problem.b, op, kcfg,
                      x_ref=problem.reference_solution)
    else:
        report = pcg(problem.A, problem.b, op.apply, kcfg,
                     x_ref=problem.reference_solution)
    timings["solve"] = time.perf_counter() - t0

    theory = _theory_section(cfg, ncolor)
    out = {
        "config": dataclasses.asdict(cfg),
        "problem": {
            "n": problem.n,
            "n_elements": mesh.n_elements,
            "n_vertices": mesh.n_vertices,
        },
        "partition": {
            "n_subdomains": part.n_subdomains,
            "method": cfg.partition_method,
            "n_gamma": n_gamma,
            "coloring_constant": ncolor,
        },
        "coarse_space": {
            "n0": op.coarse.n0,
            "min_contribution": int(min(op.coarse.subdomain_counts, default=0)),
            "max_contribution": int(max(op.coarse.subdomain_counts, default=0)),
            "subdomain_contributions": [int(c) for c in op.coarse.subdomain_counts],
            "dropped_columns": op.coarse.dropped_columns,
            "min_pivot": op.coarse.min_pivot,
        },
        "solve": {
            "iterations": report.iterations,
            "converged": report.converged,
            "criterion": report.criterion,
            "final_error": _json_float(report.final_error),
            "ritz_min": _json_float(report.ritz_min),
            "ritz_max": _json_float(report.ritz_max),
            "kappa_estimate": _json_float(report.kappa_estimate),
            "projection_drift": _json_float(report.projection_drift),
        },
        "theory": theory,
    }

    bound_failures = 0
    if cfg.oracle:
        t0 = time.perf_counter()
        checks = _oracle_checks(cfg, op, weights, neumann, Ms_list, theory)
        out["oracle"] = [dataclasses.asdict(c) for c in checks]
        bound_failures = sum(not c.satisfied for c in checks)
        timings["oracle"] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_all
    out["timings"] = timings

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_report(outdir / "report.json", out)
        _write_convergence(outdir / "convergence.csv", report)
        _write_eigenvalues(outdir / "eigenvalues.csv", records)
        save_partition(outdir / "partition.txt", part)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot write {outdir}: {exc}") from exc

    if bound_failures:
        return 3, out
    if not report.converged:
        return 2, out
    return 0, out


def _output_dir(path) -> Path:
    """``path``, once its nearest existing ancestor is a writable directory
    (itself, or where it can be created), so that an unusable output
    directory ends the run before the build; it is created only to write."""
    outdir = Path(path)
    probe = outdir.absolute()
    while not probe.exists():
        probe = probe.parent
    if not (probe.is_dir() and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"output_dir: cannot write {outdir}: {probe} is "
                          "not a writable directory")
    return outdir


def _oracle_checks(cfg, op, weights, neumann, Ms_list, theory):
    # the sampled checks and their dense subdomain pencils run before the
    # congruence's n x n buffer exists; the report lists the audit first
    two_level = cfg.mode != "one_level"
    sampled = [oracle_mod.verify_coloring(op.A, op.local_set.restrictions)]
    if two_level and cfg.tau_flat is not None:
        sampled.extend(oracle_mod.check_stable_splitting(
            op, weights, Ms_list, cfg.tau_flat))
    if two_level and cfg.tau_sharp is not None:
        sampled.append(oracle_mod.check_sharp_estimate(
            op, omega=1.0 / cfg.tau_sharp))
    congruence = oracle_mod.Congruence(op) if op.n <= oracle_mod.DENSE_CAP else None
    # the audit decides one_level.spd on G in the buffer and leaves its
    # factor at 0 held; each spectrum rebuilds its operator there
    checks = oracle_mod.audit_assumptions(
        op, weights, neumann, Ms_list, congruence) + sampled
    if congruence is None:
        return checks
    if not two_level:
        if "lambda_max_bound" in theory:
            # its upper check: lower 0 reuses the audit's factor of G at 0
            checks.append(oracle_mod.check_interval(oracle_mod.preconditioned_spectrum(
                op, "one_level", congruence, 0.0, theory["lambda_max_bound"]),
                "one_level")[-1])
        return checks
    # each spectrum decides its own bounds; the projected one leaves the
    # hybrid matrix in the buffer when 1 lies inside its interval
    checks.extend(oracle_mod.check_projected_bounds(oracle_mod.projected_spectrum(
        op, congruence, *theory["projected_interval"]), op.coarse.n0))
    for mode in ["hybrid"] + ["additive"] * (cfg.mode == "additive"):
        checks.extend(oracle_mod.check_interval(oracle_mod.preconditioned_spectrum(
            op, mode, congruence, *theory[f"{mode}_interval"]), mode))
    return checks


def _json_float(x):
    x = float(x)
    return None if not np.isfinite(x) else x


def _write_report(path, out):
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_convergence(path, report):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "a_norm_error", "residual_norm"])
        errs = report.a_norm_errors
        for i, res in enumerate(report.residual_norms):
            err = errs[i] if i < len(errs) else ""
            w.writerow([i, err, res])


def _write_eigenvalues(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subdomain", "pencil", "index", "eigenvalue", "selected"])
        for r in records:
            w.writerow([r.subdomain, r.pencil, r.index,
                        repr(r.eigenvalue), int(r.selected)])


_SCALING_ALIASES = {"mu": "multiplicity", "k": "k_scaling"}

# JSON value types accepted for each name in an ExperimentConfig annotation
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
               "None": type(None)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="geneo",
        description="Two-level Schwarz/GenEO experiment runner")
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--layers", dest="coefficients", action="store_const",
                   const="with_layers", help="add the hard coefficient layers")
    p.add_argument("--no-layers", dest="coefficients", action="store_const",
                   const="no_layers")
    p.add_argument("--nu", type=float)
    p.add_argument("--n", "--n-subdomains", dest="n_subdomains", type=int)
    p.add_argument("--partition", dest="partition_method",
                   choices=PARTITION_METHODS)
    p.add_argument("--partition-file", dest="partition_file")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--scaling", choices=SCALINGS + tuple(_SCALING_ALIASES))
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--tau-sharp", dest="tau_sharp", type=float)
    p.add_argument("--tau-flat", dest="tau_flat", type=float)
    p.add_argument("--max-coarse-vectors", dest="max_coarse_vectors", type=int,
                   help="cap on eigenvectors per subdomain and selection")
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--no-track-error", dest="track_error", action="store_false",
                   default=None,
                   help="stop on the preconditioned residual instead of the "
                        "A-norm error against a direct solve")
    p.add_argument("--reorthogonalize", action="store_true", default=None)
    p.add_argument("--oracle", action="store_true", default=None,
                   help="enable dense bound verification (desk scale only)")
    p.add_argument("--output-dir", dest="output_dir")
    return p


def config_from_args(args) -> ExperimentConfig:
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config: the file must hold one JSON object")
        fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(loaded) - set(fields)
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        for name, value in loaded.items():
            allowed = [_JSON_TYPES[t.strip()] for t in fields[name].split("|")]
            if (isinstance(value, bool) != (bool in allowed)
                    or not isinstance(value, tuple(allowed))):
                raise ConfigError(f"config: {name} must be {fields[name]}, "
                                  f"got {value!r}")
        values.update(loaded)
    for f in dataclasses.fields(ExperimentConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = v
    if "scaling" in values:
        values["scaling"] = _SCALING_ALIASES.get(values["scaling"],
                                                 values["scaling"])
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        code, out = run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except GeneoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    solve = out["solve"]
    print(f"n={out['problem']['n']} n0={out['coarse_space']['n0']} "
          f"N={out['partition']['n_subdomains']} "
          f"coloring={out['partition']['coloring_constant']} "
          f"iterations={solve['iterations']} converged={solve['converged']} "
          f"kappa={solve['kappa_estimate']}")
    if code == 3:
        print("bound check FAILED (see report.json)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
