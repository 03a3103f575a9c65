"""The benchmark's workloads: what one pass of each runs and checks.

``paper-is-hybrid``
    The paper's full-scale problem (84x42 mesh, 8 ``strips_y`` subdomains,
    hard layers) with its costliest variant: IC(0) local solvers, both
    thresholds (tau_sharp=0.5, tau_flat=10), hybrid combination, k-scaling,
    A-norm error stop at 1e-9, run through ``geneo.cli.run``.  Two
    full-spectrum dense pencils per subdomain make the coarse build
    dominate, so it is where a faster eigensolve or factorization shows.
``multiload-nn-projected``
    The same mesh, partition and field with weighted-Neumann local solvers
    (tau_sharp=0.5) in projected mode, through the library API: the
    preconditioner is built once and then solves ``LOADS`` seeded
    standard-normal loads (preconditioned-residual stop at 1e-8).  Reusing
    the preconditioner gives the opposite split: the pseudo-inverse applies
    and the dense coarse projector (n0=390) carry the run, the eigensolve is
    a small share.  It is the only workload whose inputs depend on the seed.
``desk-oracle``
    The desk-scale verifier run (40x20 mesh, 4 ``rcb`` subdomains, hard
    layers, ``is`` variant, additive, ``oracle=True``, n=1,680) through
    ``geneo.cli.run``.  The brute-force bound checks take almost all of it
    and none of the other two workloads.

The 168x84, N=32 weak-scale case of the roadmap is left out: it loads the
same layers as ``paper-is-hybrid`` at 26 s a pass.

A pass builds everything from scratch.  Its correctness gate counts every
operation (one Krylov solve or one oracle bound check) and every failed one;
a ``GeneoError`` counts as a failed operation instead of ending the run.
"""

from __future__ import annotations

import csv
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

import layers

LOADS = 40                  # the p75 of one pass's solves has ten samples above it
LOAD_ERROR_TOL = 1e-6       # relative A-norm error against a direct solve


@dataclass
class PassResult:
    """Timings and outcome of one pass; ``total_s`` is ``None`` when it failed.

    ``setup_s`` holds one sample per preconditioner build of the pass.
    ``peak_rss_mb`` is read before the extra set-up samples, so it covers one
    build and its solves.
    """

    total_s: float | None = None
    setup_s: list = field(default_factory=list)
    iterations: int = 0
    n0: int = 0
    kappa: float = float("nan")
    attempted: int = 0
    failed: int = 0
    selected_ratio: float = float("nan")
    kept_ratio: float = float("nan")
    checks: int = 0
    checks_failed: int = 0
    peak_rss_mb: float = float("nan")


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_time(tracer, root: int) -> float:
    """Time from the start of span ``root`` until its first Krylov solve."""
    solves = [i for i in layers.krylov_spans(tracer)
              if tracer.starts[root] <= tracer.starts[i] <= tracer.ends[root]]
    if not solves:
        raise RuntimeError("the pass entered no Krylov solver")
    return tracer.starts[solves[0]] - tracer.starts[root]


class CliWorkload:
    """A workload that is one ``geneo.cli.run`` of a fixed configuration.

    With ``setup_repeats`` a pass adds that many runs of the same
    configuration with the oracle off: their set-up is the same code on the
    same inputs, so they are more samples of ``setup_s``, outside
    ``total_s``.
    """

    def __init__(self, name: str, fields: dict, toy: dict, setup_repeats: int = 0):
        self.name = name
        self.fields = fields
        self.toy_fields = {**fields, **toy}
        self.setup_repeats = setup_repeats

    def toy(self) -> "CliWorkload":
        return CliWorkload(self.name, self.toy_fields, {}, self.setup_repeats)

    def prepare(self, seed: int):
        return None

    def run_pass(self, tracer, inputs, workdir: Path, repeats: bool = True) -> PassResult:
        result = PassResult()
        root = self._run(tracer, "pass", self.fields, workdir, result)
        if root is not None:
            result.total_s = tracer.duration(root)
            result.peak_rss_mb = _peak_rss_mb()
        for _ in range(self.setup_repeats if repeats else 0):
            plain = PassResult()
            self._run(tracer, "run", dict(self.fields, oracle=False), workdir, plain)
            result.setup_s += plain.setup_s
            result.attempted += plain.attempted
            result.failed += plain.failed
        return result

    @staticmethod
    def _run(tracer, span: str, fields: dict, workdir: Path, result: PassResult):
        """One checked ``cli.run`` under ``span``, recorded into ``result``.

        Returns its span index, or ``None`` after a GeneoError.
        """
        import geneo.cli as cli
        from geneo.errors import GeneoError

        result.attempted = 1
        cfg = cli.ExperimentConfig(output_dir=str(workdir), **fields)
        try:
            with tracer.span(span) as root:
                code, out = cli.run(cfg)
        except GeneoError:
            result.failed = 1
            return None
        finally:
            selected, computed = _eigen_counts(workdir / "eigenvalues.csv")
            shutil.rmtree(workdir, ignore_errors=True)
        result.setup_s.append(_setup_time(tracer, root))

        solve = out["solve"]
        coarse = out["coarse_space"]
        result.iterations = solve["iterations"]
        result.n0 = coarse["n0"]
        result.kappa = solve["kappa_estimate"] or float("nan")
        result.selected_ratio = selected / computed if computed else 0.0
        lifted = sum(coarse["subdomain_contributions"])
        result.kept_ratio = result.n0 / lifted if lifted else 0.0
        bound = out["theory"].get("kappa_bound")
        solve_ok = solve["converged"] and (bound is None or result.kappa <= bound)
        checks = out.get("oracle", [])
        result.checks = len(checks)
        result.checks_failed = sum(not c["satisfied"] for c in checks)
        result.attempted += result.checks
        result.failed = int(not solve_ok) + result.checks_failed
        if code != 0 and result.failed == 0:
            result.failed = 1
        return root


def _eigen_counts(path: Path):
    """(selected, computed) eigenpairs from the run's ``eigenvalues.csv``."""
    if not path.is_file():
        return 0, 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return sum(r["selected"] == "1" for r in rows), len(rows)


@dataclass
class MultiloadInputs:
    loads: np.ndarray
    reference: object           # sparse LU of the global matrix


class MultiloadWorkload:
    """One preconditioner build, then ``loads`` projected solves.

    With ``setup_repeats`` the pass then builds the preconditioner that many
    more times, each one an operation and a sample of ``setup_s`` outside
    ``total_s``.
    """

    name = "multiload-nn-projected"

    def __init__(self, nx=84, ny=42, n_subdomains=8, loads=LOADS, setup_repeats=1):
        self.nx, self.ny, self.n_subdomains = nx, ny, n_subdomains
        self.loads, self.setup_repeats = loads, setup_repeats

    def toy(self) -> "MultiloadWorkload":
        return MultiloadWorkload(nx=16, ny=8, n_subdomains=2, loads=3,
                                 setup_repeats=self.setup_repeats)

    def _problem(self, geneo):
        mesh = geneo.build_mesh(self.nx, self.ny)
        part = geneo.partition_elements(mesh, self.n_subdomains, "strips_y")
        fld = geneo.young_field("with_layers", part, mesh)
        return mesh, part, fld, geneo.assemble(mesh, fld, compute_reference=False)

    def _build(self, geneo):
        """The README quickstart's build, for ``nn`` in projected mode."""
        mesh, part, fld, problem = self._problem(geneo)
        A = problem.A
        neumann = geneo.assemble_local_neumann(mesh, fld, part)
        maps, _ = geneo.build_restrictions(mesh, part, problem.dof_map)
        weights = geneo.pou_matrices(maps, "k_scaling", A=A, neumann=neumann)
        Ms = [geneo.build_Ms(d, As) for d, As in zip(weights, neumann)]
        solvers = geneo.build_local_solvers(A, maps, "nn", weighted_neumann=Ms)
        coarse, records = geneo.build_coarse_space(
            geneo.GenEOConfig(tau_sharp=0.5), A, maps, solvers,
            geneo.schwarz.local_dirichlet_matrices(A, maps), Ms)
        op = geneo.PreconditionedOperator(A, solvers, coarse, mode="projected")
        return A, coarse, records, op

    def prepare(self, seed: int) -> MultiloadInputs:
        import geneo

        problem = self._problem(geneo)[3]
        rng = np.random.default_rng(seed)
        return MultiloadInputs(loads=rng.standard_normal((self.loads, problem.n)),
                               reference=spla.splu(problem.A.tocsc()))

    def run_pass(self, tracer, inputs: MultiloadInputs, workdir: Path,
                 repeats: bool = True) -> PassResult:
        # Names are looked up on the package at call time so that the traced
        # run's wrappers are the ones called.
        import geneo
        import geneo.schwarz
        from geneo.errors import GeneoError

        result = PassResult(attempted=len(inputs.loads))
        reports = []
        try:
            with tracer.span("pass") as root:
                A, coarse, records, op = self._build(geneo)
                kcfg = geneo.KrylovConfig(rel_error_tol=1e-8, track_error=False)
                for b in inputs.loads:
                    try:
                        reports.append(geneo.ppcg(A, b, op, kcfg))
                    except GeneoError:
                        reports.append(None)
        except GeneoError:
            result.failed = result.attempted
            return result
        result.total_s = tracer.duration(root)
        result.peak_rss_mb = _peak_rss_mb()
        result.setup_s.append(_setup_time(tracer, root))
        result.n0 = coarse.n0
        result.selected_ratio = (sum(r.selected for r in records) / len(records)
                                 if records else 0.0)
        lifted = sum(coarse.subdomain_counts)
        result.kept_ratio = coarse.n0 / lifted if lifted else 0.0
        kappas = []
        for b, rep in zip(inputs.loads, reports):
            if rep is None or not rep.converged:
                result.failed += 1
                continue
            x_ref = inputs.reference.solve(b)
            e = rep.solution - x_ref
            err = np.sqrt(e @ (A @ e)) / np.sqrt(x_ref @ (A @ x_ref))
            result.failed += int(not err <= LOAD_ERROR_TOL)
            result.iterations += rep.iterations
            kappas.append(rep.kappa_estimate)
        result.kappa = max(kappas, default=float("nan"))

        # release this build first, so two builds are never held at once
        del A, coarse, records, op, reports
        for _ in range(self.setup_repeats if repeats else 0):
            result.attempted += 1
            try:
                with tracer.span("build") as idx:
                    self._build(geneo)
            except GeneoError:
                result.failed += 1
                continue
            result.setup_s.append(tracer.duration(idx))
        return result


_FULL_SCALE = dict(nx=84, ny=42, n_subdomains=8, partition_method="strips_y",
                   coefficients="with_layers", scaling="k_scaling")

WORKLOADS = {
    "paper-is-hybrid": CliWorkload(
        "paper-is-hybrid",
        dict(_FULL_SCALE, variant="is", mode="hybrid", tau_sharp=0.5,
             tau_flat=10.0, tol=1e-9),
        toy=dict(nx=16, ny=8, n_subdomains=2)),
    "multiload-nn-projected": MultiloadWorkload(),
    "desk-oracle": CliWorkload(
        "desk-oracle",
        dict(nx=40, ny=20, n_subdomains=4, partition_method="rcb",
             coefficients="with_layers", scaling="k_scaling", variant="is",
             mode="additive", tau_sharp=0.5, tau_flat=10.0, oracle=True),
        toy=dict(nx=12, ny=6, n_subdomains=2), setup_repeats=2),
}
