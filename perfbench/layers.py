"""Which geneo names the traced run wraps, and the per-layer metrics.

Every public entry point of a layer is wrapped where it is defined and
wherever ``geneo``, ``geneo.cli``, ``geneo.coarse``, ``geneo.schwarz`` or
``geneo.oracle`` holds a copy imported by name; methods are wrapped on
their class, so the built operator, local-solver set and coarse space are
covered.  A span is named ``<layer>/<qualified name>``.  Helpers that are
not wrapped count towards the self time of the wrapped caller.

The untraced run wraps only ``pcg`` and ``ppcg`` (``KRYLOV_ENTRIES``): entering
the Krylov solver is the phase boundary that ends ``setup_s``.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict

SCANNED = ("geneo", "geneo.cli", "geneo.coarse", "geneo.schwarz", "geneo.oracle")

KRYLOV_ENTRIES = ("geneo.krylov:pcg", "geneo.krylov:ppcg")

LAYERS = {
    "elasticity": (
        "geneo.elasticity:build_mesh", "geneo.elasticity:young_field",
        "geneo.elasticity:assemble", "geneo.elasticity:assemble_local_neumann"),
    "partitioning": (
        "geneo.partitioning:partition_elements",
        "geneo.partitioning:build_restrictions",
        "geneo.partitioning:pou_matrices", "geneo.partitioning:save_partition"),
    "linalg.gen_eig": ("geneo.linalg:gen_eig",),
    "linalg.pivoted_cholesky": ("geneo.linalg:pivoted_cholesky",),
    "linalg.incomplete_cholesky0": ("geneo.linalg:incomplete_cholesky0",),
    "linalg.orthonormalize_columns": ("geneo.linalg:orthonormalize_columns",),
    "linalg.orthonormal_complement": ("geneo.linalg:orthonormal_complement",),
    "coarse.sharp": ("geneo.coarse:coarse_sharp",),
    "coarse.flat": ("geneo.coarse:coarse_flat", "geneo.coarse:coarse_flat_prime"),
    "coarse.assemble": (
        "geneo.coarse:build_Ms", "geneo.coarse:build_coarse_space",
        "geneo.coarse:assemble_coarse", "geneo.schwarz:CoarseSpace.__init__"),
    "schwarz.build_local_solvers": (
        "geneo.schwarz:build_local_solvers",
        "geneo.schwarz:local_dirichlet_matrices"),
    "schwarz.operator_init": ("geneo.schwarz:PreconditionedOperator.__init__",),
    "schwarz.coloring": (
        "geneo.schwarz:coloring_constant", "geneo.schwarz:color_subdomains",
        "geneo.schwarz:interaction_graph"),
    "schwarz.apply_one_level": ("geneo.schwarz:PreconditionedOperator.apply_one_level",),
    "schwarz.apply_local": ("geneo.schwarz:LocalSolverSet.apply_local",),
    # the projector, its transpose, the coarse component and the two-level
    # combinations built from them
    "schwarz.coarse_ops": (
        "geneo.schwarz:CoarseSpace.solve", "geneo.schwarz:CoarseSpace.coarse_apply",
        "geneo.schwarz:CoarseSpace.project", "geneo.schwarz:CoarseSpace.project_transpose",
        "geneo.schwarz:PreconditionedOperator.apply_projector",
        "geneo.schwarz:PreconditionedOperator.apply_projector_transpose",
        "geneo.schwarz:PreconditionedOperator.coarse_component",
        "geneo.schwarz:PreconditionedOperator.apply_hybrid",
        "geneo.schwarz:PreconditionedOperator.apply_additive",
        "geneo.schwarz:PreconditionedOperator.apply"),
    "krylov": KRYLOV_ENTRIES + ("geneo.krylov:ritz_bounds",),
    "oracle.dense_operator": ("geneo.oracle:dense_operator",),
    "oracle.spectrum": (
        "geneo.oracle:projected_spectrum", "geneo.oracle:preconditioned_spectrum"),
    "oracle.audit": (
        "geneo.oracle:audit_assumptions", "geneo.oracle:verify_coloring",
        "geneo.oracle:check_projected_bounds", "geneo.oracle:check_interval",
        "geneo.oracle:projected_interval", "geneo.oracle:hybrid_interval",
        "geneo.oracle:additive_interval"),
    "oracle.splitting": (
        "geneo.oracle:check_stable_splitting", "geneo.oracle:check_sharp_estimate",
        "geneo.oracle:xi_projection"),
}

CALL_COUNTED = ("linalg.gen_eig", "schwarz.apply_one_level", "schwarz.apply_local",
                "schwarz.coarse_ops", "oracle.dense_operator")

# Preconditioner applications are the calls the Krylov loop makes into the
# operator: ``apply`` for pcg, ``apply_one_level`` for ppcg.
PRECOND_APPLIES = frozenset(
    f"PreconditionedOperator.{m}"
    for m in ("apply", "apply_hybrid", "apply_additive", "apply_one_level"))

# Computed flop model of one dense ``gen_eig`` of dimension n: Cholesky of
# M_B (n^3/3), two triangular solves with n right-hand sides (2 n^3),
# symmetric eigendecomposition with vectors (9 n^3, Golub & Van Loan) and
# the back-transform (n^3).
GEN_EIG_FLOPS_PER_N3 = 1.0 / 3.0 + 2.0 + 9.0 + 1.0


def _count_gen_eig(tracer, fn, args, kwargs):
    n = args[0].shape[0]
    tracer.counters["linalg.gen_eig.flops"] += GEN_EIG_FLOPS_PER_N3 * float(n) ** 3


HOOKS = {"geneo.linalg:gen_eig": _count_gen_eig}


def span_name(layer: str, target: str) -> str:
    return f"{layer}/{target.split(':', 1)[1]}"


def instrument(tracer, layers: dict) -> list[str]:
    """Wrap every target of ``layers`` (layer -> targets) on ``tracer``.

    Returns the targets that no longer exist in the library; they are left
    out rather than failing the run.
    """
    scanned = [importlib.import_module(m) for m in SCANNED]
    missing = []
    for layer, targets in layers.items():
        for target in targets:
            module_name, qualname = target.split(":", 1)
            module = importlib.import_module(module_name)
            name = span_name(layer, target)
            hook = HOOKS.get(target)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in owner.__dict__:
                    missing.append(target)
                    continue
                tracer.patch(owner, attr, name, hook)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(target)
                continue
            for holder in [module] + [m for m in scanned if m is not module]:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        tracer.patch(holder, key, name, hook)
    return missing


def krylov_spans(tracer) -> list[int]:
    """Indices of the solver entry spans (``pcg``/``ppcg``), in call order."""
    entries = {span_name("krylov", t) for t in KRYLOV_ENTRIES}
    return [i for i, n in enumerate(tracer.names) if n in entries]


def layer_metrics(tracer, root: int) -> dict:
    """Per-layer self times and counts of one traced pass rooted at ``root``."""
    selfs = tracer.self_times()
    layer_of = [n.split("/", 1)[0] for n in tracer.names]
    self_s = defaultdict(float)
    calls = Counter()
    for layer, t in zip(layer_of, selfs):
        self_s[layer] += t
        calls[layer] += 1
    out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    out.update({f"{layer}.calls": (calls[layer], "count") for layer in CALL_COUNTED})
    out["linalg.gen_eig.flops"] = (tracer.counters["linalg.gen_eig.flops"], "flop")

    entries = set(krylov_spans(tracer))
    out["krylov.precond_applies"] = (sum(
        1 for i, p in enumerate(tracer.parents)
        if p in entries and tracer.names[i].split("/", 1)[1] in PRECOND_APPLIES),
        "count")

    def in_oracle(i):
        return i >= 0 and layer_of[i].startswith("oracle.")

    out["oracle.verify_s"] = (sum(
        tracer.duration(i) for i in range(len(tracer.names))
        if in_oracle(i) and not in_oracle(tracer.parents[i])), "s")
    out["trace.uncovered_s"] = (selfs[root], "s")
    return out
