"""geneo benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of ``workloads.WORKLOADS`` against the library sources in
``src/`` of the checkout this file sits in, in this process, so peak memory
is per workload.  Before measuring it runs the workload once at toy size, so
imports and lazy initialisation are not timed.

``--trace 0`` runs passes (one, more while another fits in ``--seconds``)
with only the Krylov entry points wrapped, and prints the end-to-end
metrics: medians over the samples of the run.  ``--trace 1`` runs one
untraced and one traced pass, without the extra samples, and prints the
per-layer metrics of the traced one, with the tracing overhead measured
against the untraced one; its spans are written to ``perfbench/out/``.

The last line of standard output is the result object; the line before it
is the provenance record.  Exit code 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import layers
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS threads are fixed so runs on different machines do the same work;
# one thread also keeps the runs steady next to other load.
BLAS_THREADS = 1
PASS_BUDGET_S = 150.0       # no pass starts that could end past this


def _fix_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loads": getattr(workload, "loads", None),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def run_pass(workload, inputs, tracer, layer_map, repeats=True):
    missing = layers.instrument(tracer, layer_map)
    if missing:
        print(f"perfbench: not in the library, not wrapped: {missing}",
              file=sys.stderr)
    try:
        return workload.run_pass(tracer, inputs, OUT / f"pass-{os.getpid()}",
                                 repeats)
    finally:
        tracer.restore()


def end_to_end(results) -> dict:
    done = [r for r in results if r.total_s is not None]
    if not done:
        return {}
    return {
        "total_s": (statistics.median(r.total_s for r in done), "s"),
        "setup_s": (statistics.median(t for r in done for t in r.setup_s), "s"),
        "iterations": (done[0].iterations, "count"),
        "n0": (done[0].n0, "count"),
        "kappa_est": (max(r.kappa for r in done), "ratio"),
        "peak_rss_mb": (max(r.peak_rss_mb for r in done), "MB"),
    }


def per_layer(untraced, traced, tracer) -> dict:
    if traced.total_s is None or untraced.total_s is None:
        return {}
    root = tracer.names.index("pass")
    out = layers.layer_metrics(tracer, root)
    out["coarse.selected_ratio"] = (traced.selected_ratio, "ratio")
    out["coarse.kept_ratio"] = (traced.kept_ratio, "ratio")
    out["oracle.checks"] = (traced.checks, "count")
    out["oracle.checks_failed"] = (traced.checks_failed, "count")
    out["trace.overhead_frac"] = (
        (traced.total_s - untraced.total_s) / untraced.total_s, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "geneo" / "__init__.py").is_file():
        print(f"perfbench: no geneo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _fix_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS     # imports numpy: after the BLAS setting

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    phases = {"krylov": layers.KRYLOV_ENTRIES}

    toy = workload.toy()
    run_pass(toy, toy.prepare(args.seed), Tracer(), phases)

    inputs = workload.prepare(args.seed)
    results = []
    if args.trace:
        results.append(run_pass(workload, inputs, Tracer(), phases, repeats=False))
        tracer = Tracer()
        results.append(run_pass(workload, inputs, tracer, layers.LAYERS, repeats=False))
        metrics = per_layer(results[0], results[1], tracer)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                    provenance(args, workload))
    else:
        t0 = time.perf_counter()
        while True:
            results.append(run_pass(workload, inputs, Tracer(), phases))
            elapsed = time.perf_counter() - t0
            next_end = elapsed * (len(results) + 1) / len(results)
            if next_end > min(args.seconds, PASS_BUDGET_S):
                break
        metrics = end_to_end(results)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"provenance": provenance(args, workload),
                      "pass_total_s": [r.total_s for r in results],
                      "pass_setup_s": [r.setup_s for r in results]}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
