"""Fast check of the benchmark harness at toy size (a few seconds).

    python3 perfbench/selfcheck.py

Checks the self-time arithmetic on hand-made spans, that the traced run puts
back every name it wraps, and that all three workload paths run end to end
at toy size, untraced and traced, with no failed operation.  The library
API path of ``multiload-nn-projected`` must give the same coarse dimension
as ``geneo.cli.run`` on the same configuration.  It does not replace the
full-size runs of ``run.py``.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def check_self_times():
    # pass [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; then d [7, 9]
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10]))
    with tr.span("pass"):
        with tr.span("a/x"):
            with tr.span("b/y"):
                pass
            with tr.span("b/z"):
                pass
        with tr.span("d/w"):
            pass
    assert tr.parents == [-1, 0, 1, 1, 0], tr.parents
    assert tr.self_times() == [3.0, 2.5, 1.0, 1.5, 2.0], tr.self_times()
    m = layers.layer_metrics(tr, root=0)
    assert m["trace.uncovered_s"] == (3.0, "s")


def check_restore():
    import geneo
    import geneo.cli
    import geneo.linalg
    import geneo.schwarz

    before = (geneo.linalg.gen_eig, geneo.cli.ppcg, geneo.ppcg,
              geneo.schwarz.PreconditionedOperator.__dict__["apply_one_level"])
    tr = Tracer()
    missing = layers.instrument(tr, layers.LAYERS)
    assert not missing, missing
    assert geneo.linalg.gen_eig is not before[0]
    assert geneo.cli.ppcg is not before[1] and geneo.ppcg is not before[2]
    tr.restore()
    after = (geneo.linalg.gen_eig, geneo.cli.ppcg, geneo.ppcg,
             geneo.schwarz.PreconditionedOperator.__dict__["apply_one_level"])
    assert all(a is b for a, b in zip(before, after))


def check_workloads():
    for name, full in WORKLOADS.items():
        wl = full.toy()
        inputs = wl.prepare(seed=1)
        plain = run.run_pass(wl, inputs, Tracer(), {"krylov": layers.KRYLOV_ENTRIES})
        tracer = Tracer()
        traced = run.run_pass(wl, inputs, tracer, layers.LAYERS, repeats=False)
        e2e = run.end_to_end([plain, traced])
        lay = run.per_layer(plain, traced, tracer)
        for r in (plain, traced):
            assert r.attempted >= 1 and r.failed == 0, (name, r)
        assert plain.n0 == traced.n0 and plain.iterations == traced.iterations
        assert set(e2e) == {"total_s", "setup_s", "iterations", "n0", "kappa_est",
                            "peak_rss_mb"}, e2e
        assert lay["krylov.precond_applies"][0] > 0 and lay["krylov.self_s"][0] > 0
        assert lay["linalg.gen_eig.calls"][0] > 0, lay
        covered = sum(v for k, (v, _) in lay.items() if k.endswith(".self_s"))
        total = traced.total_s
        assert abs(covered + lay["trace.uncovered_s"][0] - total) < 1e-9 * max(total, 1)
        print(f"{name}: ok (n0={plain.n0}, iterations={plain.iterations}, "
              f"operations={plain.attempted})")


def check_library_matches_cli():
    import geneo.cli as cli

    wl = WORKLOADS["multiload-nn-projected"].toy()
    lib = run.run_pass(wl, wl.prepare(seed=0), Tracer(), {"krylov": layers.KRYLOV_ENTRIES})
    cfg = cli.ExperimentConfig(
        nx=wl.nx, ny=wl.ny, n_subdomains=wl.n_subdomains,
        partition_method="strips_y", coefficients="with_layers", variant="nn",
        scaling="k_scaling", mode="projected", tau_sharp=0.5,
        output_dir=str(run.OUT / "selfcheck-cli"))
    try:
        _, out = cli.run(cfg)
    finally:
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
    assert lib.n0 == out["coarse_space"]["n0"], (lib.n0, out["coarse_space"]["n0"])


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_self_times()
    check_restore()
    check_workloads()
    check_library_matches_cli()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
