"""Experiment runner: config validation, outputs, determinism, exit codes."""

import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from geneo import elasticity
from geneo.cli import ExperimentConfig, build_parser, config_from_args, main, run
from geneo.errors import ConfigError, UnsupportedVariant
from geneo.schwarz import MODES, VARIANTS

TOY = dict(nx=20, ny=10, n_subdomains=4, partition_method="rcb",
           coefficients="with_layers")


def toy_config(**kw):
    base = dict(TOY)
    base.update(kw)
    return ExperimentConfig(**base)


def _owners(elements):
    """Partition file lines for the given elements, two subdomains."""
    return "".join(f"{e} {e % 2}\n" for e in elements)


THRESHOLDS = {"as": dict(tau_flat=10.0), "nn": dict(tau_sharp=0.5),
              "is": dict(tau_sharp=0.5, tau_flat=10.0)}


def _thresholds(variant, mode):
    return {} if mode == "one_level" else THRESHOLDS[variant]


def _accepted(variant, mode):
    try:
        toy_config(variant=variant, mode=mode,
                   **_thresholds(variant, mode)).validate()
    except ConfigError:
        return False
    return True


ACCEPTED = [(v, m) for v in VARIANTS for m in MODES if _accepted(v, m)]

AS_HYBRID = dict(variant="as", mode="hybrid", tau_flat=10.0)
NN_HYBRID = dict(variant="nn", mode="hybrid", tau_sharp=0.5)
ONE_LEVEL = dict(variant="as", mode="one_level")

# one bad value per case, on an otherwise valid configuration
BAD_VALUES = [
    (AS_HYBRID, dict(nx=0)),
    (AS_HYBRID, dict(ny=0)),
    (AS_HYBRID, dict(coefficients="x")),
    (AS_HYBRID, dict(nu=0.0)),
    (AS_HYBRID, dict(nu=0.5)),
    (AS_HYBRID, dict(n_subdomains=0)),
    (AS_HYBRID, dict(partition_method="x")),
    (AS_HYBRID, dict(variant="x")),
    (AS_HYBRID, dict(scaling="x")),
    (AS_HYBRID, dict(mode="x")),
    (AS_HYBRID, dict(tau_flat=-1.0)),
    (dict(variant="nn", mode="hybrid"), dict(tau_sharp=-1.0)),
    (AS_HYBRID, dict(max_coarse_vectors=-1)),
    (AS_HYBRID, dict(max_iterations=0)),
    (AS_HYBRID, dict(tol=0.0)),
    (ONE_LEVEL, dict(max_coarse_vectors=-1)),
    (ONE_LEVEL, dict(max_iterations=0)),
    (AS_HYBRID, dict(tau_sharp=0.5)),
    (NN_HYBRID, dict(tau_flat=10.0)),
]


class TestValidation:
    @pytest.mark.parametrize(
        "base,bad", BAD_VALUES,
        ids=[f"{b['mode']}-" + ",".join(f"{k}={v!r}" for k, v in bad.items())
             for b, bad in BAD_VALUES])
    def test_rejected_before_factorization(self, base, bad, tmp_path,
                                           monkeypatch):
        from geneo import cli as cli_mod

        def reached(*a, **k):
            raise AssertionError("build_local_solvers reached")

        monkeypatch.setattr(cli_mod, "build_local_solvers", reached)
        with pytest.raises(ConfigError):
            run(toy_config(**{**base, **bad}, output_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_nn_additive_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            toy_config(variant="nn", mode="additive", tau_sharp=0.5).validate()

    @pytest.mark.parametrize("bad,field", [
        (dict(variant="x"), "variant"), (dict(mode="x"), "mode"),
        (dict(variant="nn", mode="additive"), "mode")])
    def test_undefined_method_is_a_value_error(self, bad, field):
        with pytest.raises(UnsupportedVariant, match=f"^{field}: ") as info:
            toy_config(**{**AS_HYBRID, **bad}).validate()
        assert isinstance(info.value, ConfigError)
        assert isinstance(info.value, ValueError)

    def test_variant_threshold_requirements(self):
        with pytest.raises(ConfigError, match="tau_flat"):
            toy_config(variant="as", mode="hybrid", tau_flat=None).validate()
        with pytest.raises(ConfigError, match="tau_sharp"):
            toy_config(variant="nn", mode="hybrid", tau_sharp=None).validate()
        with pytest.raises(ConfigError, match="tau_sharp/tau_flat"):
            toy_config(variant="is", mode="hybrid", tau_sharp=0.5).validate()

    def test_one_level_takes_no_thresholds(self):
        with pytest.raises(ConfigError, match="one_level"):
            toy_config(mode="one_level", tau_flat=10.0).validate()

    def test_partition_file_required(self):
        with pytest.raises(ConfigError, match="partition_file"):
            toy_config(partition_method="file", tau_flat=10.0).validate()

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"not_a_field": 1}))
        args = build_parser().parse_args(["--config", str(cfg)])
        with pytest.raises(ConfigError, match="not_a_field"):
            config_from_args(args)


class TestRun:
    def test_single_subdomain_exact(self, tmp_path):
        code, out = run(toy_config(nx=4, ny=2, n_subdomains=1,
                                   partition_method="strips",
                                   coefficients="no_layers",
                                   mode="one_level", variant="as",
                                   output_dir=str(tmp_path)))
        assert code == 0
        assert out["solve"]["iterations"] == 1
        np.testing.assert_allclose(out["solve"]["kappa_estimate"], 1.0,
                                   rtol=1e-9)

    def test_outputs_written(self, tmp_path):
        code, out = run(toy_config(variant="as", mode="hybrid", tau_flat=10.0,
                                   oracle=True, output_dir=str(tmp_path)))
        assert code == 0
        for name in ("report.json", "convergence.csv", "eigenvalues.csv",
                     "partition.txt"):
            assert (tmp_path / name).exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["coarse_space"]["n0"] == out["coarse_space"]["n0"]
        assert all(c["satisfied"] for c in report["oracle"])
        with open(tmp_path / "convergence.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "a_norm_error", "residual_norm"]
        assert len(rows) == out["solve"]["iterations"] + 2
        with open(tmp_path / "eigenvalues.csv") as fh:
            erows = list(csv.reader(fh))
        assert erows[0] == ["subdomain", "pencil", "index", "eigenvalue",
                            "selected"]
        assert len(erows) > 1

    def test_deterministic_reports(self, tmp_path):
        out1 = run(toy_config(variant="as", mode="hybrid", tau_flat=10.0,
                              output_dir=str(tmp_path / "a")))[1]
        out2 = run(toy_config(variant="as", mode="hybrid", tau_flat=10.0,
                              output_dir=str(tmp_path / "b")))[1]
        r1 = json.loads((tmp_path / "a" / "report.json").read_text())
        r2 = json.loads((tmp_path / "b" / "report.json").read_text())
        r1.pop("timings")
        r2.pop("timings")
        r1["config"].pop("output_dir")
        r2["config"].pop("output_dir")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_forked_windows_same_report_no_child_left(self, tmp_path, workers):
        # two processes solve the windows (one forked child, whatever the
        # machine), one solves them all: the same report and CSV files,
        # and no child outlives the run
        import os

        reports = []
        for count in (1, 2):
            workers(count)
            outdir = tmp_path / str(count)
            code, _ = run(toy_config(variant="is", mode="hybrid", tau_sharp=0.5,
                                     tau_flat=10.0, output_dir=str(outdir)))
            assert code == 0
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            report = json.loads((outdir / "report.json").read_text())
            report.pop("timings")
            report["config"].pop("output_dir")
            reports.append([json.dumps(report, sort_keys=True)] + [
                (outdir / name).read_text() for name in
                ("eigenvalues.csv", "convergence.csv", "partition.txt")])
        assert reports[0] == reports[1]

    def test_coarse_deduplication_reported(self, tmp_path, monkeypatch):
        from geneo import coarse

        def report(name):
            code, _ = run(toy_config(variant="nn", mode="projected",
                                     tau_sharp=0.5,
                                     output_dir=str(tmp_path / name)))
            assert code == 0
            text = (tmp_path / name / "report.json").read_text()
            return json.loads(text)["coarse_space"]

        single = report("single")
        assert single["dropped_columns"] == 0
        assert 1e-10 < single["min_pivot"] <= 1.0
        # every sharp contribution lifted twice: each copy is dropped (the
        # copies are not marked as kernels: two copies of a kernel column
        # are both required, and the coarse build refuses them)
        real = coarse.assemble_coarse

        def doubled(contribs, *args, **kwargs):
            return real(contribs + [dataclasses.replace(c, origins=["copy"] * c.count)
                                    for c in contribs], *args, **kwargs)

        monkeypatch.setattr(coarse, "assemble_coarse", doubled)
        twice = report("twice")
        assert twice["n0"] == single["n0"]
        assert twice["dropped_columns"] == single["n0"] \
            == sum(twice["subdomain_contributions"]) - twice["n0"]
        assert twice["min_pivot"] == pytest.approx(single["min_pivot"], rel=1e-6)
        _, out = run(toy_config(variant="as", mode="one_level",
                                output_dir=str(tmp_path / "one")))
        assert out["coarse_space"]["dropped_columns"] == 0
        assert out["coarse_space"]["min_pivot"] is None

    def test_dirichlet_slices_built_once(self, tmp_path, monkeypatch):
        # the coarse build reuses the slices the local solvers were built
        # from; the spy also replaces any copy of the name in the cli module
        from geneo import cli as cli_mod
        from geneo import schwarz

        calls = []
        real = schwarz.local_dirichlet_matrices

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(schwarz, "local_dirichlet_matrices", counted)
        monkeypatch.setattr(cli_mod, "local_dirichlet_matrices", counted,
                            raising=False)
        code, _ = run(toy_config(variant="is", mode="hybrid", tau_sharp=0.5,
                                 tau_flat=10.0, output_dir=str(tmp_path)))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.usefixtures("one_cpu")     # the spies see every window
    def test_no_Ms_factor_held_past_the_coarse_build(self, tmp_path,
                                                     monkeypatch):
        # the flat selection solves (M_s, tilde A_s) without factoring M_s:
        # the run makes no factor of an M_s at all
        from geneo import cli as cli_mod
        from geneo import linalg, schwarz

        Ms_ids, factored = set(), []
        real_Ms = cli_mod.build_Ms

        def build_Ms(*args):
            M = real_Ms(*args)
            Ms_ids.add(id(M))
            return M

        def spy(real):
            def factor(M, *args, **kwargs):
                factored.append(id(M))
                return real(M, *args, **kwargs)
            return factor

        monkeypatch.setattr(cli_mod, "build_Ms", build_Ms)
        for fn in ("pivoted_cholesky", "dense_pivoted_cholesky"):
            wrapped = spy(getattr(linalg, fn))
            for module in (linalg, schwarz):
                monkeypatch.setattr(module, fn, wrapped)
        code, _ = run(toy_config(variant="is", mode="hybrid", tau_sharp=0.5,
                                 tau_flat=10.0, output_dir=str(tmp_path)))
        assert code == 0
        assert len(Ms_ids) == 4 and factored
        assert not Ms_ids & set(factored)

    def test_iteration_cap_exit_code(self, tmp_path):
        code, out = run(toy_config(variant="as", mode="one_level",
                                   max_iterations=5,
                                   output_dir=str(tmp_path)))
        assert code == 2
        assert not out["solve"]["converged"]

    def test_partition_roundtrip_through_file(self, tmp_path):
        code, _ = run(toy_config(variant="as", mode="hybrid", tau_flat=10.0,
                                 output_dir=str(tmp_path / "first")))
        assert code == 0
        code2, out2 = run(toy_config(
            variant="as", mode="hybrid", tau_flat=10.0,
            partition_method="file",
            partition_file=str(tmp_path / "first" / "partition.txt"),
            output_dir=str(tmp_path / "second")))
        assert code2 == 0
        p1 = (tmp_path / "first" / "partition.txt").read_text()
        p2 = (tmp_path / "second" / "partition.txt").read_text()
        assert p1 == p2

    def test_projected_mode_runs(self, tmp_path):
        code, out = run(toy_config(variant="nn", mode="projected",
                                   tau_sharp=0.5, scaling="multiplicity",
                                   output_dir=str(tmp_path)))
        assert code == 0
        assert out["solve"]["projection_drift"] <= 1e-10

    def test_coarse_vector_cap(self, tmp_path):
        _, full = run(toy_config(variant="as", mode="hybrid", tau_flat=4.0,
                                 output_dir=str(tmp_path / "full")))
        _, capped = run(toy_config(variant="as", mode="hybrid", tau_flat=4.0,
                                   max_coarse_vectors=2,
                                   output_dir=str(tmp_path / "cap")))
        assert capped["coarse_space"]["n0"] < full["coarse_space"]["n0"]
        assert capped["coarse_space"]["max_contribution"] <= 2 + 3

    @pytest.mark.parametrize("variant", ["is", "as"])
    def test_additive_oracle_checks(self, variant, tmp_path):
        # the additive spectrum is verified only in additive mode; inexact
        # local solvers get no additive upper bound
        taus = dict(tau_sharp=0.5) if variant == "is" else {}
        code, _ = run(toy_config(variant=variant, mode="additive",
                                 tau_flat=10.0, oracle=True,
                                 output_dir=str(tmp_path), **taus))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        checks = {c["name"]: c for c in report["oracle"]}
        want = {"additive.lambda_min"}
        if variant == "as":
            want.add("additive.lambda_max")
        assert {n for n in checks if n.startswith("additive.")} == want
        assert all(checks[n]["satisfied"] for n in want)
        upper = report["theory"]["additive_interval"][1]
        assert (upper is None) == (variant == "is")
        split = {n for n in checks if n.startswith("stable_split.")}
        assert split == {"stable_split.identity", "stable_split.reconstruction",
                         "stable_split.energy_constant"}
        assert all(checks[n]["satisfied"] for n in split)

    def test_bound_failure_exit_code(self, tmp_path, monkeypatch):
        from geneo import cli as cli_mod
        from geneo.oracle import BoundCheck

        def failing_audit(*a, **k):
            return [BoundCheck.residual("forced_failure", 0.0, 1.0)]

        monkeypatch.setattr(cli_mod.oracle_mod, "audit_assumptions",
                            failing_audit)
        code, out = run(toy_config(variant="as", mode="hybrid", tau_flat=10.0,
                                   oracle=True, output_dir=str(tmp_path)))
        assert code == 3
        assert any(not c["satisfied"] for c in out["oracle"])


class TestMain:
    def test_cli_flags(self, tmp_path, capsys):
        rc = main(["--nx", "20", "--ny", "10", "--n", "4",
                   "--partition", "rcb", "--layers", "--variant", "as",
                   "--mode", "hybrid", "--scaling", "k", "--tau-flat", "10",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        msg = capsys.readouterr().out
        assert "converged=True" in msg

    @pytest.mark.parametrize("argv,needle", [
        (["--variant", "nn", "--mode", "additive", "--tau-sharp", "0.5"],
         "additive"),
        (["--nx", "2", "--ny", "1", "--n", "5", "--variant", "as",
          "--mode", "one_level"], "5 subdomains for 4 elements"),
        (["--nx", "4", "--ny", "2", "--n", "5", "--partition", "strips",
          "--variant", "as", "--mode", "one_level"], "strips needs N <= 4"),
        (["--variant", "as", "--mode", "hybrid", "--tau-flat", "nan"],
         "tau_flat must be positive and finite, got nan"),
        (["--variant", "as", "--mode", "hybrid", "--tau-flat", "inf"],
         "tau_flat must be positive and finite, got inf"),
        (["--variant", "is", "--mode", "hybrid", "--tau-sharp", "nan",
          "--tau-flat", "10"], "tau_sharp must be positive and finite, got nan"),
        (["--variant", "as", "--mode", "hybrid", "--tau-flat", "10",
          "--tol", "nan"], "tol must be positive and finite, got nan"),
    ], ids=["nn_additive", "more_subdomains_than_elements",
            "more_strips_than_columns", "tau_flat_nan", "tau_flat_inf",
            "tau_sharp_nan", "tol_nan"])
    def test_config_error_exit(self, argv, needle, tmp_path, capsys):
        rc = main(argv + ["--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and needle in err

    def test_library_error_exit(self, tmp_path, monkeypatch, capsys):
        from geneo import cli as cli_mod
        from geneo.errors import BreakdownNonpositivePivot

        def breakdown(*a, **k):
            raise BreakdownNonpositivePivot("pivot -1.000e+00 at step 0")

        monkeypatch.setattr(cli_mod, "build_local_solvers", breakdown)
        rc = main(["--nx", "8", "--ny", "4", "--n", "2", "--variant", "is",
                   "--mode", "one_level", "--output-dir", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "error: BreakdownNonpositivePivot: pivot -1.000e+00" in err

    def test_tiny_tau_flat_exits_without_overflow(self, tmp_path, capsys):
        # 1 / tau_flat = 1e300 times the entries of tilde A_s overflows; the
        # sparse window declines the pencil before forming it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["--nx", "8", "--ny", "4", "--n", "2", "--variant", "as",
                       "--mode", "hybrid", "--tau-flat", "1e-300",
                       "--output-dir", str(tmp_path)])
        assert rc == 4
        assert "error: CoarseIsWholeSpace: " in capsys.readouterr().err

    def test_nan_rhs_exit(self, tmp_path, monkeypatch, capsys):
        from geneo import cli as cli_mod

        real_assemble = cli_mod.assemble

        def nan_load(*a, **k):
            problem = real_assemble(*a, **k)
            problem.b[0] = np.nan
            return problem

        monkeypatch.setattr(cli_mod, "assemble", nan_load)
        rc = main(["--nx", "8", "--ny", "4", "--n", "2", "--variant", "as",
                   "--mode", "hybrid", "--tau-flat", "10",
                   "--output-dir", str(tmp_path)])
        assert rc == 4
        assert "error: NonFiniteValue: " in capsys.readouterr().err

    def test_cg_breakdown_exit(self, tmp_path, capsys):
        # the singular one-level nn operator never meets the A-norm test: the
        # residual underflows until r.z = 0 and p = 0, which used to end in
        # a ZeroDivisionError traceback
        rc = main(["--nx", "8", "--ny", "4", "--n", "2", "--layers",
                   "--variant", "nn", "--mode", "one_level",
                   "--reorthogonalize", "--output-dir", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: NonFiniteValue: ")

    def test_indefinite_stiffness_exit(self, tmp_path, capsys, monkeypatch):
        # an A that is not spd ends in the reference solve's band Cholesky
        stiffness = elasticity.element_stiffness
        monkeypatch.setattr(elasticity, "element_stiffness",
                            lambda mesh, field: -stiffness(mesh, field))
        rc = main(["--nx", "8", "--ny", "4", "--n", "2", "--variant", "as",
                   "--mode", "one_level", "--output-dir", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: IndefiniteMatrix: ")

    @pytest.mark.parametrize("variant,mode", ACCEPTED)
    @pytest.mark.parametrize("track_error", [True, False])
    @pytest.mark.parametrize("reorthogonalize", [False, True])
    def test_every_combination_ends_documented(self, variant, mode,
                                               track_error, reorthogonalize,
                                               tmp_path):
        argv = ["--nx", "8", "--ny", "4", "--n", "2", "--layers",
                "--variant", variant, "--mode", mode,
                "--output-dir", str(tmp_path)]
        for name, tau in _thresholds(variant, mode).items():
            argv += ["--" + name.replace("_", "-"), str(tau)]
        if not track_error:
            argv.append("--no-track-error")
        if reorthogonalize:
            argv.append("--reorthogonalize")
        assert main(argv) in (0, 2, 3, 4)

    @pytest.mark.parametrize("case,content,needle", [
        ("config", None, "No such file"),
        ("config", '{"nx": 8,', "cannot read"),
        ("config", '{"nx": "abc", "ny": 4}', "nx must be int"),
        ("config", '[{"nx": 8}]', "must hold one JSON object"),
        ("partition", None, "No such file"),
        ("partition", "0 0\n1\n", "expected 'element_id owner'"),
        ("partition", _owners(range(64)) + "99 0\n", "line 65 '99 0'"),
        ("partition", _owners(range(63)), "no line for element(s) [63]"),
        ("partition", "0 -1\n" + _owners(range(1, 64)), "line 1 '0 -1'"),
        ("partition", "0 0\n1 1 junk\n" + _owners(range(2, 64)),
         "line 2 expected 'element_id owner', got '1 1 junk'"),
        ("partition", _owners(range(64)) + "5 0\n", "line 65 '5 0'"),
    ], ids=["missing_config", "invalid_json", "wrong_type", "json_list",
            "missing_partition", "one_column_partition",
            "element_out_of_range", "missing_element", "negative_owner",
            "extra_field", "repeated_element"])
    def test_bad_input_file_exit(self, case, content, needle, tmp_path,
                                 capsys):
        path = tmp_path / "input"
        if content is not None:
            path.write_text(content)
        argv = ["--n", "2", "--variant", "as", "--mode", "one_level",
                "--output-dir", str(tmp_path / "out")]
        if case == "config":
            argv += ["--config", str(path)]
        else:
            argv += ["--nx", "8", "--ny", "4", "--partition", "file",
                     "--partition-file", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and needle in err

    def test_bound_failure_exit(self, tmp_path, monkeypatch, capsys):
        from geneo import cli as cli_mod
        from geneo.oracle import BoundCheck

        monkeypatch.setattr(
            cli_mod.oracle_mod, "audit_assumptions",
            lambda *a, **k: [BoundCheck.residual("forced_failure", 0.0, 1.0)])
        rc = main(["--nx", "8", "--ny", "4", "--n", "2", "--variant", "as",
                   "--mode", "hybrid", "--tau-flat", "10", "--oracle",
                   "--output-dir", str(tmp_path)])
        assert rc == 3
        assert "bound check FAILED" in capsys.readouterr().err

    def test_output_dir_that_cannot_be_created(self, tmp_path, capsys,
                                               monkeypatch):
        # a directory under a regular file cannot be created: the probe
        # after validation finds it before the first factorization
        from geneo import cli as cli_mod

        def reached(*a, **k):
            raise AssertionError("build_local_solvers reached")

        monkeypatch.setattr(cli_mod, "build_local_solvers", reached)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["--nx", "8", "--ny", "4", "--n", "2", "--variant", "as",
                   "--mode", "one_level", "--output-dir", str(blocker / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output_dir: ")
        with pytest.raises(ConfigError, match="^output_dir: "):
            run(toy_config(**ONE_LEVEL, output_dir=str(blocker / "out")))

    def test_config_file_with_override(self, tmp_path):
        cfg = dict(TOY)
        cfg.update(variant="as", mode="hybrid", tau_flat=10.0,
                   output_dir=str(tmp_path / "x"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--config", str(path), "--tau-flat", "4",
                   "--output-dir", str(tmp_path / "y")])
        assert rc == 0
        report = json.loads((tmp_path / "y" / "report.json").read_text())
        assert report["config"]["tau_flat"] == 4.0
