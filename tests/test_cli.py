"""Experiment runner: config validation, outputs, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from geneo.cli import ExperimentConfig, build_parser, config_from_args, main, run
from geneo.errors import ConfigError

TOY = dict(nx=20, ny=10, n_subdomains=4, partition_method="rcb",
           coefficients="with_layers")


def toy_config(**kw):
    base = dict(TOY)
    base.update(kw)
    return ExperimentConfig(**base)


class TestValidation:
    def test_nn_additive_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            toy_config(variant="nn", mode="additive", tau_sharp=0.5).validate()

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

    def test_config_error_exit(self, capsys):
        rc = main(["--variant", "nn", "--mode", "additive",
                   "--tau-sharp", "0.5"])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

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
