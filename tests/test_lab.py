"""Tests for experiment configuration, orchestration, and the command line.

Heavy parameter sets belong to the acceptance suite; here every experiment
runs in a trimmed configuration to exercise plumbing, determinism of the
written artifacts, and exit codes.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bessellab
from bessellab.cli import main
from bessellab.lab import (
    EXPERIMENTS,
    ExperimentConfig,
    default_config,
    run_experiment,
)


class TestConfig:
    def test_digest_stable_across_instances(self):
        a = default_config("equilibrium_report")
        b = default_config("equilibrium_report")
        assert a.digest() == b.digest()
        c = default_config("equilibrium_report", nu=0.25)
        assert c.digest() != a.digest()

    def test_grid_spans_requested_range(self):
        cfg = default_config("approx_limit", grid_lo=1.0, grid_hi=10.0, grid_points=5)
        g = cfg.grid()
        assert g[0] == pytest.approx(1.0) and g[-1] == pytest.approx(10.0)
        assert len(g) == 5

    def test_from_json_roundtrip(self, tmp_path):
        cfg = default_config("dpp_stats", n_samples=7)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.canonical()))
        back = ExperimentConfig.from_json(path)
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_from_json_overrides(self, tmp_path):
        cfg = default_config("dpp_stats")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.canonical()))
        back = ExperimentConfig.from_json(path, seed=1)
        assert back.seed == 1

    def test_unknown_experiment_rejected(self):
        cfg = default_config("equilibrium_report")
        bad = ExperimentConfig(**{**cfg.canonical(), "experiment": "nope"})
        with pytest.raises(ValueError):
            run_experiment(bad)

    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {
            "hard_edge_limit", "approx_limit", "sandwich_chain",
            "equilibrium_report", "dpp_stats",
        }


class TestExperimentsTrimmed:
    def test_hard_edge_limit(self):
        cfg = default_config("hard_edge_limit", schedule=(8, 16), grid_points=8)
        rows, fields, summary = run_experiment(cfg)
        assert summary["sup_errors"][-1] < summary["sup_errors"][0]
        assert summary["identity_residual"] < 1e-10
        assert not summary["hard_fail"]
        assert len(rows) > 0 and set(rows[0]) == set(fields)

    def test_approx_limit(self):
        cfg = default_config("approx_limit", schedule=(8, 16), grid_points=8)
        _, _, summary = run_experiment(cfg)
        for key in ("plus_norm", "minus_norm", "plus_hat", "minus_hat"):
            errs = summary["sup_errors"][key]
            assert errs[-1] < errs[0]
        assert max(summary["transform_residuals"]) < 1e-9
        # literal published minus-side scaling stalls at a gamma-dependent
        # plateau; the summary records it next to the mismatch model
        plateau = summary["as_published"]
        assert plateau["residual_vs_mismatch_model"][-1] < 0.1 * plateau["mismatch_model_sup"]

    def test_sandwich_chain(self):
        cfg = default_config("sandwich_chain", schedule=(1000.0,), gammas=(1.2,))
        _, _, summary = run_experiment(cfg)
        per = summary["per_gamma"][0]
        assert per["gamma"] == 1.2
        assert per["sandwich"]["lower_violations"] == 0
        assert per["sandwich"]["upper_violations"] == 0
        assert per["ordering_violations"] == 0
        assert per["lubinsky_min_slack"] > -1e-8
        assert not summary["hard_fail"]

    def test_equilibrium_report(self):
        cfg = default_config("equilibrium_report", gammas=(2.0,), grid_points=6)
        rows, _, summary = run_experiment(cfg)
        per = summary["per_gamma"][0]
        assert per["gamma"] == 2.0
        assert per["mass_error"] < 1e-10
        assert per["phi_boundary_residual"] < 1e-10
        assert summary["parametrix_jump_residual"] < 1e-10
        assert {r["gamma"] for r in rows} == {2.0}

    def test_dpp_stats(self):
        cfg = default_config("dpp_stats", thresholds=(50.0, 100.0), m=128,
                             n_samples=40, seed=5)
        rows, _, summary = run_experiment(cfg)
        assert len(rows) == 2
        assert summary["n_samples"] == 40
        assert summary["eig_max"] <= 1.0 + 1e-8
        for off in summary["mean_offsets"]:
            assert abs(off) < 3.0  # loose: 40 draws only


class TestArtifacts:
    def test_rerun_writes_identical_csv(self, tmp_path):
        cfg = default_config("equilibrium_report", gammas=(1.5,), grid_points=5)
        _, _, s1 = run_experiment(cfg, out_dir=tmp_path / "a")
        _, _, s2 = run_experiment(cfg, out_dir=tmp_path / "b")
        b1 = open(s1["csv"], "rb").read()
        b2 = open(s2["csv"], "rb").read()
        assert b1 == b2
        side = json.loads((tmp_path / "a" / f"equilibrium_report-{cfg.digest()}.json").read_text())
        assert side["per_gamma"][0]["mass_error"] < 1e-10

    def test_csv_float_format_full_precision(self, tmp_path):
        cfg = default_config("equilibrium_report", gammas=(1.5,), grid_points=5)
        _, _, summary = run_experiment(cfg, out_dir=tmp_path)
        text = open(summary["csv"]).read()
        # 17 significant digits keep the roundtrip exact
        sample = text.strip().splitlines()[1].split(",")[-1]
        assert float(sample) == float(repr(float(sample)))


class TestCli:
    def test_equilibrium_subcommand(self, tmp_path, capsys):
        rc = main(["equilibrium", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mass" in out or "hard_fail" in out or len(out) > 0
        assert any(p.suffix == ".csv" for p in tmp_path.iterdir())

    def test_config_file_and_seed_override(self, tmp_path):
        cfg = default_config("dpp_stats", thresholds=(50.0, 100.0), m=128, n_samples=10)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.canonical()))
        rc = main(["dpp", "--config", str(path), "--seed", "42",
                   "--out", str(tmp_path / "res")])
        assert rc == 0
        written = list((tmp_path / "res").glob("dpp_stats-*.json"))
        assert len(written) == 1
        assert json.loads(written[0].read_text())["config"]["seed"] == 42

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def test_import_loads_no_quadrature_or_root_finder():
    # a fresh interpreter: scipy.integrate and scipy.optimize (and the
    # scipy.sparse they pull in) stay off the import path of the package
    src = os.path.dirname(os.path.dirname(bessellab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, bessellab; print(sorted(m for m in sys.modules if m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
