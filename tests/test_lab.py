"""Tests for experiment configuration, orchestration, and the command line.

Heavy parameter sets belong to the acceptance suite; here every experiment
runs in a trimmed configuration to exercise plumbing, determinism of the
written artifacts, and exit codes.
"""

import csv
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
    write_csv,
)

# every experiment in a configuration small enough for the unit suite
TRIMMED = {
    "hard_edge_limit": dict(schedule=(8, 16), grid_points=8),
    "approx_limit": dict(schedule=(8, 16), grid_points=8),
    "sandwich_chain": dict(schedule=(1000.0,), gammas=(1.2,)),
    "equilibrium_report": dict(gammas=(2.0,), grid_points=6),
    "dpp_stats": dict(thresholds=(50.0, 100.0), m=128, n_samples=40, seed=5),
}


def _trimmed(experiment):
    return default_config(experiment, **TRIMMED[experiment])


class TestConfig:
    def test_digest_stable_across_instances(self):
        a = default_config("equilibrium_report")
        b = default_config("equilibrium_report")
        assert a.digest() == b.digest()
        c = default_config("equilibrium_report", nu=0.25)
        assert c.digest() != a.digest()

    @pytest.mark.parametrize("experiment, overrides, digest", [
        ("hard_edge_limit", {}, "6ac6caef5172ac6e"),
        ("approx_limit", {}, "37fa314bb354d100"),
        ("sandwich_chain", {}, "5adccf717e5fa8d3"),
        ("equilibrium_report", {}, "33903b3052277e5b"),
        ("dpp_stats", {}, "8a6e2a325fe0af09"),
        ("hard_edge_limit", {"sequence": "bessel"}, "1bd224b64dc05ccf"),
    ], ids=["hard_edge_limit", "approx_limit", "sandwich_chain",
            "equilibrium_report", "dpp_stats", "hard_edge_limit-bessel"])
    def test_default_digest_is_pinned(self, experiment, overrides, digest):
        # the digest names the artifact files; JSON plus SHA-256 keeps it
        # the same on every platform
        assert default_config(experiment, **overrides).digest() == digest

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
        rows, fields, summary = run_experiment(_trimmed("hard_edge_limit"))
        assert summary["sup_errors"][-1] < summary["sup_errors"][0]
        assert summary["identity_residual"] < 1e-10
        assert not summary["hard_fail"]
        assert len(rows) > 0 and set(rows[0]) == set(fields)

    def test_approx_limit(self):
        _, _, summary = run_experiment(_trimmed("approx_limit"))
        for key in ("plus_norm", "minus_norm", "plus_hat", "minus_hat"):
            errs = summary["sup_errors"][key]
            assert errs[-1] < errs[0]
        assert max(summary["transform_residuals"]) < 1e-9
        # literal published minus-side scaling stalls at a gamma-dependent
        # plateau; the summary records it next to the mismatch model
        plateau = summary["as_published"]
        assert plateau["residual_vs_mismatch_model"][-1] < 0.1 * plateau["mismatch_model_sup"]

    def test_sandwich_chain(self):
        _, _, summary = run_experiment(_trimmed("sandwich_chain"))
        per = summary["per_gamma"][0]
        assert per["gamma"] == 1.2
        assert per["sandwich"]["lower_violations"] == 0
        assert per["sandwich"]["upper_violations"] == 0
        assert per["ordering_violations"] == 0
        assert per["lubinsky_min_slack"] > -1e-8
        assert not summary["hard_fail"]

    def test_equilibrium_report(self):
        rows, _, summary = run_experiment(_trimmed("equilibrium_report"))
        per = summary["per_gamma"][0]
        assert per["gamma"] == 2.0
        assert per["mass_error"] < 1e-10
        assert per["phi_boundary_residual"] < 1e-10
        assert summary["parametrix_jump_residual"] < 1e-10
        assert {r["gamma"] for r in rows} == {2.0}

    def test_dpp_stats(self):
        rows, _, summary = run_experiment(_trimmed("dpp_stats"))
        assert len(rows) == 2
        assert summary["n_samples"] == 40
        assert summary["eig_max"] <= 1.0 + 1e-8
        for off in summary["mean_offsets"]:
            assert abs(off) < 3.0  # loose: 40 draws only


class TestArtifacts:
    @pytest.mark.parametrize("experiment", sorted(TRIMMED))
    def test_rerun_writes_identical_artifacts(self, tmp_path, experiment):
        cfg = _trimmed(experiment)
        stem = f"{experiment}-{cfg.digest()}"
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for suffix in (".csv", ".json"):
            first = (tmp_path / "a" / (stem + suffix)).read_bytes()
            assert first == (tmp_path / "b" / (stem + suffix)).read_bytes()
        assert json.loads(first)["config_hash"] == cfg.digest()

    @pytest.mark.parametrize("experiment", ["hard_edge_limit", "approx_limit",
                                            "sandwich_chain"])
    def test_summary_sup_errors_are_row_maxima(self, experiment):
        rows, _, summary = run_experiment(_trimmed(experiment))
        by_step = {}
        for r in rows:
            assert r["abs_error"] == abs(r["computed"] - r["target"])
            by_step.setdefault(r["step"], []).append(r["abs_error"])
        if experiment == "hard_edge_limit":
            sups = {"R=%.6g" % R: e for R, e in zip(summary["radii"], summary["sup_errors"])}
        elif experiment == "approx_limit":
            sups = {"n=%d:%s" % (n, key): errs[i]
                    for key, errs in summary["sup_errors"].items()
                    for i, n in enumerate(summary["degrees"])}
        else:
            sups = {"final": summary["final_sup_error"]}
        assert {step: max(errs) for step, errs in by_step.items()} == sups

    def test_csv_float_format_full_precision(self, tmp_path):
        # equilibrium_report has only float columns, hard_edge_limit a label
        for cfg in (default_config("equilibrium_report", gammas=(1.5,), grid_points=5),
                    _trimmed("hard_edge_limit")):
            rows, fields, summary = run_experiment(cfg, out_dir=tmp_path)
            with open(summary["csv"], newline="") as fh:
                reader = csv.DictReader(fh)
                read = list(reader)
            assert reader.fieldnames == list(fields)
            assert len(read) == len(rows)
            for got, row in zip(read, rows):
                for k in fields:
                    if isinstance(row[k], float):
                        # 17 significant digits read back as the same float
                        assert float(got[k]).hex() == row[k].hex()
                    else:
                        assert got[k] == str(row[k])


def _reference_csv(path, rows, fields):
    """The csv module's rendering of ``rows``: .17g floats, str otherwise."""
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        wr.writeheader()
        for r in rows:
            wr.writerow({k: format(v, ".17g") if isinstance(v, float) else str(v)
                         for k, v in r.items()})


_EDGE_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                1.7976931348623157e308, 0.1, -1.0 / 3.0]


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [
        [{"label": "R=1e+04", "x": x, "n": n, "ok": n % 2 == 0}
         for n, x in enumerate(_EDGE_FLOATS)],
        [{"label": "n=%d:plus_hat" % n, "x": np.float64(x), "n": np.int64(n), "ok": None}
         for n, x in enumerate(_EDGE_FLOATS)],
        [],
    ], ids=["python-scalars", "numpy-scalars", "empty"])
    def test_matches_csv_module(self, tmp_path, rows):
        fields = ["label", "x", "n", "ok"]
        write_csv(tmp_path / "a.csv", rows, fields)
        _reference_csv(tmp_path / "b.csv", rows, fields)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_mixed_float_column_rejected(self, tmp_path):
        rows = [{"x": 1.0}, {"x": 2}]
        with pytest.raises(ValueError, match="mixes floats"):
            write_csv(tmp_path / "a.csv", rows, ["x"])

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\nb", "a\rb"],
                             ids=["comma", "quote", "newline", "return"])
    def test_label_needing_quotes_rejected(self, tmp_path, label):
        with pytest.raises(ValueError, match="comma, a quote or a line break"):
            write_csv(tmp_path / "a.csv", [{"step": "ok", "x": 1.0}, {"step": label, "x": 2.0}],
                      ["step", "x"])
        with pytest.raises(ValueError, match="comma, a quote or a line break"):
            write_csv(tmp_path / "b.csv", [{label: 1.0}], [label])


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
    # scipy.sparse they pull in) stay off the import path of the package,
    # and so does scipy.linalg, since numpy.linalg does its dense algebra
    src = os.path.dirname(os.path.dirname(bessellab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, bessellab; print(sorted(m for m in sys.modules if m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.sparse', 'scipy.linalg')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
