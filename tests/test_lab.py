"""Tests for experiment configuration, orchestration, and the command line.

Heavy parameter sets belong to the acceptance suite; here every experiment
runs in a trimmed configuration to exercise plumbing, determinism of the
written artifacts, and exit codes.
"""

import ast
import csv
import dataclasses
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bessellab
from bessellab import dpp
from bessellab.cli import main
from bessellab.errors import DiscretizationFailure
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
        # every field written out reads back, tuples included, for every
        # experiment's own defaults
        path = tmp_path / "config.json"
        for experiment in EXPERIMENTS:
            cfg = default_config(experiment, n_samples=7)
            path.write_text(json.dumps(dataclasses.asdict(cfg)))
            back = ExperimentConfig.from_json(path)
            assert back == cfg
            assert back.digest() == cfg.digest()

    def test_from_json_overrides(self, tmp_path):
        # the caller's overrides win over the file, the experiment included
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "dpp_stats", "seed": 3, "nu": 0.25}))
        back = ExperimentConfig.from_json(path, experiment="equilibrium_report", seed=1)
        assert back == default_config("equilibrium_report", seed=1, nu=0.25)

    @pytest.mark.parametrize("experiment", sorted(TRIMMED))
    def test_from_json_applies_the_experiment_defaults(self, tmp_path, experiment):
        # a config file overrides the experiment's own defaults field by
        # field, as default_config does, whether the experiment comes from
        # the file or from the caller
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid_points": 5}))
        want = default_config(experiment, grid_points=5)
        assert ExperimentConfig.from_json(path, experiment=experiment) == want
        path.write_text(json.dumps({"experiment": experiment, "grid_points": 5}))
        assert ExperimentConfig.from_json(path) == want

    def test_tuple_fields_are_stored_as_tuples(self):
        cfg = default_config("dpp_stats", gammas=[1.5], schedule=[10, 20], thresholds=[1e2])
        assert (cfg.gammas, cfg.schedule, cfg.thresholds) == ((1.5,), (10, 20), (1e2,))
        assert cfg == default_config("dpp_stats", gammas=(1.5,), schedule=(10, 20),
                                     thresholds=(1e2,))

    @pytest.mark.parametrize("overrides, field", [
        ({"schedule": []}, "schedule"),
        ({"thresholds": []}, "thresholds"),
        ({"gammas": ()}, "gammas"),
        ({"gammas": 1.5}, "gammas"),
        ({"schedule": "10"}, "schedule"),
        ({"grid_points": 0}, "grid_points"),
        ({"grid_points": 5.5}, "grid_points"),
        ({"grid_points": "5"}, "grid_points"),
        ({"sequence": "cubic"}, "sequence"),
        ({"nu": "a"}, "nu"),
        ({"nu": -1.0}, "nu"),
        ({"nu": math.nan}, "nu"),
        ({"grid_lo": -1}, "grid_lo"),
        ({"grid_lo": 0.0}, "grid_lo"),
        ({"grid_hi": math.inf}, "grid_hi"),
        ({"tail_tolerance": 0.0}, "tail_tolerance"),
        ({"tail_tolerance": True}, "tail_tolerance"),
        ({"grid_points": True}, "grid_points"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 2.5}, "seed"),
        ({"m": 10.5}, "m must"),
        ({"m": 63}, "m must"),
        ({"n_samples": 0}, "n_samples"),
        ({"thresholds": [-1.0]}, "thresholds"),
        ({"thresholds": [1e2, math.inf]}, "thresholds"),
        ({"gammas": [0.5]}, "gammas"),
        ({"gammas": [1.0]}, "gammas"),
        ({"gammas": [1.5, True]}, "gammas"),
        ({"schedule": ["x"]}, "schedule"),
        ({"schedule": [10, 0]}, "schedule"),
        ({"schedule": [math.nan]}, "schedule"),
    ], ids=["empty-schedule", "empty-thresholds", "empty-gammas", "scalar-gammas",
            "string-schedule", "zero-grid-points", "float-grid-points", "string-grid-points",
            "unknown-sequence", "string-nu", "nu-minus-one", "nan-nu", "negative-grid-lo",
            "zero-grid-lo", "infinite-grid-hi", "zero-tail-tolerance", "bool-tail-tolerance",
            "bool-grid-points", "bool-seed", "negative-seed", "float-seed", "float-m",
            "too-few-m", "zero-n-samples", "negative-threshold", "infinite-threshold",
            "gamma-below-one", "gamma-one", "bool-gamma", "string-schedule-entry",
            "zero-schedule-entry", "nan-schedule-entry"])
    def test_bad_field_rejected(self, overrides, field):
        # used to fail later: UnboundLocalError, max() of an empty sequence,
        # numpy's zero-size reduction, a TypeError, (for the sequence kind)
        # a ValueError only once the run began, or, for the scalar fields,
        # a RuntimeWarning from log10 and a DomainError "x must be finite"
        # or "could not convert string to float" from inside the library
        for experiment in EXPERIMENTS:
            with pytest.raises(ValueError, match=field):
                default_config(experiment, **overrides)

    def test_fractional_schedule_entry_rejected_where_read_as_a_count(self):
        # hard_edge_limit reads the schedule as point counts and approx_limit
        # as degrees; a fractional entry ended in a DomainError traceback
        for experiment in ("hard_edge_limit", "approx_limit"):
            with pytest.raises(ValueError, match="schedule"):
                default_config(experiment, schedule=(10, 10.5))
            assert default_config(experiment, schedule=(10.0,)).schedule == (10.0,)
        # sandwich_chain reads its one schedule entry as a window R
        assert default_config("sandwich_chain", schedule=(10000.5,)).schedule == (10000.5,)

    def test_numpy_scalars_stored_as_python_numbers(self):
        # each made digest() raise TypeError: ... is not JSON serializable
        for field, value, plain in (("thresholds", (np.float32(100.0),), (100.0,)),
                                    ("schedule", (np.int64(10),), (10,)),
                                    ("nu", np.float32(0.5), 0.5)):
            cfg = default_config("hard_edge_limit", **{field: value})
            assert getattr(cfg, field) == plain
            assert cfg.digest() == default_config("hard_edge_limit", **{field: plain}).digest()
        # Python numbers are kept as given: 10.0 and 10 digest differently
        assert (default_config("hard_edge_limit", schedule=(10.0,)).digest()
                != default_config("hard_edge_limit", schedule=(10,)).digest())

    def test_numpy_integer_fields_stored_as_int(self):
        # a numpy integer passed the check but made digest() raise TypeError
        cfg = default_config("dpp_stats", seed=np.int64(7), m=np.int32(256))
        assert type(cfg.seed) is int and type(cfg.m) is int
        assert cfg.digest() == default_config("dpp_stats", seed=7, m=256).digest()

    @pytest.mark.parametrize("document, message", [
        ({"grid_pts": 5}, "unknown key.*grid_pts"),
        ([{"grid_points": 5}], "no JSON object"),
        ({"grid_points": 5}, "no experiment"),
        ({"grid_points": 0, "experiment": "dpp_stats"}, "grid_points"),
    ], ids=["unknown-key", "list", "no-experiment", "bad-field"])
    def test_bad_config_file_rejected(self, tmp_path, document, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(path)

    def test_unknown_experiment_rejected(self):
        cfg = default_config("equilibrium_report")
        with pytest.raises(ValueError, match="nope"):
            dataclasses.replace(cfg, experiment="nope")
        with pytest.raises(ValueError, match="nope"):
            default_config("nope")

    @pytest.mark.parametrize("experiment, field, values", [
        ("approx_limit", "gammas", (1.5, 1.2)),
        ("sandwich_chain", "schedule", (1000.0, 2000.0))])
    def test_field_read_once_takes_one_value(self, experiment, field, values):
        # approx_limit reads one gamma and sandwich_chain one window R; a
        # second value would be silently ignored
        with pytest.raises(ValueError, match=field):
            default_config(experiment, **{**TRIMMED[experiment], field: values})

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

    def test_dpp_stats_reports_the_spectrum_before_the_clip(self, monkeypatch):
        # a hand-built factor whose Nystrom matrix has eigenvalues 0.25,
        # 0.0625, 1 and 1 + 1e-9, inside EIG_TOL, and zeros past them:
        # nystrom clips them to [0, 1] for the sampler but keeps the two
        # ends, which dpp_stats reports in place of the clipped 0 and 1
        cfg = _trimmed("dpp_stats")
        T = max(cfg.thresholds)
        top = np.sqrt(1.0 + 1e-9)
        B = np.zeros((cfg.m, 6))
        B[[0, 1, 2, 3], [0, 1, 2, 3]] = 0.5, 0.25, 1.0, top
        monkeypatch.setattr(dpp, "_factor", lambda nu, x, w, q: B)
        kern = dpp.nystrom(cfg.nu, T, cfg.m)
        assert kern.eigenvalues[0] == 0.0 and kern.eigenvalues[-1] == 1.0
        assert_allclose(kern.eig_range, (0.0, top * top), rtol=0, atol=1e-15)
        _, _, summary = run_experiment(cfg)
        assert (summary["eig_min"], summary["eig_max"]) == kern.eig_range

    def test_escape_message_shows_the_excess(self, monkeypatch):
        # a hand-built factor whose top eigenvalue is 1 + 6e-8, outside
        # EIG_TOL: printed as an eigenvalue in %.3e it reads 1.000e+00, so
        # the message gives its excess over 1 instead
        cfg = _trimmed("dpp_stats")
        B = np.zeros((cfg.m, 2))
        B[0, 0] = np.sqrt(1.0 + 6e-8)
        monkeypatch.setattr(dpp, "_factor", lambda nu, x, w, q: B)
        with pytest.raises(DiscretizationFailure,
                           match=r": 6\.000e-08 above 1;"):
            dpp.nystrom(cfg.nu, max(cfg.thresholds), cfg.m)


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

    def test_undefined_slope_is_null_in_strict_json(self, tmp_path):
        # one threshold leaves the variance slopes undefined; they were
        # written as the NaN token, which no strict JSON parser accepts
        def reject(token):
            raise ValueError("non-JSON constant %s" % token)

        cfg = default_config("dpp_stats", **{**TRIMMED["dpp_stats"], "thresholds": (100.0,)})
        run_experiment(cfg, out_dir=tmp_path)
        text = (tmp_path / f"dpp_stats-{cfg.digest()}.json").read_text()
        written = json.loads(text, parse_constant=reject)
        assert written["var_slope"] is None and written["exact_var_slope"] is None

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
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        rc = main(["dpp", "--config", str(path), "--seed", "42",
                   "--out", str(tmp_path / "res")])
        assert rc == 0
        written = list((tmp_path / "res").glob("dpp_stats-*.json"))
        assert len(written) == 1
        assert json.loads(written[0].read_text())["config"]["seed"] == 42

    def test_config_file_overrides_the_subcommand_defaults(self, tmp_path):
        # equilibrium_report's own nu = 0.5 and gammas (1.1, 2, 5) stay
        # under a file that sets only grid_points
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid_points": 5}))
        rc = main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "res")])
        assert rc == 0
        stem = tmp_path / "res" / "equilibrium_report-53391be9728bffa8"
        assert stem.with_suffix(".csv").exists()
        config = json.loads(stem.with_suffix(".json").read_text())["config"]
        assert config["nu"] == 0.5 and config["gammas"] == [1.1, 2.0, 5.0]

    @pytest.mark.parametrize("command, document, field", [
        ("hard-edge", {"schedule": []}, "schedule"),
        ("dpp", {"thresholds": []}, "thresholds"),
        ("equilibrium", {"grid_points": 0}, "grid_points"),
        ("approx-limit", {"gammas": 1.5}, "gammas"),
        ("sandwich", {"grid_pts": 5}, "grid_pts"),
        ("dpp", [1, 2], "no JSON object"),
        ("dpp", "{", "Expecting"),
        ("hard-edge", {"grid_lo": -1}, "grid_lo"),
        ("dpp", {"nu": "a"}, "nu"),
        ("hard-edge", {"grid_hi": 0}, "grid_hi"),
        ("approx-limit", {"tail_tolerance": -1e-10}, "tail_tolerance"),
        ("equilibrium", {"grid_points": True}, "grid_points"),
        ("dpp", {"seed": True}, "seed"),
        ("dpp", {"seed": -1}, "seed"),
        ("dpp", {"seed": 2.5}, "seed"),
        ("dpp", {"m": 10.5}, "m must"),
        ("dpp", {"n_samples": 0}, "n_samples"),
        ("dpp", {"thresholds": [-1.0]}, "thresholds"),
        ("sandwich", {"gammas": [1.2, 0.5]}, "gammas"),
        ("hard-edge", {"schedule": ["x"]}, "schedule"),
        ("hard-edge", {"schedule": [10.5]}, "schedule"),
        ("approx-limit", {"schedule": [40.5]}, "schedule"),
        ("approx-limit", {"gammas": [1.5, 1.2]}, "gammas"),
        ("sandwich", {"schedule": [100.0, 200.0]}, "schedule"),
    ], ids=["empty-schedule", "empty-thresholds", "zero-grid-points", "scalar-gammas",
            "unknown-key", "list", "not-json", "negative-grid-lo", "string-nu",
            "zero-grid-hi", "negative-tail-tolerance", "bool-grid-points", "bool-seed",
            "negative-seed", "float-seed", "float-m", "zero-n-samples", "negative-threshold",
            "gamma-below-one", "string-schedule-entry", "fractional-schedule-entry",
            "fractional-degree", "two-gammas", "two-windows"])
    def test_bad_config_file_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                  document, field):
        path = tmp_path / "cfg.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path / "res")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert field in err.splitlines()[-1]
        assert err.splitlines()[-1].startswith("bessellab: error: ")
        assert not (tmp_path / "res").exists()

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def test_import_loads_no_quadrature_or_root_finder(tmp_path):
    # a fresh interpreter: the package, a Gauss-Jacobi rule, a quadratic-kind
    # weight's zeta tail and the default equilibrium_report evaluate no
    # Bessel function, so none of them loads any scipy module; the first
    # J_nu evaluation loads scipy.special and gives the in-process value
    src = os.path.dirname(os.path.dirname(bessellab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, bessellab; bessellab.weight_quadrature(0.5); "
            "bessellab.ConditionalWeight(bessellab.make_quadratic(), 0.5, 1e3); "
            "from bessellab.lab import default_config, run_experiment; "
            f"run_experiment(default_config('equilibrium_report'), out_dir={str(tmp_path)!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "j = bessellab.bessel_j(0.5, 2.0); "
            "print('scipy.special' in sys.modules, repr(j))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, after = out.strip().splitlines()
    assert before == "[]"
    assert after == f"True {bessellab.bessel_j(0.5, 2.0)!r}"


def test_every_export_resolves():
    # each name in the package's __all__ and in every module's __all__
    # exists, so no export outlives the name it points to
    folder = pathlib.Path(bessellab.__file__).parent
    modules = [bessellab] + [importlib.import_module(f"bessellab.{path.stem}")
                             for path in sorted(folder.glob("*.py"))
                             if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_only_specfun_imports_scipy():
    importers = set()
    for path in pathlib.Path(bessellab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"specfun.py"}
