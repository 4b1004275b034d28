"""Self-test of the benchmark:  python3 -m pytest perfbench -q

Checks that the tracer wraps every entry point and alias, that tracing
leaves the artifacts byte-identical, that spans cover the passes (so
lab.self_s is glue), that BENCHMARK.json names exactly the metrics the code
reports, and that the command refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bessellab  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Least share of a traced pass's wall time that spans of library layers
# (and artifact writing) must account for.
MIN_COVERAGE = 0.95


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=run.WORK)
    yield path
    shutil.rmtree(path)
    if not os.listdir(run.WORK):
        os.rmdir(run.WORK)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_layer_is_wrapped():
    assert {module for module, _, _, _, _ in spans.WRAPS} == set(spans.LAYERS)
    assert {m.__name__.split(".")[-1] for m in spans._bessellab_modules()} >= set(spans.LAYERS)


def test_every_entry_point_and_alias_is_wrapped():
    originals = (bessellab.lab.nystrom, bessellab.dpp.bessel_kernel,
                 bessellab.lab.EXPERIMENTS["dpp_stats"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.unpatched_aliases() == []
        for module, attr, _, _, _ in spans.WRAPS:
            owner, name, value = spans._resolve(module, attr)
            assert hasattr(value, "__perfbench_original__"), (module, attr)
        # the aliases a plain module-attribute patch would miss
        patched = {alias for _, _, alias in tracer.patched}
        assert {"bessellab.lab.nystrom", "bessellab.dpp.bessel_kernel",
                "bessellab.nystrom", "bessellab.lab.EXPERIMENTS['dpp_stats']"} <= patched
    finally:
        tracer.uninstall()
    assert (bessellab.lab.nystrom, bessellab.dpp.bessel_kernel,
            bessellab.lab.EXPERIMENTS["dpp_stats"]) == originals


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_keeps_artifacts_and_covers_the_pass(name, work_dir):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(3)
    plain_dir, traced_dir = os.path.join(work_dir, "plain"), os.path.join(work_dir, "traced")
    os.mkdir(plain_dir)
    os.mkdir(traced_dir)
    _, plain = worker.run_pass(wl, inputs, plain_dir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall_s, traced = worker.run_pass(wl, inputs, traced_dir)
    finally:
        tracer.uninstall()
    assert [r["error"] for r in plain + traced] == [None] * (len(plain) + len(traced))
    assert [(r["op"], r["files"], r["digest"]) for r in plain] == \
        [(r["op"], r["files"], r["digest"]) for r in traced]

    metrics = spans.layer_metrics(tracer.aggregate(), {"wall_s": wall_s,
                                                       "artifact_bytes": 1})
    assert metrics["trace.coverage"] >= MIN_COVERAGE
    assert metrics["lab.self_s"] <= (1.0 - MIN_COVERAGE) * wall_s


def test_benchmark_json_names_the_reported_metrics():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layer = dict(spans.PER_LAYER)
    name, unit, better = spans.TRACE_OVERHEAD
    layer[name] = (unit, better)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layer


def _run(cwd, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "equilibrium_maps",
           "--seed", "5", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_line(trace):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark_json()
    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_command_fails_without_sources(work_dir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    shutil.copytree(HERE, os.path.join(work_dir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(work_dir, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
