"""bessellab benchmark: time to a checked result for three experiment workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory, and nothing is installed.  Workloads (see workloads.py):

  dpp_counting      dpp_stats at its default config, master seed = --seed
  kernel_limits     hard_edge_limit (quadratic and Bessel-zero sequences),
                    approx_limit, sandwich_chain, and the degree-121
                    orthonormality / Christoffel job for four orders nu
  equilibrium_maps  equilibrium_report at its default config

Each timed pass runs in its own worker process (worker.py) after that
worker's set-up: imports, inputs and a reduced warm-up pass.  Passes repeat
until --seconds have gone (at least MIN_PASSES).  Every op of every pass is
checked against its accuracy tolerance and its artifacts against the first
pass's bytes.

--trace 0 reports the end-to-end metrics: wall_s (median pass), setup_s
(median worker set-up) and peak_rss_mb (median worker ru_maxrss).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py (medians over the traced passes), the tracing overhead
and the span coverage.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it state the
machine, every pass, every failed check, the artifact digest and each
metric with its unit.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOAD_NAMES = ("dpp_counting", "kernel_limits", "equilibrium_maps")
MIN_PASSES = 3          # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2    # untraced and traced passes each in a --trace 1 run
WORKER_TIMEOUT_S = 150
# No pass is started that would end after this many seconds of the run, so
# that a run with its checks ends well within three minutes.
LAST_PASS_END_S = 140

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _blas_threads():
    """Thread count of each loaded OpenBLAS, read through its own API."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(loadavg):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return "%s %s" % (b["name"], b["version"])

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "loadavg_at_start": list(loadavg),
    }


def run_worker(workload, seed, traced, work_dir, index):
    result_path = os.path.join(work_dir, "pass-%d.json" % index)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if traced else "0", result_path, work_dir]
    # The worker's stdout goes to our stderr: our stdout ends with the result.
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S, cwd=work_dir)
    if proc.returncode != 0:
        raise RuntimeError("worker for pass %d exited with %d" % (index, proc.returncode))
    with open(result_path) as fh:
        return json.load(fh)


def run_passes(args, work_dir):
    """Start one worker per pass until --seconds are used; returns the results."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        t = time.perf_counter()
        r = run_worker(args.workload, args.seed, traced, work_dir, len(results))
        durations.append(time.perf_counter() - t)
        results.append(r)
        print("pass %d: traced=%d setup_s=%.4f wall_s=%.4f peak_rss_mb=%.1f" % (
            len(results) - 1, traced, r["setup_s"], r["wall_s"], r["peak_rss_mb"]))
        n_plain = sum(1 for x in results if not x["traced"])
        n_traced = len(results) - n_plain
        if args.trace:
            enough = min(n_plain, n_traced) >= MIN_TRACE_PASSES
        else:
            enough = n_plain >= MIN_PASSES
        next_end = time.perf_counter() - start + statistics.median(durations)
        if (enough and next_end > args.seconds) or next_end > LAST_PASS_END_S:
            return results


def check_run(wl, inputs, results):
    """(attempted, failed, failed check lines, worst value of each check)."""
    from workloads import passes

    ref = wl.reference(inputs) if wl.reference else None
    attempted = failed = 0
    failures, worst = [], {}

    def record(op, checks, error=None):
        bad = [c for c in checks if not passes(c[1], c[2])]
        for name, value, rule in checks:
            key = "%s: %s" % (op, name)
            prev = worst.get(key)
            # "worst" is the value furthest toward failing; rules bound from above
            # except '>=' and the booleans, which fail low
            low_fails = rule is None or rule[0] == ">="
            if prev is None or (value < prev[0] if low_fails else value > prev[0]):
                worst[key] = (value, rule)
        if error:
            failures.append("%s raised:\n%s" % (op, error))
        failures.extend("%s: %s = %r fails %r" % (op, n, v, r) for n, v, r in bad)
        return bool(error or bad)

    first = results[0]["ops"]
    for i, r in enumerate(results):
        pass_data = {rec["op"]: rec["data"] for rec in r["ops"]}
        for rec, rec0 in zip(r["ops"], first):
            attempted += 1
            checks = []
            if rec["error"] is None:
                checks = wl.checks(rec["op"], rec["data"], pass_data, ref)
            bad = record(rec["op"], checks, rec["error"])
            if rec["digest"] != rec0["digest"]:
                failures.append("pass %d: %s artifacts differ from pass 0" % (i, rec["op"]))
                bad = True
            failed += bad
    if wl.run_checks:
        attempted += 1
        failed += record("reference", wl.run_checks(ref))
    return attempted, failed, failures, worst


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    loadavg = os.getloadavg()
    # Turn SIGTERM into an exception, so the running worker is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "bessellab", "__init__.py")):
        print("run.py: no bessellab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        results = run_passes(args, work_dir)
    finally:
        shutil.rmtree(work_dir)
        try:
            os.rmdir(WORK)
        except OSError:  # another run is still using it
            pass

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    attempted, failed, failures, worst = check_run(wl, wl.inputs(args.seed), results)

    print("environment: %s" % json.dumps(environment(loadavg), sort_keys=True))
    for key, (value, rule) in sorted(worst.items()):
        print("check %s: worst %r, rule %r" % (key, value, rule))
    for line in failures:
        print("FAILED %s" % line)
    print("artifact_digest: %s" % results[0]["digest"])
    print("ops: %d  ops_failed: %d" % (attempted, failed))

    plain = [r for r in results if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    q1, q3 = quartiles(walls)
    print("wall_s over %d passes: median %.4f q1 %.4f q3 %.4f" % (
        len(walls), statistics.median(walls), q1, q3))
    if args.trace:
        traced = [r for r in results if r["traced"]]
        metrics = {}
        for name, (unit, _) in spans.PER_LAYER.items():
            values = [r["layers"][name] for r in traced]
            # work counts repeat exactly from pass to pass; keep them whole
            median = statistics.median_low if unit in ("count", "B") else statistics.median
            metrics[name] = {"value": median(values), "unit": unit}
        name, unit, _ = spans.TRACE_OVERHEAD
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(walls))
        metrics[name] = {"value": overhead, "unit": unit}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    for name, m in metrics.items():
        print("metric %s = %r %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
