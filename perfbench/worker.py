"""One timed pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE RESULT_JSON WORK_DIR

run.py starts one worker per pass, so no in-process cache filled by an
earlier pass can shorten a later one: a user of the command line pays every
run in a fresh process too.  The worker times its own set-up (imports,
inputs and a reduced warm-up pass), then the pass, and writes one JSON file
with the timings, ru_maxrss, each op's result and artifact digest and, when
TRACE is 1, the per-layer metrics of its spans.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _jsonable(obj):
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError("cannot serialize %r" % (obj,))


def run_pass(wl, inputs, pass_dir):
    """Run every op of one pass; returns (wall seconds, op records)."""
    ops = wl.run_pass(inputs, pass_dir)
    records = []
    seen = set()
    t1 = time.perf_counter()
    for name, thunk in ops:
        try:
            data, error = thunk(), None
        except Exception:  # an op that raises is a failed op, not a crash
            data, error = None, traceback.format_exc(limit=3)
        present = set(os.listdir(pass_dir))
        records.append({"op": name, "data": data, "error": error,
                        "files": sorted(present - seen)})
        seen = present
    wall_s = time.perf_counter() - t1
    for rec in records:
        rec["digest"] = _digest([os.path.join(pass_dir, f) for f in rec["files"]])
    return wall_s, records


def main(argv):
    workload, seed, trace, result_path, work_dir = argv
    sys.path.insert(0, SRC)
    import bessellab
    if os.path.dirname(os.path.dirname(os.path.abspath(bessellab.__file__))) != SRC:
        print("worker: imported bessellab from %s, not from %s" % (bessellab.__file__, SRC),
              file=sys.stderr)
        return 3
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(int(seed))
    warm_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        wl.warm_up(inputs, warm_dir)
    finally:
        shutil.rmtree(warm_dir)
    setup_s = time.perf_counter() - T0

    tracer = None
    if trace == "1":
        tracer = spans.Tracer()
        tracer.install()
    pass_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        wall_s, records = run_pass(wl, inputs, pass_dir)
        files = sorted(os.listdir(pass_dir))
        artifact_bytes = sum(os.path.getsize(os.path.join(pass_dir, f)) for f in files)
        digest = _digest([os.path.join(pass_dir, f) for f in files])
    finally:
        shutil.rmtree(pass_dir)

    result = {
        "traced": tracer is not None,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes": artifact_bytes,
        "digest": digest,
        "ops": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer.aggregate(), result)
    with open(result_path, "w") as fh:
        json.dump(result, fh, default=_jsonable)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
