"""Compare the artifacts of two source trees, the src/ directories of two
checkouts: ``python tools/artifact_diff.py OLD_SRC NEW_SRC``.

Runs, for each tree in its own Python process, every experiment of
``bessellab.lab.EXPERIMENTS`` at its defaults, hard_edge_limit on the
bessel sequence, dpp_stats at nu = 0.3 (Nystrom order a = -0.4, so the
samples are drawn on a genuine Gauss-Jacobi rule, where the defaults'
a = 0 is Gauss-Legendre), and the criterion-3 library calls: for each nu in
(-0.5, 0, 0.5, 2), the alpha, beta and gram_residual() of
build_recurrence(ConditionalWeight(make_quadratic(), nu, 1e4), 121) and
brute_force_christoffel(w, n, 0.3) for n in (2, 4, 6), written to
criterion3.json.  Prints per artifact file either "identical" or the
largest absolute difference of the CSV cells and JSON leaves that parse as
floats, then any other cell that differs.
"""

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = """
import os, sys
sys.path.insert(0, sys.argv[1])
from bessellab import lab
from bessellab.orthopoly import brute_force_christoffel, build_recurrence
from bessellab.sequences import make_quadratic
from bessellab.weights import ConditionalWeight
out = sys.argv[2]
for cfg in [lab.default_config(name) for name in lab.EXPERIMENTS] + [
        lab.default_config("hard_edge_limit", sequence="bessel"),
        lab.default_config("dpp_stats", nu=0.3)]:
    lab.run_experiment(cfg, out)
criterion3 = {}
for nu in (-0.5, 0.0, 0.5, 2.0):
    w = ConditionalWeight(make_quadratic(), nu, 1e4)
    tab = build_recurrence(w, 121)
    criterion3[repr(nu)] = {
        "alpha": tab.alpha.tolist(), "beta": tab.beta.tolist(),
        "gram_residual": tab.gram_residual(),
        "christoffel": [brute_force_christoffel(w, n, 0.3) for n in (2, 4, 6)]}
lab.write_summary(os.path.join(out, "criterion3.json"), criterion3)
"""

def cells(node):
    """The CSV cells, row by row, or a JSON value's leaves, in key order."""
    if isinstance(node, Path):
        text = node.read_text()
        return ([c for row in csv.reader(text.splitlines()) for c in row]
                if node.suffix == ".csv" else cells(json.loads(text)))
    if isinstance(node, dict):
        return [c for k in sorted(node) for c in cells(node[k])]
    return [c for v in node for c in cells(v)] if isinstance(node, list) else [node]


def as_float(v):
    try:
        return None if isinstance(v, bool) else float(v)
    except (TypeError, ValueError):
        return None


def compare(old, new):
    a, b = cells(old), cells(new)
    pairs = [(x, y, as_float(x), as_float(y)) for x, y in zip(a, b)]
    diffs = [abs(fx - fy) for _, _, fx, fy in pairs if None not in (fx, fy)]
    other = [(x, y) for x, y, fx, fy in pairs if None in (fx, fy) and x != y]
    other += [("cells", len(a), len(b))] if len(a) != len(b) else []
    return "max|diff| %.3g" % max(diffs, default=0.0) + (
        "  non-numeric: %d, first %r" % (len(other), other[0]) if other else "")


with tempfile.TemporaryDirectory() as tmp:
    dirs = [Path(tmp, "old"), Path(tmp, "new")]
    for src, out in zip(sys.argv[1:3], dirs):
        subprocess.run([sys.executable, "-c", RUN, str(Path(src).resolve()), out], check=True)
    for name in sorted({p.name for d in dirs for p in d.iterdir()}):
        old, new = (d / name for d in dirs)
        if not (old.exists() and new.exists()):
            print(name, "only in", "old" if old.exists() else "new")
        else:
            print(name, "identical" if old.read_bytes() == new.read_bytes() else compare(old, new))
