"""Compare the default-config artifacts of two source trees, the src/
directories of two checkouts: ``python tools/artifact_diff.py OLD_SRC NEW_SRC``.

Runs every experiment of ``bessellab.lab.EXPERIMENTS`` at its defaults,
each tree in its own Python process, and prints per artifact file either
"identical" or the largest absolute difference of the CSV cells and JSON
leaves that parse as floats, then any other cell that differs.
"""

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = ("import sys; sys.path.insert(0, sys.argv[1]); from bessellab import lab\n"
       "for name in lab.EXPERIMENTS: lab.run_experiment(lab.default_config(name), sys.argv[2])")


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
