"""Print a short digest of every artifact of the default configurations.

Runs the five experiments at their defaults, plus hard_edge_limit on the
bessel sequence, into a temporary directory, and prints one line per
written file, sorted by name:

    <file name> <first 16 hex digits of its sha256>

A last line digests the criterion-3 numbers from library calls alone: for
each nu in (-0.5, 0, 0.5, 2), the alpha, beta and gram_residual() of
build_recurrence(ConditionalWeight(make_quadratic(), nu, 1e4), 121) and
brute_force_christoffel(w, n, 0.3) for n in (2, 4, 6), as float64 bytes:

    criterion3 <first 16 hex digits of their sha256>

The package is imported from the source directory given as the argument,
by default the checkout's own src/.  Two commits are compared byte for
byte by digesting each and diffing the output, with one copy of the tool:

    python tools/artifact_digests.py [source directory]

for instance with the src/ of two git worktrees.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from bessellab.lab import EXPERIMENTS, default_config, run_experiment  # noqa: E402
from bessellab.orthopoly import brute_force_christoffel, build_recurrence  # noqa: E402
from bessellab.sequences import make_quadratic  # noqa: E402
from bessellab.weights import ConditionalWeight  # noqa: E402

CONFIGS = [default_config(name) for name in EXPERIMENTS]
CONFIGS.append(default_config("hard_edge_limit", sequence="bessel"))


def criterion3_digest():
    h = hashlib.sha256()
    for nu in (-0.5, 0.0, 0.5, 2.0):
        w = ConditionalWeight(make_quadratic(), nu, 1e4)
        tab = build_recurrence(w, 121)
        lams = [brute_force_christoffel(w, n, 0.3) for n in (2, 4, 6)]
        h.update(np.concatenate((tab.alpha, tab.beta, [tab.gram_residual()], lams)).tobytes())
    return h.hexdigest()[:16]


def main():
    with tempfile.TemporaryDirectory() as out:
        for cfg in CONFIGS:
            run_experiment(cfg, out_dir=out)
        for path in sorted(Path(out).iterdir()):
            print(path.name, hashlib.sha256(path.read_bytes()).hexdigest()[:16])
    print("criterion3", criterion3_digest())


if __name__ == "__main__":
    main()
