"""Print a short digest of every artifact of the default configurations.

Runs the five experiments at their defaults, plus hard_edge_limit on the
bessel sequence, into a temporary directory, and prints one line per
written file, sorted by name:

    <file name> <first 16 hex digits of its sha256>

The package is imported from the checkout's own src/, so two commits are
compared byte for byte by running this in each and diffing the output:

    python tools/artifact_digests.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bessellab.lab import EXPERIMENTS, default_config, run_experiment  # noqa: E402

CONFIGS = [default_config(name) for name in EXPERIMENTS]
CONFIGS.append(default_config("hard_edge_limit", sequence="bessel"))


def main():
    with tempfile.TemporaryDirectory() as out:
        for cfg in CONFIGS:
            run_experiment(cfg, out_dir=out)
        for path in sorted(Path(out).iterdir()):
            print(path.name, hashlib.sha256(path.read_bytes()).hexdigest()[:16])


if __name__ == "__main__":
    main()
