"""Print the cost of each phase of a default dpp_stats run in this process.

After the import and a reduced warm-up (m = 128, 8 samples, which loads
scipy.special and the BLAS), the script computes the m-point Gauss-Legendre
rule of ``nystrom`` cold, ``orthopoly.weight_quadrature(0, 1, m)``, then
runs the three library phases of ``lab.dpp_stats`` at the default config,
(nu, T, m) = (0, 1e4, 512) with 500 samples, and prints one line after
each:

    <phase> wall_ms=<time of the phase> maxrss_mb=<ru_maxrss so far>
            minflt=<minor page faults in the phase>

ru_maxrss is the peak resident set of the process up to that point, so
the phase that raises it is the one that sets the run's peak.  The
``nystrom`` line then excludes the rule, which it finds cached.  The package
is imported from the checkout's own src/; run it in a fresh process:

    python tools/dpp_phases.py
"""

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bessellab.dpp import exact_count_law, nystrom, sample_many  # noqa: E402
from bessellab.lab import default_config  # noqa: E402
from bessellab.orthopoly import weight_quadrature  # noqa: E402

_last = [time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt]


def report(phase):
    now = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print("%-16s wall_ms=%8.1f maxrss_mb=%6.1f minflt=%6d" % (
        phase, 1e3 * (now - _last[0]), usage.ru_maxrss / 1024.0, usage.ru_minflt - _last[1]))
    _last[:] = [time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt]


def main():
    report("import")
    small = nystrom(0.0, 100.0, 128)
    sample_many(small, 8, 1)
    exact_count_law(small, [10.0, 100.0])
    report("warm-up")
    cfg = default_config("dpp_stats")
    weight_quadrature(0.0, 1.0, cfg.m)
    report("gauss rule")
    kern = nystrom(cfg.nu, max(cfg.thresholds), cfg.m)
    report("nystrom")
    sample_many(kern, cfg.n_samples, cfg.seed)
    report("sample_many")
    exact_count_law(kern, cfg.thresholds)
    report("exact_count_law")


if __name__ == "__main__":
    main()
