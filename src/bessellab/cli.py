"""Command-line entry point.

Each subcommand runs one experiment with its default config, optionally
overridden by a JSON file, and writes a CSV table plus a JSON summary
into the output directory.  Exit status is nonzero when a run reports a
hard invariant failure (e.g. a kernel-ordering violation).
"""

import argparse
import dataclasses
import sys

from .lab import ExperimentConfig, default_config, run_experiment

_COMMANDS = {
    "hard-edge": "hard_edge_limit",
    "approx-limit": "approx_limit",
    "sandwich": "sandwich_chain",
    "equilibrium": "equilibrium_report",
    "dpp": "dpp_stats",
}


def _parser():
    p = argparse.ArgumentParser(
        prog="bessellab",
        description="hard-edge kernel and equilibrium-measure experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, experiment in _COMMANDS.items():
        q = sub.add_parser(name, help="run the %s experiment" % experiment)
        q.add_argument("--config", help="JSON file overriding the default config")
        q.add_argument("--out", default="results", help="output directory")
        q.add_argument("--seed", type=int, help="master seed override")
        q.set_defaults(experiment=experiment)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.config:
        cfg = ExperimentConfig.from_json(args.config, experiment=args.experiment)
    else:
        cfg = default_config(args.experiment)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    _, _, summary = run_experiment(cfg, out_dir=args.out)
    print("experiment: %s  config=%s" % (cfg.experiment, cfg.digest()))
    for key in sorted(summary):
        if key in ("config", "experiment", "config_hash"):
            continue
        val = summary[key]
        if isinstance(val, (list, dict)):
            continue
        print("  %s: %s" % (key, val))
    if "csv" in summary:
        print("  wrote %s" % summary["csv"])
    if summary.get("hard_fail"):
        print("hard invariant failure -- see summary JSON", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
