"""Command-line entry point.

Each subcommand runs one experiment with its default config, optionally
overridden field by field by a JSON file and then by ``--seed``, and
writes a CSV table plus a JSON summary into the output directory.  A
config that cannot be read or breaks a field's rule exits with status 2
and a one-line error naming the field.  Exit status is 1 when a run
reports a hard invariant failure (e.g. a kernel-ordering violation).
"""

import argparse
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
    parser = _parser()
    args = parser.parse_args(argv)
    overrides = {} if args.seed is None else {"seed": args.seed}
    try:
        if args.config:
            cfg = ExperimentConfig.from_json(args.config, experiment=args.experiment, **overrides)
        else:
            cfg = default_config(args.experiment, **overrides)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    _, _, summary = run_experiment(cfg, out_dir=args.out)
    print("experiment: %s  config=%s" % (cfg.experiment, cfg.digest()))
    for key, val in sorted(summary.items()):
        if key not in ("experiment", "config_hash") and not isinstance(val, (list, dict)):
            print("  %s: %s" % (key, val))
    if summary["hard_fail"]:
        print("hard invariant failure -- see summary JSON", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
