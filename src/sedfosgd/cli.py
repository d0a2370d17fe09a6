"""Command-line entry point.

    sedfosgd run     --config cfg [--seed N] [--out path] [--override k=v]...
    sedfosgd sweep   --config cfg --seeds N [--override k=v]...
    sedfosgd ratefit --config cfg [--seeds N] [--override k=v]...

Exit codes: 0 success; 1 malformed command line, validation error, file
error (OSError) or failed eigensolve (NumericalError); 2 divergence of the
optimizer or of the simulated data (GenerationError).
"""

import argparse
import sys

from . import harness
from .harness import ConfigError
from .mathkit import NumericalError
from .optim import DivergenceError
from .problems import GenerationError


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line, in any subcommand, as a ConfigError
    (exit 1, one line) rather than a usage block and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override any config key")


def build_parser():
    parser = _Parser(prog="sedfosgd")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)
    p_run.add_argument("--out", default=None, help="trace CSV output path")

    p_sweep = sub.add_parser("sweep", help="run a multi-seed sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=20, help="number of seeds")

    p_rate = sub.add_parser("ratefit", help="fit the running-min convergence rate")
    _add_common(p_rate)
    p_rate.add_argument("--seeds", type=int, default=1,
                        help="seeds to average the running-min series over")
    return parser


def _load(args):
    overrides = harness.parse_overrides(args.override)
    for key in ("seed", "out"):  # `--out` is a `run` option only
        if getattr(args, key, None) is not None:
            overrides[key] = getattr(args, key)
    return harness.load_config(args.config, overrides)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = _load(args)
        if args.command == "run":
            result = harness.run(config)
            for key, value in result.summary.items():
                print(f"{key} = {value}")
        elif args.command == "sweep":
            sweep = harness.seed_sweep(config, args.seeds)
            print(f"seeds = {len(sweep.seeds)}  failures = {sweep.failures}")
            for failure in sweep.failed:
                print(f"failed: {failure}")
            for key, stats in sweep.aggregate.items():
                print(f"{key}: mean={stats['mean']:.6g} "
                      f"median={stats['median']:.6g} iqr={stats['iqr']:.6g}")
        else:
            fit = harness.seed_rate_fit(config, args.seeds)
            print(f"slope = {fit.slope}")
            print(f"intercept = {fit.intercept}")
            print(f"r_squared = {fit.r_squared}")
            print(f"fit_window = {fit.window_start} {fit.window_start + fit.points - 1}")
            print(f"fit_points = {fit.points}")
    except (ConfigError, ValueError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, GenerationError) as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
