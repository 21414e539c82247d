"""Command-line driver: seeded experiment runners plus a policy dump.

Each ``experiments.EXPERIMENTS`` entry becomes a subcommand with its help
line, ``--config``, ``--seed``, ``--out``, ``--format`` and one flag per
parameter; ``--help`` shows each default. A flag or config-file field the
experiment does not read, and an abbreviated flag, exit 2.

Exit codes: 0 success; 2 bad input (a ``ConfigError`` from a check on flags or
files, made before any solve or draw, or an ``OSError``); 3 a ceiling (solver
states, ``bounds`` trials or draws per point, sampled draws); 4 any other
error, a bug.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core import Categorical, ConfigError
from .dp import CeilingExceededError, policy_dump, solve
from .experiments import EXPERIMENTS, FIELD_TYPES, ExperimentConfig, run_and_format, write_output
from .mdp import MdpSpec, l1_terminal_reward

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CEILING = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlearn",
        description="Budget-constrained observation correction: experiments and policies.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.help, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--seed", type=int, required=True,
                       help="root seed (required: runs must be reproducible)")
        p.add_argument("--out", dest="output", metavar="PATH",
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")
        for field, default in experiment.defaults.items():
            if default is None:
                default = "the built-in set"
            elif isinstance(default, tuple):
                default = ",".join(map(str, default))
            p.add_argument("--" + field.replace("_", "-"), type=FIELD_TYPES[field][2],
                           help=f"default: {default}")

    ps = sub.add_parser("solve", help="solve a policy and dump it as text", allow_abbrev=False)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--budget", type=int, required=True)
    ps.add_argument("--theta0", type=FIELD_TYPES["theta0"][2], required=True, metavar="P[,P...]")
    ps.add_argument("--out", help="output path (default: stdout)")
    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = dict(experiment=args.command, seed=args.seed, output=args.output, fmt=args.fmt)
    overrides.update((field, getattr(args, field)) for field in EXPERIMENTS[args.command].defaults)
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _solve_spec(args: argparse.Namespace) -> MdpSpec:
    """The ``solve`` flags as a spec; a bad value raises ``ConfigError``."""
    try:
        theta0 = Categorical(args.theta0)
        spec = MdpSpec(n=args.n, model=theta0, reward=l1_terminal_reward(theta0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.budget < 0:
        raise ConfigError("budget must be nonnegative")
    return spec


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            write_output(policy_dump(solve(_solve_spec(args), (args.budget,))), args.out)
            return EXIT_OK
        config = _experiment_config(args)
        write_output(run_and_format(config), config.output)
        return EXIT_OK
    except (ConfigError, OSError, CeilingExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CEILING if isinstance(exc, CeilingExceededError) else EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
