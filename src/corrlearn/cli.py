"""Command-line driver: seeded experiment runners plus a policy dump.

Exit codes: 0 success, 2 configuration error, 3 solver ceiling exceeded,
4 internal error (an invariant violation, or a KeyError: no input raises one).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core import Categorical
from .dp import CeilingExceededError, policy_dump, solve
from .experiments import (
    ConfigError,
    ExperimentConfig,
    InvariantViolationError,
    run_and_format,
    write_output,
)
from .mdp import MdpSpec, l1_terminal_reward

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CEILING = 3
EXIT_INVARIANT = 4


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")


def _add_experiment_parser(sub: argparse._SubParsersAction, name: str, help_text: str):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, required=True,
                   help="root seed (required: runs must be reproducible)")
    p.add_argument("--trials", type=int)
    p.add_argument("--n-values", type=_int_list, metavar="N[,N...]",
                   help="observation-count grid (single value for multinomial/binomial)")
    p.add_argument("--budgets", type=_int_list, metavar="B[,B...]")
    p.add_argument("--m-values", type=_int_list, metavar="M[,M...]",
                   help="alphabet-maximum grid (bounds experiment)")
    p.add_argument("--theta0", type=_float_list, metavar="P[,P...]")
    p.add_argument("--candidates", help="candidate-set file (bio experiment)")
    p.add_argument("--theta0-label", type=int, help="true model label (bio experiment)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlearn",
        description="Budget-constrained observation correction: experiments and policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_experiment_parser(sub, "multinomial",
                           "per-trial original/online/batch errors, three-value source")
    _add_experiment_parser(sub, "binomial",
                           "two-value source with the closed-form attainable error")
    _add_experiment_parser(sub, "variance",
                           "corrected-estimate variance over an (n, budget) grid")
    _add_experiment_parser(sub, "bounds",
                           "Monte-Carlo verification of the variance-decrease bounds")
    _add_experiment_parser(sub, "bio",
                           "model-identification misclassification rates")

    ps = sub.add_parser("solve", help="solve a policy and dump it as text")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--budget", type=int, required=True)
    ps.add_argument("--theta0", type=_float_list, required=True, metavar="P[,P...]")
    ps.add_argument("--out", help="output path (default: stdout)")
    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = dict(
        experiment=args.command,
        seed=args.seed,
        trials=args.trials,
        n_values=args.n_values,
        budgets=args.budgets,
        m_values=args.m_values,
        theta0=args.theta0,
        candidates=args.candidates,
        theta0_label=args.theta0_label,
        output=args.out,
        fmt=args.fmt,
    )
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    clean = {k: v for k, v in overrides.items() if v is not None}
    clean.setdefault("experiment", args.command)
    return ExperimentConfig(**clean)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            theta0 = Categorical(args.theta0)
            spec = MdpSpec(k=theta0.k, n=args.n, budget=args.budget,
                           model=theta0, reward=l1_terminal_reward(theta0))
            policy, _ = solve(spec)
            write_output(policy_dump(policy), args.out)
            return EXIT_OK
        config = _experiment_config(args)
        text = run_and_format(config)
        write_output(text, config.output)
        return EXIT_OK
    except CeilingExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except (InvariantViolationError, KeyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
