"""Command line front end.

Subcommands: `run <cfg>`, `sweep <cfg> --param p --values v1,v2,...`,
`ablate <cfg>`, `eval <checkpoint> <data>`. Every subcommand accepts
--threads (cap BLAS/OpenMP threads); run, sweep and ablate also accept
--seed (replace the config's seed list with one seed) and --out (override
the output directory), which `eval` rejects. Environment
variables override exactly two things: CPNSLAB_OUT for the output
directory and CPNSLAB_THREADS for the thread cap; explicit flags win over
both. Exit codes: 0 success, 2 configuration or data validation failure,
3 violation-bound breach, 4 training diverged (a non-finite gradient or
parameter from a valid config).
"""

import argparse
import dataclasses
import json
import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_threads(n):
    # Must happen before numpy is imported anywhere in this process.
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpnslab",
        description="Class-incremental learning runs with counterfactual "
                    "probability-of-necessity-and-sufficiency regularization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def threads(sp):
        sp.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP thread count")

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help="replace the config seed list with this seed")
        sp.add_argument("--out", default=None,
                        help="override the output directory")
        threads(sp)

    p = sub.add_parser("run", help="run the incremental loop for every seed")
    p.add_argument("config", help="path to a JSON experiment config")
    common(p)

    p = sub.add_parser("sweep", help="re-run across values of one knob")
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--param", required=True,
                   help="one of lambda, gamma, beta, epsilon, alpha, nu")
    p.add_argument("--values", required=True,
                   help="comma-separated numeric values")
    common(p)

    p = sub.add_parser("ablate", help="run the six-variant ablation grid")
    p.add_argument("config", help="path to a JSON experiment config")
    common(p)

    p = sub.add_parser("eval", help="score a checkpoint on a tabular file")
    p.add_argument("checkpoint", help="path to a saved checkpoint")
    p.add_argument("data", help="path to a tabular data file")
    threads(p)
    return parser


def _resolve_threads(args):
    """The thread cap from --threads or CPNSLAB_THREADS; ValueError if the
    variable is not an integer."""
    if args.threads is not None:
        return args.threads
    raw = os.environ.get("CPNSLAB_THREADS")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CPNSLAB_THREADS must be an integer, got {raw!r}")


def _parse_values(raw):
    values = []
    for part in raw.split(","):
        part = part.strip()
        if part:
            values.append(float(part))
    if not values:
        raise ValueError("empty value list")
    return values


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        threads = _resolve_threads(args)
    except ValueError as exc:
        print(f"cpnslab: {exc}", file=sys.stderr)
        return 2
    if threads is not None:
        if threads < 1:
            print("cpnslab: thread count must be positive", file=sys.stderr)
            return 2
        _pin_threads(threads)

    # deferred so the thread pin above precedes numpy's BLAS setup
    import numpy as np

    from . import experiment as ex
    from .errors import (ConfigurationError, CpnslabError, NumericsError,
                         PropositionViolation)

    # a diverging run's own finite checks report it with exit 4; numpy's
    # overflow and invalid-value warnings on the way there stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if args.command == "eval":
                result = ex.evaluate_checkpoint(args.checkpoint, args.data)
                print(json.dumps(result, sort_keys=True))
                return 0

            config = ex.load_config(args.config)
            out = (args.out or os.environ.get("CPNSLAB_OUT")
                   or config.output_dir)
            seeds = config.seeds if args.seed is None else (args.seed,)
            # through the constructor, so the overrides are validated
            config = dataclasses.replace(config, output_dir=out, seeds=seeds)

            if args.command == "run":
                rows = ex.run_experiment(config)
                path = os.path.join(config.run_dir, "summary.csv")
                print(f"wrote {len(rows)} seed row(s) to {path}")
            elif args.command == "sweep":
                try:
                    values = _parse_values(args.values)
                except ValueError:
                    raise ConfigurationError(
                        f"--values must be comma-separated numbers, "
                        f"got {args.values!r}")
                ex.run_sweep(config, args.param, values)
                path = os.path.join(config.run_dir, f"sweep-{args.param}.csv")
                print(f"wrote {len(values)} sweep row(s) to {path}")
            else:  # ablate
                table = ex.run_ablation(config)
                path = os.path.join(config.run_dir, "ablation.csv")
                print(f"wrote {len(table)} variant row(s) to {path}")
            return 0
        except PropositionViolation as exc:
            print(f"cpnslab: invariant breach: {exc}", file=sys.stderr)
            return 3
        except NumericsError as exc:
            print(f"cpnslab: training diverged: {exc}", file=sys.stderr)
            return 4
        except (CpnslabError, OSError) as exc:
            print(f"cpnslab: {exc}", file=sys.stderr)
            return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
