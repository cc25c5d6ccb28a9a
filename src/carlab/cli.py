"""Command line front end: ``lab <experiment> --config cfg.json [flags]``.

Flags override the config file.  Exit codes: 0 all verdicts pass,
1 a verdict failed, 2 configuration error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ConfigError, LabError, NumericError
from .lab import EXPERIMENTS, default_config, run_experiment


@functools.cache
def build_parser():
    """The command line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Run one experiment of the embedding laboratory.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--eps", help="comma-separated eps grid, e.g. 0.1,0.01")
    parser.add_argument("--depth", type=int)
    parser.add_argument("--d", type=int)
    parser.add_argument("--seed", help="comma-separated seed list")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--budget", type=int, help="search evaluation budget")
    parser.add_argument("--objective", help="search objective")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _load_config(args):
    overrides = {}
    if args.config:
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
        overrides.pop("experiment", None)
    if args.eps:
        try:
            overrides["eps_grid"] = [float(x) for x in args.eps.split(",") if x]
        except ValueError as exc:
            raise ConfigError(f"bad --eps value: {args.eps}") from exc
    if args.seed:
        try:
            overrides["seeds"] = [int(x) for x in args.seed.split(",") if x]
        except ValueError as exc:
            raise ConfigError(f"bad --seed value: {args.seed}") from exc
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.d is not None:
        overrides["d"] = args.d
    if args.out:
        overrides["output_path"] = args.out
    if args.format:
        overrides["format"] = args.format
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.objective is not None:
        overrides["objective"] = args.objective
    cfg = default_config(args.experiment, **overrides)
    if not cfg.output_path:
        cfg.output_path = f"lab_{args.experiment}.{cfg.format}"
    out_dir = os.path.dirname(cfg.output_path) or "."
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir} is missing or not writable")
    if os.path.isdir(cfg.output_path):
        raise ConfigError(f"output path {cfg.output_path} is a directory")
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(f"{cfg.experiment}: {len(report.rows)} rows -> {cfg.output_path}")
        for name, ok in report.verdicts.items():
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
