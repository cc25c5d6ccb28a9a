"""Canonical digest of every experiment's report at its default config.

    python3 tools/report_digest.py --out FILE [--only NAME ...] [--stamp FILE]

Runs the seven experiments at ``default_config`` (adversarial-search once
per objective) and writes their rows, aggregates and verdicts as one
canonical JSON document: keys sorted, floats in their shortest exact form,
and ``elapsed_seconds``, the one timing, left out.  Two checkouts that
compute the same reports write byte-identical files, so ``diff`` of two
digests shows every row that moved.  The package is loaded from the
``src/`` directory next to this script's directory.

``--only NAME``, repeatable, keeps the runs of the named experiments, or
one run such as ``adversarial-search:red_ratio``, so that one experiment's
digest can be compared on its own.  ``--stamp FILE`` also writes
``carlab.lab.environment_stamp()``: what, besides the code, the digest's
floats depend on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from carlab.lab import (  # noqa: E402
    EXPERIMENTS, OBJECTIVES, default_config, environment_stamp, run_experiment,
)


def runs():
    """(name, config) of every digested run, in digest order."""
    for experiment in EXPERIMENTS:
        if experiment == "adversarial-search":
            for objective in OBJECTIVES:
                yield f"{experiment}:{objective}", default_config(experiment, objective=objective)
        else:
            yield experiment, default_config(experiment)


def digest_entry(report):
    """The rows, aggregates (without timing) and verdicts of one report."""
    aggregates = {k: v for k, v in report.aggregates.items() if k != "elapsed_seconds"}
    return {"rows": report.rows, "aggregates": aggregates, "verdicts": report.verdicts}


def canonical_json(obj):
    """Sorted keys, one item per line, numpy scalars as Python numbers."""
    return json.dumps(obj, sort_keys=True, indent=1, default=lambda x: x.item()) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="digest output path")
    names = [name for name, _ in runs()]
    parser.add_argument("--only", action="append", metavar="NAME",
                        choices=[*EXPERIMENTS, *(n for n in names if n not in EXPERIMENTS)],
                        help="digest only this experiment or run (repeatable)")
    parser.add_argument("--stamp", help="environment stamp output path")
    args = parser.parse_args(argv)
    digest = {}
    for name, cfg in runs():
        if args.only and name not in args.only and name.split(":")[0] not in args.only:
            continue
        print(f"running {name}", file=sys.stderr, flush=True)
        digest[name] = digest_entry(run_experiment(cfg))
    with open(args.out, "w") as fh:
        fh.write(canonical_json(digest))
    if args.stamp:
        with open(args.stamp, "w") as fh:
            fh.write(canonical_json(environment_stamp()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
