"""Run one perfbench workload at a range of seeds and list the seeds that fail.

    python3 tools/seed_sweep.py --workload NAME --seeds A:B [--digest PATH]

For every seed A <= s < B, runs the experiments that
``perfbench/run.py:workload_configs(NAME, s)`` names, in this process,
through ``carlab.cli.main``, with the reports written to a temporary
directory.  A seed fails when any of its runs exits other than 0; each
failing seed is printed with its exit codes, after the lab's own message
on stderr, and the last line counts the failing seeds.  Exits 1 if any
seed failed, else 0.

``--digest PATH`` also writes every run's rows, aggregates (without
``elapsed_seconds``) and verdicts in ``tools/report_digest.py``'s canonical
JSON, keyed ``"<experiment> seed <s> run <i>"`` (run i of seed s, null if
it made no report), so that ``tools/digest_diff.py`` compares two
checkouts at any seeds.

A perfbench run fails as a whole when one of its children fails, so this
finds the seeds at which a workload cannot be benchmarked.  The package
is loaded from the ``src/`` directory next to this script's directory;
``perfbench/`` is only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from carlab import cli  # noqa: E402


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_run():
    return _load("perfbench_run", ROOT / "perfbench" / "run.py")


report_digest = _load("report_digest", ROOT / "tools" / "report_digest.py")


def _seed_range(text):
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
    if not 0 <= lo < hi:
        raise argparse.ArgumentTypeError(f"need 0 <= A < B, got {text!r}")
    return range(lo, hi)


def _report_path(workdir, i):
    return os.path.join(workdir, f"report{i}.json")


def exit_codes(workload_configs, workload, seed, workdir):
    """The ``cli.main`` exit code of each run of ``workload`` at ``seed``."""
    codes = []
    for i, (experiment, config) in enumerate(workload_configs(workload, seed)):
        cfg_path = os.path.join(workdir, f"config{i}.json")
        with open(cfg_path, "w") as fh:
            json.dump(dict(config, output_path=_report_path(workdir, i), format="json"), fh)
        codes.append(cli.main([experiment, "--config", cfg_path, "--quiet"]))
    return codes


def main(argv=None):
    run = _perfbench_run()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=_seed_range, metavar="A:B",
                        help="seeds A to B - 1")
    parser.add_argument("--digest", metavar="PATH",
                        help="also write every run's rows, aggregates and verdicts here")
    args = parser.parse_args(argv)
    failed, reports, digest, run_experiment = 0, {}, {}, cli.run_experiment

    def recorded(cfg):  # each run's report, by its output path
        report = reports[cfg.output_path] = run_experiment(cfg)
        return report

    with tempfile.TemporaryDirectory() as workdir, mock.patch.object(cli, "run_experiment", recorded):
        for seed in args.seeds:
            codes = exit_codes(run.workload_configs, args.workload, seed, workdir)
            for i, (experiment, _) in enumerate(run.workload_configs(args.workload, seed)):
                report = reports.pop(_report_path(workdir, i), None)
                digest[f"{experiment} seed {seed} run {i}"] = (
                    None if report is None else report_digest.digest_entry(report))
            if any(codes):
                failed += 1
                print(f"seed {seed}: exit {' '.join(map(str, codes))}")
    print(f"{args.workload} seeds {args.seeds.start}:{args.seeds.stop}: "
          f"{failed} of {len(args.seeds)} failed")
    if args.digest:
        with open(args.digest, "w") as fh:
            fh.write(report_digest.canonical_json(digest))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
