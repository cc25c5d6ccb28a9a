"""Run one perfbench workload at a range of seeds and list the seeds that fail.

    python3 tools/seed_sweep.py --workload NAME --seeds A:B

For every seed A <= s < B, runs the experiments that
``perfbench/run.py:workload_configs(NAME, s)`` names, in this process,
through ``carlab.cli.main``, with the reports written to a temporary
directory.  A seed fails when any of its runs exits other than 0; each
failing seed is printed with its exit codes, after the lab's own message
on stderr, and the last line counts the failing seeds.  Exits 1 if any
seed failed, else 0.

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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from carlab import cli  # noqa: E402


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seed_range(text):
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
    if not 0 <= lo < hi:
        raise argparse.ArgumentTypeError(f"need 0 <= A < B, got {text!r}")
    return range(lo, hi)


def exit_codes(workload_configs, workload, seed, workdir):
    """The ``cli.main`` exit code of each run of ``workload`` at ``seed``."""
    codes = []
    for i, (experiment, config) in enumerate(workload_configs(workload, seed)):
        cfg_path = os.path.join(workdir, f"config{i}.json")
        with open(cfg_path, "w") as fh:
            json.dump(dict(config, output_path=os.path.join(workdir, f"report{i}.json"),
                           format="json"), fh)
        codes.append(cli.main([experiment, "--config", cfg_path, "--quiet"]))
    return codes


def main(argv=None):
    run = _perfbench_run()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=_seed_range, metavar="A:B",
                        help="seeds A to B - 1")
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            codes = exit_codes(run.workload_configs, args.workload, seed, workdir)
            if any(codes):
                failed += 1
                print(f"seed {seed}: exit {' '.join(map(str, codes))}")
    print(f"{args.workload} seeds {args.seeds.start}:{args.seeds.stop}: "
          f"{failed} of {len(args.seeds)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
