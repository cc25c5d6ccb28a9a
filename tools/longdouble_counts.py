"""Longdouble work of the counterexample sweep and the sharpness run.

    python3 tools/longdouble_counts.py [--depth 10]

Runs counterexample-sweep and c2-sharpness at their default configs and
``--depth`` and prints one line per experiment, each count the change of
``matrices.TALLY`` over the run:

* ``jacobi_calls`` and ``jacobi_mats``: calls to the Jacobi solver
  (``matrices._jacobi_eigh``) and the matrices in them;
* ``jacobi_distinct``: the distinct matrices among them, the ones the
  Jacobi sweeps solve (``matrices._distinct``);
* ``sweeps``: the sweeps that rotated, summed over the calls;
* ``power_mats`` and ``power_distinct``: members of the longdouble stacks
  given to ``matrices.eig_power``, and the distinct ones among them, which
  are powered and contracted.

Both experiments build a constant matrix weight on a full dyadic tree, so
their stacks repeat a few matrices; these counts show how few.  The
package is loaded from the ``src/`` directory next to this script's
directory.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from carlab import matrices  # noqa: E402
from carlab.lab import default_config, run_experiment  # noqa: E402

EXPERIMENTS = ("counterexample-sweep", "c2-sharpness")
# each column and the ``matrices.TALLY`` key it reads
COLUMNS = {"jacobi_calls": "jacobi_calls", "jacobi_mats": "jacobi_mats",
           "jacobi_distinct": "jacobi_distinct", "sweeps": "jacobi_sweeps",
           "power_mats": "power_longdouble_mats", "power_distinct": "power_longdouble_distinct"}


def counts(experiment, depth):
    """The ``COLUMNS`` of one run, as a dict."""
    before = matrices.TALLY.copy()
    run_experiment(default_config(experiment, depth=depth))
    work = matrices.TALLY - before
    return {column: work[key] for column, key in COLUMNS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depth", type=int, default=10)
    args = parser.parse_args(argv)
    print(f"depth={args.depth}")
    print(f"{'experiment':<22}" + "".join(f"{c:>16}" for c in COLUMNS))
    for experiment in EXPERIMENTS:
        row = counts(experiment, args.depth)
        print(f"{experiment:<22}" + "".join(f"{row[c]:>16}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
