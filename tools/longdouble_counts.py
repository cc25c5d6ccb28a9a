"""Longdouble work of the counterexample sweep and the sharpness run.

    python3 tools/longdouble_counts.py [--depth 10]

Runs counterexample-sweep and c2-sharpness at their default configs and
``--depth`` and prints one line per experiment:

* ``jacobi_calls`` and ``jacobi_mats``: calls to ``matrices._jacobi_eigh``
  and the matrices in them;
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
import math
import os
import sys
from contextlib import ExitStack
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from carlab import matrices  # noqa: E402
from carlab.lab import default_config, run_experiment  # noqa: E402

EXPERIMENTS = ("counterexample-sweep", "c2-sharpness")
COLUMNS = ("jacobi_calls", "jacobi_mats", "jacobi_distinct", "sweeps", "power_mats",
           "power_distinct")


def counts(experiment, depth):
    """The ``COLUMNS`` of one run, as a dict."""
    out = dict.fromkeys(COLUMNS, 0)
    caller = [None]  # "jacobi" or "power": whose stack ``_distinct`` groups
    distinct, jacobi = matrices._distinct, matrices._jacobi_eigh
    sweeps, power = matrices._jacobi_sweeps, matrices.eig_power

    def counting_distinct(rows):
        first, inverse = distinct(rows)
        out[f"{caller[0]}_distinct"] += len(first)
        return first, inverse

    def counting_jacobi(a):
        caller[0] = "jacobi"
        out["jacobi_calls"] += 1
        out["jacobi_mats"] += math.prod(np.shape(a)[:-2])
        return jacobi(a)

    def counting_sweeps(a, v):
        done = sweeps(a, v)
        out["sweeps"] += done
        return done

    def counting_power(vals, vecs, p, context=None):
        caller[0] = "power"
        if vals.dtype == np.longdouble:
            out["power_mats"] += math.prod(vals.shape[:-1])
        return power(vals, vecs, p, context)

    with ExitStack() as patches:
        for name, wrapper in (("_distinct", counting_distinct), ("_jacobi_eigh", counting_jacobi),
                              ("_jacobi_sweeps", counting_sweeps), ("eig_power", counting_power)):
            patches.enter_context(mock.patch.object(matrices, name, wrapper))
        run_experiment(default_config(experiment, depth=depth))
    return out


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
