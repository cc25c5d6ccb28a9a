"""Work, time and memory of the Bellman samplers, per sampler.

    python3 tools/sampler_counts.py [--samples 1000] [--d-max 4] [--seed 0]
                                    [--block N]

Runs the samplers of bellman-certify in its order (``size_gaps``,
``concavity_gaps`` and ``dm_gaps`` from one generator seeded with
``--seed``, then ``matrix_parameter_probe`` on min(samples, 2000) pairs)
and prints one line per sampler:

* ``wall_s``: wall time of the call;
* ``rss_mb``: growth of the process's peak resident memory (``ru_maxrss``)
  over the call, so 0 when the call stayed below an earlier peak;
* ``eigh_calls`` and ``eigh_mats``: calls to ``np.linalg.eigh`` and the
  matrices in them;
* ``traced_mb``: the tracemalloc peak of the call, above what was
  allocated before it.

After a warm-up at a few samples, the samplers run twice from the same
seed: once plain, for ``wall_s`` and ``rss_mb``, and once with ``eigh``
counted and tracemalloc on.  ``--block``
sets ``bellman.BLOCK``, the samples drawn and evaluated together; these
numbers are what its value rests on.  The package is loaded from the
``src/`` directory next to this script's directory.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from carlab import bellman  # noqa: E402

COLUMNS = ("wall_s", "rss_mb", "eigh_calls", "eigh_mats", "traced_mb")
H = 1e-5  # bellman-certify's dm step


def samplers(samples, d_max, seed):
    """(name, call) of each sampler, in bellman-certify's order; the three
    sampling checks draw from one generator, one after the other."""
    rng = np.random.default_rng(seed)
    return [
        ("size", lambda: bellman.size_gaps(rng, samples, d_max)),
        ("concavity", lambda: bellman.concavity_gaps(rng, samples, d_max)),
        ("dm", lambda: bellman.dm_gaps(rng, samples, d_max, H)),
        ("probe", lambda: bellman.matrix_parameter_probe(2, min(samples, 2000), seed)),
    ]


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def plain(call):
    """``wall_s`` and ``rss_mb`` of ``call()``."""
    rss, start = _max_rss_mb(), time.perf_counter()
    call()
    return {"wall_s": round(time.perf_counter() - start, 4),
            "rss_mb": round(_max_rss_mb() - rss, 2)}


def traced(call):
    """``eigh_calls``, ``eigh_mats`` and ``traced_mb`` of ``call()``."""
    eigh, mats = np.linalg.eigh, []

    def counting(a):
        mats.append(math.prod(np.shape(a)[:-2]))
        return eigh(a)

    with mock.patch.object(np.linalg, "eigh", counting):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"eigh_calls": len(mats), "eigh_mats": sum(mats), "traced_mb": round(peak / 2**20, 2)}


def counts(samples, d_max=4, seed=0):
    """The ``COLUMNS`` of each sampler, by name: a pass over the samplers at
    a few samples, which pays what the first calls load, then a plain pass
    and a traced one from the same seed."""
    for _, call in samplers(min(samples, 16), d_max, seed):
        call()
    rows = {name: plain(call) for name, call in samplers(samples, d_max, seed)}
    for name, call in samplers(samples, d_max, seed):
        rows[name].update(traced(call))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--d-max", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block", type=int, default=bellman.BLOCK)
    args = parser.parse_args(argv)
    if args.samples < 1 or args.d_max < 1 or args.block < 1:
        parser.error("--samples, --d-max and --block must be at least 1")
    with mock.patch.object(bellman, "BLOCK", args.block):
        print(f"samples={args.samples} d_max={args.d_max} seed={args.seed} block={args.block}")
        print(f"{'sampler':<10}" + "".join(f"{c:>12}" for c in COLUMNS))
        for name, row in counts(args.samples, args.d_max, args.seed).items():
            print(f"{name:<10}" + "".join(f"{row[c]:>12}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
