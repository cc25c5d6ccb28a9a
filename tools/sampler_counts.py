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
* ``eigh_calls`` and ``eigh_mats``: LAPACK ``eigh`` calls and the matrices
  in them, the change of ``matrices.TALLY`` over the call;
* ``traced_mb``: the tracemalloc peak of the call, above what was
  allocated before it;
* ``draw_calls``: the generator calls of the call, counted by a subclass
  of ``np.random.Generator`` (``CountingGenerator``) on the same stream.

After a warm-up at a few samples, the samplers run twice from the same
seed: once plain, for ``wall_s`` and ``rss_mb``, and once with tracemalloc
on and counting generators, for the other columns.  ``--block`` sets
``bellman.BLOCK``, the samples drawn and evaluated together; these numbers
are what its value rests on.  The package is loaded from the ``src/``
directory next to this script's directory.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from carlab import bellman, matrices  # noqa: E402

COLUMNS = ("wall_s", "rss_mb", "eigh_calls", "eigh_mats", "traced_mb", "draw_calls")
H = 1e-5  # bellman-certify's dm step


def _counted(name):
    """The draw method ``name`` of ``np.random.Generator``, counting its calls."""
    def draw(self, *args, **kwargs):
        self.calls += 1
        return getattr(np.random.Generator, name)(self, *args, **kwargs)
    return draw


class CountingGenerator(np.random.Generator):
    """``np.random.default_rng(seed)``'s stream, counting the calls of its
    draw methods in ``calls``; ``default_rng`` passes it through."""

    random, standard_normal, integers, uniform = map(
        _counted, ("random", "standard_normal", "integers", "uniform"))

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0


def samplers(samples, d_max, seed, generator=np.random.default_rng):
    """(name, call, the generator it draws from) of each sampler, in
    bellman-certify's order; the three sampling checks draw from one
    ``generator(seed)``, one after the other, and the probe from another."""
    rng, probe = generator(seed), generator(seed)
    return [
        ("size", lambda: bellman.size_gaps(rng, samples, d_max), rng),
        ("concavity", lambda: bellman.concavity_gaps(rng, samples, d_max), rng),
        ("dm", lambda: bellman.dm_gaps(rng, samples, d_max, H), rng),
        ("probe", lambda: bellman.matrix_parameter_probe(2, min(samples, 2000), probe), probe),
    ]


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def plain(call):
    """``wall_s`` and ``rss_mb`` of ``call()``."""
    rss, start = _max_rss_mb(), time.perf_counter()
    call()
    return {"wall_s": round(time.perf_counter() - start, 4),
            "rss_mb": round(_max_rss_mb() - rss, 2)}


def traced(call, rng):
    """``eigh_calls``, ``eigh_mats``, ``traced_mb`` and ``draw_calls`` of
    ``call()``, which draws from the ``CountingGenerator`` ``rng``."""
    before, draws = matrices.TALLY.copy(), rng.calls
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = matrices.TALLY - before
    return {"eigh_calls": work["eigh_calls"], "eigh_mats": work["eigh_mats"],
            "traced_mb": round(peak / 2**20, 2), "draw_calls": rng.calls - draws}


def counts(samples, d_max=4, seed=0):
    """The ``COLUMNS`` of each sampler, by name: a pass over the samplers at
    a few samples, which pays what the first calls load, then a plain pass
    and a traced one from the same seed, on counting generators."""
    for _, call, _ in samplers(min(samples, 16), d_max, seed):
        call()
    rows = {name: plain(call) for name, call, _ in samplers(samples, d_max, seed)}
    for name, call, rng in samplers(samples, d_max, seed, CountingGenerator):
        rows[name].update(traced(call, rng))
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
