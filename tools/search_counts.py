"""Work counts of one adversarial search, per objective.

    python3 tools/search_counts.py [--depth 3] [--d 2] [--seed 0]
                                   [--budget 400] [--cond-cap 1e4]
                                   [--objective NAME]

Runs ``adversarial_search`` on one config for each objective (or the one
named) and prints one line per objective:

* ``lookahead``: the objective's ``search.LOOKAHEAD``;
* ``batches``: batched evaluations (``_search_objective`` calls);
* ``candidates``: states those batches evaluated, dropped ones included;
* ``accepted``: moves that became a restart's current state;
* ``lapack_calls`` and ``lapack_mats``: calls to ``matrices.eigh_sym`` and
  ``matrices.eigvalsh_stack`` on float64 stacks, and the matrices in them.

A longer lookahead makes fewer batches but evaluates more candidates that
are dropped after an accepted move; these counts are what the lookahead
values rest on.  The package is loaded from the ``src/`` directory next to
this script's directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from carlab import matrices, search  # noqa: E402

COLUMNS = ("lookahead", "batches", "candidates", "accepted", "lapack_calls", "lapack_mats")


@contextmanager
def _wrapped(owner, name, before, after=None):
    """Run ``before(args)`` ahead of every call of ``owner.name`` and
    ``after(result)`` behind it, until the block ends."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        before(args)
        result = original(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _accepted(values):
    """Moves accepted in a climb whose kept values are ``values`` (restart, step):
    a step is accepted when it beats every value before it in its restart."""
    count = 0
    for row in values.tolist():
        current = row[0]
        for value in row[1:]:
            if value > current:
                count, current = count + 1, value
    return count


def counts(objective, **config):
    """The ``COLUMNS`` of one search, as a dict."""
    out = dict.fromkeys(COLUMNS, 0)
    out["lookahead"] = search.LOOKAHEAD[objective]

    def batch(args):
        out["batches"] += 1
        out["candidates"] += len(args[0])

    def lapack(args):
        mats = np.asarray(args[0])
        if mats.dtype == np.float64:
            out["lapack_calls"] += 1
            out["lapack_mats"] += math.prod(mats.shape[:-2])

    def climbed(result):  # a climb that starts over returns its rerun's result
        out["accepted"] = _accepted(result[0])

    with _wrapped(search, "_search_objective", batch), \
            _wrapped(search, "_climb", lambda args: None, climbed), \
            _wrapped(matrices, "eigh_sym", lapack), \
            _wrapped(matrices, "eigvalsh_stack", lapack):
        search.adversarial_search(objective=objective, **config)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=400)
    parser.add_argument("--cond-cap", type=float, default=1e4)
    parser.add_argument("--objective", choices=search.OBJECTIVES)
    args = parser.parse_args(argv)
    config = dict(depth=args.depth, d=args.d, seed=args.seed, budget=args.budget,
                  cond_cap=args.cond_cap)
    print(" ".join(f"{k}={v}" for k, v in config.items()))
    print(f"{'objective':<16}" + "".join(f"{c:>14}" for c in COLUMNS))
    for objective in [args.objective] if args.objective else search.OBJECTIVES:
        row = counts(objective, **config)
        print(f"{objective:<16}" + "".join(f"{row[c]:>14}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
