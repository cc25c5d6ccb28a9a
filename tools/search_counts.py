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
  ``matrices.eigvalsh_stack`` on float64 stacks, and the matrices in them;
* ``power_mats``: matrices raised to a power by ``matrices.eig_power``;
* ``weight_leaves``: leaf weights built by ``search._state_weights``.

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
from contextlib import ExitStack
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from carlab import matrices, search  # noqa: E402

COLUMNS = ("lookahead", "batches", "candidates", "accepted", "lapack_calls", "lapack_mats",
           "power_mats", "weight_leaves")


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
    search_objective, climb, state_weights = (
        search._search_objective, search._climb, search._state_weights)
    eigh_sym, eigvalsh_stack, power = matrices.eigh_sym, matrices.eigvalsh_stack, matrices.eig_power

    def batch(log_eigs, *args, **kwargs):
        out["batches"] += 1
        out["candidates"] += len(log_eigs)
        return search_objective(log_eigs, *args, **kwargs)

    def climbing(*args, **kwargs):
        result = climb(*args, **kwargs)
        out["accepted"] = _accepted(result[0])
        return result

    def lapack(original):
        def counting(mats):
            if np.asarray(mats).dtype == np.float64:
                out["lapack_calls"] += 1
                out["lapack_mats"] += math.prod(np.shape(mats)[:-2])
            return original(mats)
        return counting

    def powered(vals, *args, **kwargs):  # one matrix per spectrum
        out["power_mats"] += math.prod(np.shape(vals)[:-1])
        return power(vals, *args, **kwargs)

    def weights(log_eigs, *args):  # one leaf per row of log_eigs
        out["weight_leaves"] += math.prod(np.shape(log_eigs)[:-1])
        return state_weights(log_eigs, *args)

    with ExitStack() as patches:
        for owner, name, wrapper in (
                (search, "_search_objective", batch), (search, "_climb", climbing),
                (matrices, "eigh_sym", lapack(eigh_sym)),
                (matrices, "eigvalsh_stack", lapack(eigvalsh_stack)),
                (matrices, "eig_power", powered), (search, "_state_weights", weights)):
            patches.enter_context(mock.patch.object(owner, name, wrapper))
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
