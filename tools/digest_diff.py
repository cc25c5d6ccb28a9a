"""Every value that differs between two report digests.

    python3 tools/digest_diff.py A B

A and B are files written by ``report_digest.py``.  Prints each value that
differs with its path and, for two floats, its relative gap, largest gap
first (a changed non-float value counts as the largest).  Exits 1 if a row
value moves by more than ``ROW_RTOL`` relative or a verdict or any other
non-float value differs, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

ROW_RTOL = 1e-12


def leaves(obj, path=()):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from leaves(value, path + (key,))
    else:
        yield path, obj


def gap(a, b):
    """Relative gap of two values, 0 if equal (NaN equals NaN), inf unless both are floats."""
    if a == b or all(isinstance(x, float) and math.isnan(x) for x in (a, b)):
        return 0.0
    if not all(isinstance(x, float) for x in (a, b)) or math.isnan(a - b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def main(argv=None):
    old, new = (dict(leaves(json.load(open(path)))) for path in (argv or sys.argv[1:]))
    moved = sorted(((gap(old.get(k), new.get(k)), k) for k in old.keys() | new.keys()),
                   key=lambda m: (-m[0], str(m[1])))
    moved = [(g, k) for g, k in moved if g > 0.0]
    for g, k in moved:
        print(f"{'/'.join(map(str, k))}: {old.get(k)!r} -> {new.get(k)!r}  (rel {g:.3e})")
    bad = [k for g, k in moved if g == math.inf or (k[1:2] == ("rows",) and g > ROW_RTOL)]
    print(f"{len(moved)} values differ, {len(bad)} beyond the row tolerance or not floats")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
