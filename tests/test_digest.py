"""The default runs against the golden digest ``tests/data/digest.json``.

The golden file was written by ``tools/report_digest.py --stamp``, which
also wrote ``tests/data/digest_stamp.json``: numpy, its BLAS and the
kernel OpenBLAS chose, the SIMD kernels numpy dispatches to, the longdouble
epsilon, Python and the machine.  A fresh digest of
the session's default runs (``conftest.default_reports``) is compared leaf
by leaf through ``tools/digest_diff.py``: verdicts and every non-float value
must be equal, and floats must agree within ``ROW_RTOL``.  Rows are compared
only under the same stamp, since another BLAS or CPU rounds differently and
the search amplifies that.

A change that means to move rows writes both files again, at that change,
and lists the moved values (``tools/digest_diff.py``).
"""

import json
import math
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def digests(tool, default_reports):
    """(golden, fresh) leaves of the two digests, by path."""
    report_digest, digest_diff = tool("report_digest"), tool("digest_diff")
    text = (DATA / "digest.json").read_text()
    golden = json.loads(text)
    assert report_digest.canonical_json(golden) == text  # as the tool writes it
    fresh = {name: report_digest.digest_entry(default_reports[name])
             for name in default_reports.configs}
    fresh = json.loads(report_digest.canonical_json(fresh))
    return dict(digest_diff.leaves(golden)), dict(digest_diff.leaves(fresh))


def _moved(digests, parts, tool):
    """Each leaf of the ``parts`` of a run (rows, aggregates, verdicts) that
    is missing on one side, differs as a non-float, or moves beyond ROW_RTOL."""
    digest_diff = tool("digest_diff")
    golden, fresh = digests
    moved = []
    for path in sorted(golden.keys() | fresh.keys(), key=str):
        if path[1] in parts:
            gap = digest_diff.gap(golden.get(path), fresh.get(path))
            if gap == math.inf or gap > digest_diff.ROW_RTOL:
                moved.append(f"{'/'.join(map(str, path))}: {golden.get(path)!r} -> "
                              f"{fresh.get(path)!r}")
    return moved


def test_digest_runs_are_the_golden_runs(digests, default_reports):
    assert {path[0] for path in digests[0]} == set(default_reports.configs)


def test_golden_digest_verdicts_and_aggregates(digests, tool):
    moved = _moved(digests, {"verdicts", "aggregates"}, tool)
    assert not moved, "\n".join(moved[:20])


def test_golden_digest_rows(digests, tool):
    stamp = json.loads((DATA / "digest_stamp.json").read_text())
    here = tool("report_digest").environment_stamp()
    if here != stamp:
        pytest.skip(f"stamp {here} differs from the golden digest's {stamp}: rows not "
                    f"compared, only verdicts and aggregates (the test above)")
    moved = _moved(digests, {"rows"}, tool)
    assert not moved, "\n".join(moved[:20])
