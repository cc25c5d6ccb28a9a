"""``tools/digest_diff.py`` on small digests written to a temporary directory,
and ``tools/search_counts.py`` on a small search."""

import importlib.util
import json
from pathlib import Path

from carlab import matrices, search


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_diff = _tool("digest_diff")
search_counts = _tool("search_counts")

VALUE = 0.7310585786300049


def _digest(value=VALUE, verdict=True):
    return {
        "sibet-suite": {
            "rows": [{"seed": 0, "ratio": 1.25}, {"seed": 1, "ratio": value}],
            "aggregates": {"max_ratio": 1.25},
            "verdicts": {"ratio_bounded": verdict},
        }
    }


def _diff(tmp_path, new):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, digest in zip(paths, (_digest(), new)):
        path.write_text(json.dumps(digest))
    return digest_diff.main([str(p) for p in paths])


def test_identical_digests_pass(tmp_path, capsys):
    assert _diff(tmp_path, _digest()) == 0
    assert capsys.readouterr().out == "0 values differ, 0 beyond the row tolerance or not floats\n"


def test_row_move_within_tolerance_is_listed_and_passes(tmp_path, capsys):
    assert _diff(tmp_path, _digest(VALUE * (1 + 1e-13))) == 0
    out = capsys.readouterr().out
    assert out.startswith("sibet-suite/rows/1/ratio: ")
    assert out.endswith("1 values differ, 0 beyond the row tolerance or not floats\n")


def test_row_move_beyond_tolerance_fails(tmp_path, capsys):
    assert _diff(tmp_path, _digest(VALUE * (1 + 1e-11))) == 1
    assert "1 values differ, 1 beyond" in capsys.readouterr().out


def test_flipped_verdict_fails(tmp_path, capsys):
    assert _diff(tmp_path, _digest(verdict=False)) == 1
    out = capsys.readouterr().out
    assert "sibet-suite/verdicts/ratio_bounded: True -> False  (rel inf)" in out
    assert "1 values differ, 1 beyond" in out



def test_search_counts_prints_one_line_per_objective(capsys):
    eigh_sym, climb = matrices.eigh_sym, search._climb
    assert search_counts.main(["--depth", "2", "--budget", "40", "--seed", "3"]) == 0
    assert (matrices.eigh_sym, search._climb) == (eigh_sym, climb)  # unwrapped again
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "depth=2 d=2 seed=3 budget=40 cond_cap=10000.0"
    assert lines[1].split() == ["objective", *search_counts.COLUMNS]
    rows = {line.split()[0]: dict(zip(search_counts.COLUMNS, map(int, line.split()[1:])))
            for line in lines[2:]}
    assert list(rows) == list(search.OBJECTIVES)
    for objective, row in rows.items():
        assert row["lookahead"] == search.LOOKAHEAD[objective]
        # 4 restarts of 10 evaluations: a batch advances each restart by 1
        # to lookahead steps, and every kept evaluation is a candidate
        assert -(-10 // row["lookahead"]) <= row["batches"] <= 10
        assert 40 <= row["candidates"] <= 4 * row["lookahead"] * row["batches"]
        assert 0 <= row["accepted"] <= 36  # step 0 of each restart is no move
        assert 0 < row["lapack_calls"] <= row["lapack_mats"]
        # a restart's first batch builds all 4 leaves of each candidate, a
        # later candidate at most its moved leaf, and every built leaf is
        # inverted at least
        assert 4 * 4 <= row["weight_leaves"] <= 4 * row["candidates"]
        assert row["weight_leaves"] <= row["power_mats"]
