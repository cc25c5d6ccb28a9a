"""``tools/digest_diff.py`` on small digests written to a temporary directory."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "digest_diff", Path(__file__).resolve().parents[1] / "tools" / "digest_diff.py"
)
digest_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_diff)

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

