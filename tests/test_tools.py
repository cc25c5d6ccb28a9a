"""``tools/digest_diff.py`` on small digests written to a temporary directory,
``tools/report_digest.py --only``, ``tools/search_counts.py`` on a small
search, ``tools/sampler_counts.py`` on a few Bellman samples,
``tools/longdouble_counts.py`` at depth 3 and ``tools/seed_sweep.py`` on
three deep-sweep seeds."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from carlab import bellman, matrices, search
from carlab.lab import OBJECTIVES, default_config, run_experiment


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_diff = _tool("digest_diff")
longdouble_counts = _tool("longdouble_counts")
report_digest = _tool("report_digest")
sampler_counts = _tool("sampler_counts")
search_counts = _tool("search_counts")
seed_sweep = _tool("seed_sweep")

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


def test_report_digest_only_writes_the_named_runs(tmp_path):
    out = tmp_path / "digest.json"
    assert report_digest.main(["--out", str(out), "--only", "c2-sharpness",
                               "--only", "counterexample-sweep"]) == 0
    digest = json.loads(out.read_text())
    assert sorted(digest) == ["c2-sharpness", "counterexample-sweep"]
    for name, entry in digest.items():
        report = run_experiment(default_config(name))
        want = report_digest.canonical_json(report_digest.digest_entry(report))
        assert entry == json.loads(want)


def test_report_digest_only_selects_experiments_and_runs(tmp_path, monkeypatch):
    ran = []

    def run(cfg):
        ran.append((cfg.experiment, cfg.objective))
        return SimpleNamespace(rows=[], aggregates={}, verdicts={})

    monkeypatch.setattr(report_digest, "run_experiment", run)
    out = str(tmp_path / "digest.json")
    report_digest.main(["--out", out, "--only", "adversarial-search", "--only", "wcet-suite",
                        "--only", "adversarial-search:red_ratio"])
    assert ran == [("wcet-suite", "bet_norm_ratio"),
                   *(("adversarial-search", objective) for objective in OBJECTIVES)]
    ran.clear()
    report_digest.main(["--out", out, "--only", "adversarial-search:sred_ratio"])
    assert ran == [("adversarial-search", "sred_ratio")]
    with pytest.raises(SystemExit) as exc:
        report_digest.main(["--out", out, "--only", "no-such-experiment"])
    assert exc.value.code == 2 and not ran[1:]


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


def test_sampler_counts_prints_one_line_per_sampler(capsys):
    eigh, block = np.linalg.eigh, bellman.BLOCK
    assert sampler_counts.main(["--samples", "40", "--block", "16"]) == 0
    assert (np.linalg.eigh, bellman.BLOCK) == (eigh, block)  # restored
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "samples=40 d_max=4 seed=0 block=16"
    assert lines[1].split() == ["sampler", *sampler_counts.COLUMNS]
    rows = {line.split()[0]: dict(zip(sampler_counts.COLUMNS, map(float, line.split()[1:])))
            for line in lines[2:]}
    assert list(rows) == ["size", "concavity", "dm", "probe"]
    # eigh matrices per sample: V and the domain check of each point, and
    # then the gaps B >= 0 and U >= B (size), the midpoint's V, its check
    # and its gap (concavity), the quotient's gap (dm); 7 per probe pair
    assert [row["eigh_mats"] for row in rows.values()] == [160, 280, 120, 280]
    for row in rows.values():
        # three blocks (16, 16, 8), one stack per d and step in each
        assert 3 <= row["eigh_calls"] <= row["eigh_mats"]
        assert row["wall_s"] > 0 and row["rss_mb"] >= 0 and row["traced_mb"] > 0


def test_longdouble_counts_prints_one_line_per_experiment(monkeypatch, capsys):
    patched = ("_distinct", "_jacobi_eigh", "_jacobi_sweeps", "eig_power")
    before = [getattr(matrices, name) for name in patched]
    assert longdouble_counts.main(["--depth", "3"]) == 0
    assert [getattr(matrices, name) for name in patched] == before  # unwrapped again
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "depth=3"
    assert lines[1].split() == ["experiment", *longdouble_counts.COLUMNS]
    rows = {line.split()[0]: dict(zip(longdouble_counts.COLUMNS, map(int, line.split()[1:])))
            for line in lines[2:]}
    assert list(rows) == ["counterexample-sweep", "c2-sharpness"]
    for row in rows.values():
        # a constant weight: every stack repeats a few matrices
        assert 0 < row["jacobi_calls"] <= row["jacobi_distinct"] < row["jacobi_mats"]
        assert 0 < row["power_distinct"] < row["power_mats"]
        assert row["sweeps"] > 0
    # with every member its own group, the distinct counts are the members
    monkeypatch.setattr(matrices, "_distinct", lambda rows: (np.arange(len(rows)),) * 2)
    row = longdouble_counts.counts("counterexample-sweep", 3)
    assert row["jacobi_distinct"] == row["jacobi_mats"]
    assert row["power_distinct"] == row["power_mats"]


def test_seed_sweep_runs_the_perfbench_configs(monkeypatch, capsys):
    # deep-sweep seed 109 exited 3 before the Jacobi solver read one triangle
    assert seed_sweep.main(["--workload", "deep-sweep", "--seeds", "108:111"]) == 0
    assert capsys.readouterr().out == "deep-sweep seeds 108:111: 0 of 3 failed\n"
    codes = {109: 3}
    monkeypatch.setattr(seed_sweep, "exit_codes",
                        lambda configs, workload, seed, workdir: [codes.get(seed, 0)])
    assert seed_sweep.main(["--workload", "deep-sweep", "--seeds", "108:111"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 109: exit 3", "deep-sweep seeds 108:111: 1 of 3 failed"]
    for bad in ("5", "3:3", "a:b"):
        with pytest.raises(SystemExit) as exc:
            seed_sweep.main(["--workload", "deep-sweep", "--seeds", bad])
        assert exc.value.code == 2
