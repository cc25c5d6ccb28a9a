"""``tools/digest_diff.py`` on small digests written to a temporary directory,
``tools/report_digest.py --only``, ``tools/sampler_counts.py`` on a few
Bellman samples, ``tools/seed_sweep.py`` on two or three deep-sweep seeds,
and the benchmark's tracer (``perfbench/spans.py``) on two short suites and
a short search."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from carlab import bellman, cli, lab, matrices
from carlab.errors import NumericError
from carlab.lab import OBJECTIVES, default_config, run_experiment
from conftest import load_tool
from oracles import brute_concavity_gaps, brute_dm_gaps, brute_size_gaps

digest_diff = load_tool("digest_diff")
report_digest = load_tool("report_digest")
sampler_counts = load_tool("sampler_counts")
seed_sweep = load_tool("seed_sweep")

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
    # generator calls: one fewer per domain point than the per-draw oracles
    # make on the same stream (the boundary draw and the uniform after it
    # are one call), and 1 + 8 per probe pair in each of the three blocks
    ref, want = sampler_counts.CountingGenerator(0), []
    for check, points in ((brute_size_gaps, 1), (brute_concavity_gaps, 2),
                          (lambda *args: brute_dm_gaps(*args, sampler_counts.H), 1)):
        before = ref.calls
        check(ref, 40, 4)
        want.append(ref.calls - before - 40 * points)
    assert [row["draw_calls"] for row in rows.values()] == [*want, 3 + 8 * 40]
    for row in rows.values():
        # three blocks (16, 16, 8), one stack per d and step in each
        assert 3 <= row["eigh_calls"] <= row["eigh_mats"]
        assert row["wall_s"] > 0 and row["rss_mb"] >= 0 and row["traced_mb"] > 0


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


def test_seed_sweep_digest_is_the_report_digest_of_each_run(tmp_path, monkeypatch, capsys):
    # --digest writes each run's rows, aggregates and verdicts as
    # report_digest.py does, so digest_diff compares two sweeps; a run that
    # made no report is null
    path, perfbench = tmp_path / "sweep.json", seed_sweep._perfbench_run()
    assert seed_sweep.main(["--workload", "deep-sweep", "--seeds", "108:110",
                            "--digest", str(path)]) == 0
    want = {}
    for seed in (108, 109):
        (experiment, config), = perfbench.workload_configs("deep-sweep", seed)
        report = run_experiment(default_config(experiment, **config))
        want[f"{experiment} seed {seed} run 0"] = report_digest.digest_entry(report)
    assert path.read_text() == report_digest.canonical_json(want)
    assert "elapsed_seconds" not in path.read_text()
    assert digest_diff.main([str(path), str(path)]) == 0

    rotations, run = perfbench.workload_configs("deep-sweep", 109)[0][1]["rotations"], cli.run_experiment

    def failing(cfg):  # seed 109's run, told apart by its angle, raises
        if cfg.rotations == rotations:
            raise NumericError("no report")
        return run(cfg)

    monkeypatch.setattr(cli, "run_experiment", failing)
    assert seed_sweep.main(["--workload", "deep-sweep", "--seeds", "108:110",
                            "--digest", str(path)]) == 1
    assert "seed 109: exit 3" in capsys.readouterr().out
    got = json.loads(path.read_text())
    assert got["counterexample-sweep seed 109 run 0"] is None
    assert got["counterexample-sweep seed 108 run 0"] == json.loads(
        report_digest.canonical_json(want["counterexample-sweep seed 108 run 0"]))


def test_benchmark_tracer_installs_and_restores_on_two_suites(monkeypatch):
    # perfbench/spans.py patches StepField.power, BellmanPoint.__init__,
    # LabReport.write, matrices._jacobi_eigh and DyadicIndex.contains through
    # vars(owner)[attr]: if one of them stops being an own attribute there,
    # install raises and the benchmark's traced runs fail.  The file is
    # only read here, with no bytecode written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (lab.run_experiment, matrices._jacobi_eigh)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert lab.run_experiment is not originals[0]
        for experiment in ("redundancy-suite", "bellman-certify"):
            assert lab.run_experiment(default_config(experiment, seeds=[0, 1], samples=20)).passed
        # a search adds its own keys to matrices.TALLY; the report's LAPACK
        # work is what the tracer's counters on np.linalg saw
        before = dict(tracer.counts)
        report = lab.run_experiment(default_config("adversarial-search", budget=40))
        assert report.passed and report.work["search_batches"] > 0
        work, counts = report.work, tracer.counts
        assert work["eigh_calls"] + work["eigvalsh_calls"] == (
            counts["lapack_calls"] - before["lapack_calls"])
        assert work["eigh_mats"] + work["eigvalsh_mats"] == (
            counts["lapack_mats"] - before["lapack_mats"])
    finally:
        tracer.restore()
    assert (lab.run_experiment, matrices._jacobi_eigh) == originals
    summary = tracer.summary()
    assert summary["lab.calls"] >= 3 and summary["redundancy.calls"] > 0
    assert summary["bellman.calls"] > 0 and summary["bellman.points"] > 0
