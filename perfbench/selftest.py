"""Self-tests of the benchmark's tracing and checks.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default pytest run; they
spawn about twenty workload children and take about a minute.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

PREDICTIONS = json.loads((HERE / "predictions.json").read_text())["predictions"]
PER_LAYER = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
COUNT_METRICS = [m["name"] for m in PER_LAYER if m["unit"] == "count"]


@pytest.fixture(scope="module")
def workdir():
    run.TMP_PARENT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_PARENT)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        run.TMP_PARENT.rmdir()
    except OSError:
        pass


@pytest.fixture(scope="module")
def children(workdir):
    """Per workload: one untraced child and two traced ones, default seed."""
    out = {}
    for name in run.WORKLOADS:
        runs = [run.run_child(name, run.DEFAULT_SEED, trace, workdir) for trace in (0, 1, 1)]
        for child in runs:
            assert child.error is None, f"{name}: {child.error}"
        out[name] = runs
    return out


def _bindings(modules, classes):
    """Every attribute of the given modules and classes, by identity."""
    snap = {}
    for owner in list(modules) + list(classes):
        for attr, value in vars(owner).items():
            snap[(id(owner), attr)] = value
    return snap


def test_wrappers_restored_after_traced_run():
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    from carlab import lab

    modules = [m for n, m in sys.modules.items() if n == "carlab" or n.startswith("carlab.")]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    before = _bindings(modules + [np.linalg], classes)
    original = lab.bet_norm_sum
    tracer = Tracer().install()
    try:
        assert lab.bet_norm_sum is not original
        lab.run_experiment(lab.default_config("counterexample-sweep", depth=2))
    finally:
        tracer.restore()
    after = _bindings(modules + [np.linalg], classes)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed
    assert tracer.summary()["lab.calls"] >= 1
    assert {span[0] for span in tracer.spans()} >= {"lab", "embeddings", "matrices"}


def test_per_layer_metrics_match_benchmark_file(children):
    traced = children["redundancy"][1].result["layers"]
    assert sorted(m["name"] for m in PER_LAYER) == sorted([*traced, "trace.overhead_ratio"])


@pytest.mark.parametrize("entry", PREDICTIONS, ids=lambda e: f"{e['layer_metric']}@{e['moves_on']}")
def test_predicted_layer_records_spans(children, entry):
    layer = entry["layer_metric"].split(".")[0]
    for name in entry["moves_on"]:
        assert children[name][1].result["layers"][f"{layer}.calls"] > 0, name


def test_every_layer_is_predicted_somewhere():
    assert {e["layer_metric"].split(".")[0] for e in PREDICTIONS} == set(LAYERS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(children, name):
    first, second = (children[name][i].result["layers"] for i in (1, 2))
    for metric in COUNT_METRICS:
        assert first[metric] == second[metric], metric


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_jacobi_only_on_deep_sweep(children, name):
    jacobi = children[name][1].result["layers"]["matrices.jacobi_mats"]
    if name == "deep-sweep":
        assert jacobi > 0
        assert children[name][1].result["layers"]["matrices.lapack_calls"] == 0
    else:
        assert jacobi == 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_rows_equal_untraced_and_reference(children, name):
    reference = json.loads(run.reference_path(name).read_text())["rows"]
    untraced, traced, _ = children[name]
    assert untraced.rows == traced.rows
    assert run.rows_match(untraced.rows, reference)


@pytest.mark.parametrize("start", [1000, 5000])
@pytest.mark.parametrize("name, n", [
    ("redundancy", run.REDUNDANCY_INSTANCES),
    ("certify", run.CERTIFY_SEEDS),
    ("search", run.SEARCH_SEEDS),
])
def test_verdicts_pass_on_seed_lists_from(workdir, name, n, start):
    """``--seed start // n`` starts a suite's list of n instance seeds at start."""
    seed = start // n
    assert run.workload_configs(name, seed)[0][1]["seeds"][0] == start
    child = run.run_child(name, seed, False, workdir)
    assert child.error is None, child.error


def test_setup_only_child_reports_setup(workdir):
    child = run.run_child("certify", run.DEFAULT_SEED, False, workdir, setup_only=True)
    assert child.error is None, child.error
    assert child.result["setup_s"] > 0 and child.result["spawn_s"] > 0
    assert 0 < child.result["setup_probe_s"] < 0.1
    assert "wall_s" not in child.result


def test_probe_samples_the_whole_workload(children):
    result = children["certify"][0].result
    # One sample before and one after the calls, and one per 50 ms between.
    assert result["probe_samples"] >= 2 + int(result["wall_s"] / 0.05) // 2
    assert 100 < result["probe_speed"] < 1e5


def test_rows_match_tolerance():
    row = [[{"kind": "suite", "x": 1.0, "y": float("nan")}]]
    assert run.rows_match(row, [[{"kind": "suite", "x": 1.0 + 5e-13, "y": float("nan")}]])
    assert not run.rows_match(row, [[{"kind": "suite", "x": 1.0 + 5e-12, "y": float("nan")}]])
    assert not run.rows_match(row, [[{"kind": "other", "x": 1.0, "y": float("nan")}]])
    assert not run.rows_match(row, [[{"kind": "suite", "x": 1.0, "y": 0.0}]])
