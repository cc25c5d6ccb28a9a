"""carlab benchmark: four experiment workloads, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is loaded from ``src/`` next to this
directory.  Every workload run is one fresh child interpreter
(``child.py``) that calls ``carlab.cli.main`` on config files generated
here from ``--seed``; reports go to a temporary directory under
``.perfbench_tmp/`` that is removed afterwards.  Children get one BLAS
thread and run one at a time.  The seed picks the block of instance
seeds ``seed * n .. seed * n + n - 1`` of a suite whose list has ``n``
seeds (20 for redundancy and certify, 8 for search), so ``--seed 50``
and ``--seed 250`` start the redundancy and certify lists at 1000 and
5000, ``--seed 125`` and ``--seed 625`` the search list.

A benchmark run first runs the workload at the default seed, untimed,
and compares its report rows with ``reference/<workload>.json`` (1e-12
relative); this also fills the bytecode and file caches.  It then repeats
the workload at ``--seed`` in new children until ``--seconds`` have
passed (at least ``MIN_CHILDREN`` times), each time followed by
``SETUP_CHILDREN`` children that stop after set-up.  Every child must exit
0 with every verdict passing, and every timed child must reproduce the
rows of the first one; a child that does not counts as failed.

``--trace 0`` prints the medians over the timed children of

* ``wall_ref_s``: wall time of the workload's ``cli.main`` calls, report
  writing included, rescaled to a reference machine speed.  A probe
  in the child (``child.SpeedProbe``) pauses the workload every 50 ms to
  time a fixed slice of Python work; wall time without the probe's own
  time is multiplied by ``REF_PROBE_S`` times the probe's time-weighted
  mean speed (1/s).  On a shared host the raw wall time of one workload
  spreads by 15-40% between runs while the rescaled time spreads by a few
  percent;
* ``setup_s``: from the first statement of the child script until
  ``carlab.cli`` is imported and the configs are parsed, rescaled like
  ``wall_ref_s`` by one probe run made right after set-up; the median
  over the workload and the set-up-only children.  Set-up takes about
  0.1 s, too short to integrate the probe over; on the baseline machine
  the one run after it cut the spread of medians of eight set-ups from
  19% to 8%.  The raw median is printed as ``setup_raw_s``.  Process
  creation and interpreter start-up, which no change to the package can
  move, are printed apart as ``spawn_s``;
* ``peak_rss_mb``: the child's peak resident memory.

``--trace 1`` alternates untraced and traced children and prints the
traced children's per-layer medians (``spans.py``) plus
``trace.overhead_ratio``, traced over untraced median ``wall_ref_s``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the
environment stamp, the share of failed children, the raw medians (line
``raw {...}``: wall time, probe time, set-up time, spawn time) and each
metric with its unit.  The exit code is 1 when any child failed, 2 when
the package is missing.  ``--write-reference`` records the default-seed reference rows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"

DEFAULT_SEED = 0
MIN_CHILDREN = 3
SETUP_CHILDREN = 3
CHILD_TIMEOUT_S = 120
# No child starts after this many seconds, so a run ends well within 180 s.
HARD_STOP_S = 100
ROW_RTOL = 1e-12
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Sizes are chosen so one child runs for about two seconds; see
# ``predictions.json`` for which layer each workload is meant to load.
REDUNDANCY_INSTANCES = 20  # one full period of the (d, depth) ladder
CERTIFY_SEEDS = 20
CERTIFY_SAMPLES = 1000
# The work of a search depends on its random restarts: over ten seed
# blocks the LAPACK calls of 4 seeds spread by 12%, those of 8 seeds by 6%.
SEARCH_SEEDS = 8
SEARCH_BUDGET = 400  # 4 restarts of 100 evaluations, a report row every 16
SWEEP_DEPTH = 10
SWEEP_EPS = [1e-2, 1e-4]

# A round probe time near that of ``child.probe_kernel`` on the machine that
# recorded the baseline (2-core Xeon VM, Python 3.11, 0.8-1.1 ms);
# ``wall_ref_s`` is wall time rescaled to that probe speed.
REF_PROBE_S = 1.0e-3


def workload_configs(name, seed):
    """The (experiment, config) pairs one child runs for ``name`` at ``seed``.

    The seed offsets each workload's seed list by whole blocks, so the
    suites see new random instances on the same (d, depth) ladder.  The
    sweep has no random instances; the seed picks its rotation angle.
    """
    if name == "redundancy":
        n = REDUNDANCY_INSTANCES
        return [("redundancy-suite", {
            "depth": 8, "d": 4, "cond_cap": 1e4,
            "seeds": list(range(seed * n, seed * n + n)),
        })]
    if name == "certify":
        n = CERTIFY_SEEDS
        return [("bellman-certify", {
            "depth": 4, "d": 4, "samples": CERTIFY_SAMPLES,
            "seeds": list(range(seed * n, seed * n + n)),
        })]
    if name == "search":
        return [
            ("adversarial-search", {
                "depth": 3, "d": 2, "cond_cap": 1e4, "seeds": [s],
                "budget": SEARCH_BUDGET, "objective": objective,
            })
            for s in range(seed * SEARCH_SEEDS, (seed + 1) * SEARCH_SEEDS)
            for objective in ("bet_norm_ratio", "red_ratio")
        ]
    if name == "deep-sweep":
        # Away from 0 and pi/2, where the weights are diagonal and the
        # Jacobi solver has nothing to rotate.
        theta = random.Random(seed).uniform(0.2, 1.37)
        return [("counterexample-sweep", {
            "depth": SWEEP_DEPTH, "eps_grid": SWEEP_EPS, "rotations": [theta],
        })]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("redundancy", "certify", "search", "deep-sweep")


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------

class Child:
    """Outcome of one child: its result file, report rows and failure."""

    def __init__(self, result, rows, error):
        self.result = result
        self.rows = rows
        self.error = error


def run_child(name, seed, trace, workdir, setup_only=False):
    """Run one child in ``workdir``; never raises for a failing child."""
    workdir = Path(workdir)
    calls = []
    reports = []
    for i, (experiment, config) in enumerate(workload_configs(name, seed)):
        report = workdir / f"report{i}.json"
        cfg_path = workdir / f"config{i}.json"
        cfg_path.write_text(json.dumps(dict(config, output_path=str(report), format="json")))
        report.unlink(missing_ok=True)
        reports.append(report)
        calls.append([experiment, "--config", str(cfg_path), "--quiet"])
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    job = workdir / "job.json"
    job.write_text(json.dumps({
        "src": str(SRC), "calls": calls, "setup_only": setup_only, "trace": bool(trace),
        "result": str(result_path),
    }))
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job)],
            env=env, cwd=workdir, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Child(None, None, f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.exists():
        return Child(None, None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    # Both processes read the same monotonic clock on Linux.
    result["spawn_s"] = result["t_start"] - t0
    if setup_only:
        return Child(result, None, None)
    if any(code != 0 for code in result["codes"]):
        return Child(result, None, f"lab exit codes {result['codes']}")
    rows = [json.loads(r.read_text())["rows"] for r in reports]
    return Child(result, rows, None)


def same_value(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(x, (int, float)) for x in (a, b)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= ROW_RTOL * max(abs(a), abs(b))
    return a == b


def rows_match(got, want):
    """Report rows equal up to ``ROW_RTOL`` relative on every float."""
    if len(got) != len(want):
        return False
    for rows_g, rows_w in zip(got, want):
        if len(rows_g) != len(rows_w):
            return False
        for g, w in zip(rows_g, rows_w):
            if g.keys() != w.keys() or not all(same_value(g[k], w[k]) for k in g):
                return False
    return True


def reference_path(name):
    return HERE / "reference" / f"{name}.json"


# ---------------------------------------------------------------------------
# Environment stamp.
# ---------------------------------------------------------------------------

def git_revision(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp(name):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    longdouble_eps = float(np.finfo(np.longdouble).eps)
    extended = longdouble_eps < float(np.finfo(np.float64).eps)
    return {
        "workload": name,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "longdouble_eps": longdouble_eps,
        "git_revision": git_revision(ROOT),
        # The deep sweep is the only longdouble path; where longdouble is
        # float64 it measures a different computation.
        "comparable": extended or name != "deep-sweep",
    }


# ---------------------------------------------------------------------------
# Benchmark run.
# ---------------------------------------------------------------------------

def wall_ref_s(result):
    """A child's wall time rescaled from its probe speed to the reference."""
    return result["wall_s"] * REF_PROBE_S * result["probe_speed"]


def setup_ref_s(result):
    """A child's set-up time rescaled by the probe run that followed it."""
    return result["setup_s"] * REF_PROBE_S / result["setup_probe_s"]


def measure(name, seed, seconds, trace, workdir, log):
    """Run the children of one benchmark run.

    Returns (attempted, failed, metrics, info): metrics maps a name to
    (value, unit); info holds the raw medians printed for reference.
    """
    attempted = failed = 0
    first_rows = None

    def check(child, want):
        nonlocal attempted, failed
        attempted += 1
        if child.error is None and want is not None and not rows_match(child.rows, want):
            child.error = "report rows differ from the reference rows"
        if child.error is not None:
            failed += 1
            log(f"child failed: {child.error}")
            return False
        return True

    reference = json.loads(reference_path(name).read_text())["rows"]
    check(run_child(name, DEFAULT_SEED, False, workdir), reference)

    started = time.monotonic()
    plain, traced, setups = [], [], []
    while True:
        elapsed = time.monotonic() - started
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(plain) >= MIN_CHILDREN):
            break
        for is_traced in ((False, True) if trace else (False,)):
            child = run_child(name, seed, is_traced, workdir)
            if first_rows is None and child.error is None:
                first_rows = child.rows
            if check(child, first_rows):
                (traced if is_traced else plain).append(child.result)
                setups.append(child.result)
        for _ in range(0 if trace else SETUP_CHILDREN):
            child = run_child(name, seed, False, workdir, setup_only=True)
            if check(child, None):
                setups.append(child.result)

    if not plain or (trace and not traced):
        return attempted, failed, {}, {}
    log("children wall_s/probe_ms/samples: " + " ".join(
        f"{r['wall_s']:.3f}/{1e3 / r['probe_speed']:.3f}/{r['probe_samples']}" for r in plain))
    log("children setup_s/spawn_s: " + " ".join(
        f"{r['setup_s']:.3f}/{r['spawn_s']:.3f}" for r in setups))
    info = {
        "children": len(plain),
        "setup_children": len(setups),
        "wall_s": statistics.median([r["wall_s"] for r in plain]),
        # The probe time that the mean speed stands for.
        "probe_ms": 1e3 / statistics.median([r["probe_speed"] for r in plain]),
        "setup_raw_s": statistics.median([r["setup_s"] for r in setups]),
        "spawn_s": statistics.median([r["spawn_s"] for r in setups]),
    }
    if not trace:
        metrics = {
            "wall_ref_s": (statistics.median([wall_ref_s(r) for r in plain]), "s"),
            "setup_s": (statistics.median([setup_ref_s(r) for r in setups]), "s"),
            "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in plain]), "MB"),
        }
        return attempted, failed, metrics, info
    # The lower median keeps counts whole; they repeat exactly anyway.
    units = layer_units()
    metrics = {
        key: (statistics.median_low([r["layers"][key] for r in traced]), units[key])
        for key in traced[0]["layers"]
    }
    traced_wall = statistics.median([wall_ref_s(r) for r in traced])
    plain_wall = statistics.median([wall_ref_s(r) for r in plain])
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, units["trace.overhead_ratio"])
    return attempted, failed, metrics, info


def layer_units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def write_reference(name, workdir):
    child = run_child(name, DEFAULT_SEED, False, workdir)
    if child.error is not None:
        raise SystemExit(f"{name}: {child.error}")
    reference_path(name).parent.mkdir(exist_ok=True)
    reference_path(name).write_text(json.dumps(
        {"workload": name, "seed": DEFAULT_SEED, "rows": child.rows}, indent=1
    ) + "\n")
    print(f"wrote {reference_path(name)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed rows of the workload and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "carlab" / "cli.py").is_file():
        print(f"carlab package not found under {SRC}", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    TMP_PARENT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT)
    try:
        if args.write_reference:
            write_reference(args.workload, workdir)
            return 0
        stamp = environment_stamp(args.workload)
        if not stamp["comparable"]:
            log("warning: longdouble is float64 here; deep-sweep is not comparable")
        attempted, failed, metrics, info = measure(
            args.workload, args.seed, args.seconds, args.trace, workdir, log
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass

    print("stamp " + json.dumps(stamp))
    print(f"fail_share {failed / attempted:.4f} ({failed} of {attempted} runs)")
    if info:
        print("raw " + json.dumps(dict(info, ref_probe_ms=REF_PROBE_S * 1e3)))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
