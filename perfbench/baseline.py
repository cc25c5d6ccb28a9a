"""Record a baseline: sets of runs of each workload at several seeds.

    python3 perfbench/baseline.py [--sets 2] [--seeds 10] [--first-seed 1]
                                  [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per (set, workload, seed), one run at a time; every
set runs all workloads before the next set starts.  For every end-to-end
metric of a set it reports the median, the quartiles and the
interquartile range over the median, next to a third of the metric's bound
in ``BENCHMARK.json``; every run's raw medians (wall time, probe time,
set-up time, spawn time) are kept beside its metrics.  With two or more
sets it also reports how far each later set's median lies from the
first's, as a share of the first, next to the bound.  A traced run at the first seed adds the
per-layer metrics.  With ``--out`` the whole record, environment stamps
included, is written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    raw = next(json.loads(line[4:]) for line in lines if line.startswith("raw "))
    return stamp, raw, json.loads(lines[-1])


def one_set(workloads, seeds, seconds, bounds):
    out = {}
    for workload in workloads:
        values, runs = {}, []
        for seed in seeds:
            stamp, raw, result = one_run(workload, seed, seconds, 0)
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            for key, value in metrics.items():
                values.setdefault(key, []).append(value)
            runs.append({"seed": seed, "metrics": metrics, "raw": raw})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4f}" for k, v in metrics.items()
            ) + f" | raw wall_s={raw['wall_s']:.4f} probe_ms={raw['probe_ms']:.4f}"
                f" setup_raw_s={raw['setup_raw_s']:.4f} spawn_s={raw['spawn_s']:.4f}", flush=True)
        summary = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[key]}
            print(f"  {key:12s} median {med:.4f}  spread {spread:.4f}"
                  f"  (a third of the bound: {bounds[key] / 3:.4f})", flush=True)
        out[workload] = {"stamp": stamp, "end_to_end": summary, "runs": runs}
    return out


def main(argv=None):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    workloads = args.workload or run.WORKLOADS
    seconds = bench["run_seconds"]

    sets = []
    for i in range(args.sets):
        print(f"set {i + 1}", flush=True)
        sets.append(one_set(workloads, seeds, seconds, bounds))
    agreement = {}
    for later in sets[1:]:
        for workload in workloads:
            for key, first in sets[0][workload]["end_to_end"].items():
                shift = later[workload]["end_to_end"][key]["median"] / first["median"] - 1
                agreement.setdefault(workload, {}).setdefault(key, []).append(shift)
                print(f"{workload} {key}: later set's median {shift:+.4f} of the first's"
                      f" (bound {bounds[key]})", flush=True)
    per_layer = {}
    for workload in workloads:
        _, _, traced = one_run(workload, seeds[0], seconds, 1)
        per_layer[workload] = {k: m["value"] for k, m in traced["metrics"].items()}
    record = {"run_seconds": seconds, "seeds": seeds, "sets": sets,
              "median_shift": agreement, "per_layer": per_layer}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
