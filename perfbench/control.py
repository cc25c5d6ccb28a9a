"""Control for the speed probe: does ``wall_ref_s`` track wall time?

    python3 perfbench/control.py [--workload redundancy] [--rounds 8]

Copies the package twice into a temporary directory and adds to each copy's
``lab.run_experiment`` a fixed amount of extra work before the experiment
runs: pure Python in one copy (``python``), repeated LAPACK ``eigh`` calls
on a large stack in the other (``lapack``, which runs without the
interpreter lock, as batched kernels will).  It then runs workload children
of the unchanged package (``base``) and of both copies in turn, ``--rounds``
times, and prints per variant the medians of raw wall time, probe time and
``wall_ref_s``, with the variants' ratios to ``base``.

The rescaling is neutral to what the code does when a variant's probe time
(the inverse of its mean speed) matches ``base``'s, so that its
``wall_ref_s`` ratio equals its raw wall ratio up to noise.
"""

import argparse
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Each takes about half a second on the machine that recorded the baseline.
EXTRA_WORK = {
    "python": '''
def _control_work():
    acc = 0
    for i in range(8_000_000):
        acc += i & 7
    return acc
''',
    "lapack": '''
def _control_work():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4000, 8, 8))
    stack = a @ a.transpose(0, 2, 1) + 8 * np.eye(8)
    for _ in range(12):
        np.linalg.eigh(stack)
''',
}

WRAP = '''
_control_run_experiment = run_experiment


def run_experiment(*args, **kwargs):
    _control_work()
    return _control_run_experiment(*args, **kwargs)
'''


def make_variant(root, name):
    src = Path(root) / name
    shutil.copytree(run.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    lab = src / "carlab" / "lab.py"
    lab.write_text(lab.read_text() + EXTRA_WORK[name] + WRAP)
    return src


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, default="redundancy")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)

    run.TMP_PARENT.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix="control-", dir=run.TMP_PARENT)
    try:
        sources = {"base": run.SRC, **{name: make_variant(root, name) for name in EXTRA_WORK}}
        results = {name: [] for name in sources}
        for _ in range(args.rounds):
            for name, src in sources.items():
                run.SRC = src
                child = run.run_child(args.workload, args.seed, False, root)
                if child.error is not None:
                    raise SystemExit(f"{name}: {child.error}")
                results[name].append(child.result)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            run.TMP_PARENT.rmdir()
        except OSError:
            pass

    medians = {
        name: {
            "wall_s": statistics.median(r["wall_s"] for r in rs),
            "probe_ms": 1e3 / statistics.median(r["probe_speed"] for r in rs),
            "wall_ref_s": statistics.median(run.wall_ref_s(r) for r in rs),
        }
        for name, rs in results.items()
    }
    base = medians["base"]
    print(f"{args.workload}, seed {args.seed}, {args.rounds} children per variant")
    for name, m in medians.items():
        print(f"{name:7s} wall_s {m['wall_s']:.4f}  probe_ms {m['probe_ms']:.4f}"
              f"  wall_ref_s {m['wall_ref_s']:.4f}  ratios to base: wall"
              f" {m['wall_s'] / base['wall_s']:.4f}  probe {m['probe_ms'] / base['probe_ms']:.4f}"
              f"  wall_ref {m['wall_ref_s'] / base['wall_ref_s']:.4f}")


if __name__ == "__main__":
    main()
