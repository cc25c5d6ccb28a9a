"""One workload run in a fresh interpreter: ``python3 child.py JOB``.

JOB is a JSON file {"src", "calls", "setup_only", "trace", "result"}: the
directory that holds the ``carlab`` package, the ``lab`` argument lists to
run, whether to stop after set-up, whether to trace, and where to write
the result.

The result file holds the monotonic time at which this script started,
set-up time (from then until ``carlab.cli`` is imported and every config is
parsed), the time of one ``probe_kernel`` run right after set-up and,
unless ``setup_only``, the wall time of the ``cli.main`` calls
without the speed probe's own time, the exit code of each call, the
probe's time-weighted mean speed and its number of samples, the process's
peak resident memory and, when tracing, the tracer's per-layer summary.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

PROBE_PERIOD_S = 0.05
PROBE_ROUNDS = 250
_PROBE_A = np.arange(4.0)
_PROBE_B = np.ones(4)


def probe_kernel():
    """About a millisecond of Python driving 4-element numpy operations.

    That is the workloads' own mix: interpreter overhead around tiny array
    calls.
    """
    acc = 0.0
    for _ in range(PROBE_ROUNDS):
        c = _PROBE_A * 0.5 + _PROBE_B
        acc += float(c.sum()) + float(np.sqrt(c[1]))
    return acc


class SpeedProbe:
    """Times ``probe_kernel`` about every ``PROBE_PERIOD_S`` of a workload.

    On a shared host the interpreter's speed can swing by a factor of two
    within seconds while CPU steal reads zero, so wall time alone spreads
    widely from run to run; the probe's time says how fast this process
    executes such code at that moment.  The kernel runs from a ``SIGALRM``
    handler, which Python calls in the main thread between two bytecodes:
    the workload is paused while the probe runs, and a long call into
    LAPACK or other C code defers the probe until it returns.  So the
    probe never shares the machine with the workload, whatever the
    workload's mix of Python and interpreter-lock-free C code.  It samples
    once before and once after the workload too, so even a short workload
    has two samples.

    The host's speed changes within a single run, so the probe's samples
    are not averaged but integrated: ``speed`` weighs the speed ``1/t`` of
    the two samples around each stretch of workload time with the length
    of that stretch.  A median of the sample times would pick one speed
    for the whole run and rescale wrongly whenever the run spans two.
    """

    def __init__(self):
        self.samples = []  # (start, duration) of each probe run

    def _sample(self, *_):
        started = time.perf_counter()
        probe_kernel()
        self.samples.append((started, time.perf_counter() - started))

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def speed(self):
        """Mean of ``1/t`` over the workload time between the first and last sample."""
        span = weighted = 0.0
        for (t0, p0), (t1, p1) in zip(self.samples, self.samples[1:]):
            gap = t1 - (t0 + p0)
            span += gap
            weighted += gap * (1 / p0 + 1 / p1) / 2
        return weighted / span


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    from carlab import cli, lab

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"carlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for argv in job["calls"]:
        args = cli.build_parser().parse_args(argv)
        with open(args.config) as fh:
            lab.default_config(args.experiment, **json.load(fh))
    result = {"t_start": T_START, "setup_s": time.monotonic() - T_START}
    started = time.perf_counter()
    probe_kernel()
    result["setup_probe_s"] = time.perf_counter() - started

    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            from spans import Tracer

            tracer = Tracer().install()
        probe = SpeedProbe()
        codes = []
        wall_s = 0.0
        try:
            probe.start()
            started = time.perf_counter()
            for argv in job["calls"]:
                codes.append(cli.main(argv))
            wall_s = time.perf_counter() - started
        finally:
            probe.stop()
            if tracer is not None:
                tracer.restore()
        # The two samples outside the timed span are not in ``wall_s``.
        in_span = sum(p for _, p in probe.samples[1:-1])
        result.update({
            "wall_s": wall_s - in_span,
            "probe_speed": probe.speed(),
            "probe_samples": len(probe.samples),
            "codes": codes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": None if tracer is None else tracer.summary(),
        })
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
