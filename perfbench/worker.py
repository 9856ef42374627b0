"""One iteration of one workload, in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --started T [--spans PATH]

Imports lmkit from the checkout's `src/`, builds every job's inputs, runs
the jobs one after another on the main thread and prints one JSON record:
set-up time (from T, the parent's `time.perf_counter()` just before it
started this process; the clock is system-wide on Linux), solve time, each
job's time and scoring, all in reference seconds (see SpeedProbe), the
same set-up and solve times in wall seconds, and the peak resident memory.
With `--trace 1` the layers are traced from outside; the record then
carries the per-layer metrics, and `--spans` names the file the spans are
written to (wall-clock nanoseconds).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# The speed probe times one calibration slice every TICK_S seconds and
# smooths each slice with SMOOTH slices on either side (a median).
TICK_S = 0.1
SMOOTH = 2
# Median calibration slice time on the reference machine (Intel Xeon, two
# vCPUs, Python 3.11.7) in a quiet period; it only fixes the unit.
REFERENCE_SLICE_S = 0.0012


def calibration_slice() -> None:
    """A fixed piece of pure-Python work that does not use lmkit: a product
    of two small dictionaries of Fractions, the kind of work lmkit's exact
    arithmetic does (about 1.2 ms on the reference machine)."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
    out: dict = {}
    for (i, j), c in a.items():
        for (k, m), d in a.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + c * d


class SpeedProbe:
    """A clock that runs at the machine's current speed for Python code.

    While started, SIGALRM interrupts the main thread every TICK_S seconds
    and the handler times one calibration slice; no thread is added.  After
    the run, `clock()` maps a `time.perf_counter` reading to reference
    seconds: between two slices the clock runs REFERENCE_SLICE_S over the
    slice time (the median of the slices around each end, averaged), before
    the first and after the last slice at their speed, and it stands still
    while a slice runs, so the probe's own work is in no time it measures.
    A shared machine whose speed changes by up to 2x from one second to the
    next thus reads the same work as the same time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, *_):
        start = time.perf_counter()
        calibration_slice()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._tick()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def clock(self):
        xs, ends = self.starts, self.ends
        slices = [e - s for s, e in zip(xs, ends)]
        speed = [
            REFERENCE_SLICE_S / statistics.median(slices[max(0, k - SMOOTH) : k + SMOOTH + 1])
            for k in range(len(slices))
        ]
        # The clock's reading at each slice's start (and end: it stands still).
        readings = [0.0]
        for k in range(1, len(xs)):
            gap = xs[k] - ends[k - 1]
            readings.append(readings[-1] + gap * (speed[k - 1] + speed[k]) / 2)

        def reference(t: float) -> float:
            k = bisect.bisect_right(xs, t)
            if k == 0:
                return readings[0] - (xs[0] - t) * speed[0]
            if t <= ends[k - 1]:
                return readings[k - 1]
            if k == len(xs):
                return readings[-1] + (t - ends[-1]) * speed[-1]
            gap = xs[k] - ends[k - 1]
            return readings[k - 1] + (t - ends[k - 1]) / gap * (readings[k] - readings[k - 1])

        return reference


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.  VmHWM starts
    afresh at exec; getrusage's ru_maxrss would also count the parent's
    memory, which the child inherits through fork and exec on Linux."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_jobs(jobs, spans=None) -> list[dict]:
    """Run the jobs one after another; each job is one trace id."""
    results = []
    for trace_id, job in enumerate(jobs, start=1):
        if spans is not None:
            spans.trace_id = trace_id
        start = time.perf_counter()
        try:
            verdict, witness = job.run()
            error = workloads.score(job, verdict, witness)
        except Exception as exc:  # a raising job is scored, not fatal
            traceback.print_exc()
            error = f"raised {type(exc).__name__}: {exc}"
        results.append(
            {
                "id": job.id,
                "start": start,
                "end": time.perf_counter(),
                "negative": job.negative,
                "error": error,
            }
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument(
        "--started",
        type=float,
        required=True,
        help="time.perf_counter() of the parent just before it started this process",
    )
    args = parser.parse_args()
    probe = SpeedProbe()
    probe.start()

    sys.path.insert(0, SRC)
    import lmkit
    from lmkit import cli  # noqa: F401  (loads every lmkit module)

    if not os.path.abspath(lmkit.__file__).startswith(SRC + os.sep):
        print(f"lmkit was imported from {lmkit.__file__}, not {SRC}", file=sys.stderr)
        return 1

    spans = None
    if args.trace:
        spans = tracer.Tracer()
        spans.install()
    jobs = workloads.setup(args.workload, args.seed)
    setup_end = time.perf_counter()
    results = run_jobs(jobs, spans)
    solve_end = time.perf_counter()
    probe.stop()

    reference = probe.clock()
    for job in results:
        job["ms"] = (reference(job.pop("end")) - reference(job.pop("start"))) * 1e3
    record = {
        "setup_s": reference(setup_end) - reference(args.started),
        "solve_s": reference(solve_end) - reference(setup_end),
        "setup_wall_s": setup_end - args.started,
        "solve_wall_s": solve_end - setup_end,
        "slices": len(probe.starts),
        "peak_rss_mb": peak_rss_mb(),
        "jobs": results,
    }
    if spans is not None:
        spans.uninstall()
        record["layers"] = spans.layer_metrics(lambda ns: reference(ns / 1e9))
        record["spans"] = spans.span_count()
        if args.spans:
            spans.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
