"""Run one workload of the lmkit benchmark and print its metrics.

    python3 perfbench/run.py --workload certify|functor|degree|oracle \
        --seed N --seconds S --trace 0|1 [--results FILE]

Run from the root of a checkout.  Each iteration is a fresh Python process
(perfbench/worker.py) that imports lmkit from `src/`, builds the workload's
inputs from the seed and runs every job once, one after another, with no
extra threads; iterations run one at a time.  At least MIN_ITERATIONS
run; after that, new iterations start while the longest one so far still
fits in S seconds.  Each metric is the median over the run's iterations.

Times are reported in reference seconds: each worker runs a speed probe
that times a small calibration slice every 0.1 s and reads every time it
reports (set-up, each job, solve, per-layer self times) on a clock that
runs at the machine's speed around that moment (see SpeedProbe in
perfbench/worker.py).  On a shared machine whose speed changes by up to 2x
from one second to the next, this keeps runs of the same code comparable;
the raw wall times are printed and kept in the results record.

With `--trace 0` the run prints every end-to-end metric of BENCHMARK.json.
With `--trace 1` it alternates untraced and traced iterations, prints every
per-layer metric and the tracing overhead (traced minus untraced solve_s),
and writes each traced iteration's spans to perfbench/out/spans/.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `--results` also appends the full
record, with provenance, to FILE as one JSON line.  The exit code is 0 only
if every iteration ran to the end.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(HERE, "out", "spans")
WALL = ("setup_wall_s", "solve_wall_s")
# A run must end within 180 s; no iteration may start a child with less
# than this much of the budget left.
BUDGET_S = 170.0
# A run's figure is the median of at least this many iterations, so that
# one iteration in a slow phase of the machine does not decide it.
MIN_ITERATIONS = 3


class RunError(RuntimeError):
    pass


def run_iteration(workload: str, seed: int, trace: int, spans: str | None, deadline: float) -> dict:
    """One fresh worker process.  Its set-up time runs from just before the
    process is started to the end of its set-up; both ends are read from
    the system-wide monotonic clock that `time.perf_counter` uses on Linux."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace)] + (["--spans", spans] if spans else [])
    started = time.perf_counter()
    timeout = deadline - started
    if timeout <= 0:
        raise RunError("no time left for another iteration")
    try:
        proc = subprocess.run(
            cmd + ["--started", repr(started)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no record")
    return json.loads(lines[-1])


def _ms(record: dict, which=None) -> list[float]:
    return [j["ms"] for j in record["jobs"] if which is None or j["negative"] == which]


def _p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between samples and never beyond
    the largest, which matters for workloads with a handful of jobs."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(records: list[dict]) -> dict:
    """Each metric per iteration, then the median over iterations."""
    per_iteration = iteration_values(records)
    return {name: statistics.median(values) for name, values in per_iteration.items()}


def iteration_values(records: list[dict]) -> dict:
    return {
        "setup_s": [r["setup_s"] for r in records],
        "solve_s": [r["solve_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "query_ms_p50": [statistics.median(_ms(r)) for r in records],
        "query_ms_p90": [_p90(_ms(r)) for r in records],
        "equal_ms_p50": [statistics.median(_ms(r, False)) for r in records],
        "unequal_ms_p50": [statistics.median(_ms(r, True)) for r in records],
    }


def per_layer(records: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced iteration (they must repeat exactly in
    every other one) and the median of every time and ratio."""
    first = records[0]["layers"]
    mismatched = [
        name
        for name, value in first.items()
        if isinstance(value, int) and any(r["layers"][name] != value for r in records)
    ]
    out = {}
    for name, value in first.items():
        if isinstance(value, int):
            out[name] = value
        else:
            out[name] = statistics.median(r["layers"][name] for r in records)
    return out, mismatched


def error_rate(records: list[dict]) -> tuple[list[dict], int]:
    """The failed jobs and the number attempted.  A job fails when it
    raised, returned another verdict than expected, or said "no" without a
    witness."""
    jobs = [j for r in records for j in r["jobs"]]
    return [j for j in jobs if j["error"]], len(jobs)


def provenance(seed: int, records: list[dict]) -> dict:
    first = _ms(records[0])
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "lmkit_commit": _git_commit(),
        "lmkit_src_sha256": _src_digest(),
        "seed": seed,
        "iterations": len(records),
        # Each percentile is taken over one iteration's queries, then the
        # median over iterations is reported.
        "samples_behind_percentiles": {
            "query": len(first),
            "query_beyond_p90": sum(1 for v in first if v > _p90(first)),
            "equal": len(_ms(records[0], False)),
            "unequal": len(_ms(records[0], True)),
            "iterations": len(records),
        },
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout; see lmkit_src_sha256)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "lmkit", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_iterations(workload: str, seed: int, seconds: float, trace: int):
    """Untraced iterations, each followed by a traced one when tracing:
    MIN_ITERATIONS steps, then more while the longest step so far still
    fits in `seconds`.  No step starts that would not fit in BUDGET_S."""
    start = time.perf_counter()
    deadline = start + BUDGET_S
    untraced, traced = [], []
    longest = 0.0
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
    while True:
        step = time.perf_counter()
        untraced.append(run_iteration(workload, seed, 0, None, deadline))
        if trace:
            spans = os.path.join(SPANS_DIR, f"{workload}-seed{seed}-{len(traced) + 1}.tsv")
            traced.append(run_iteration(workload, seed, 1, spans, deadline))
        longest = max(longest, time.perf_counter() - step)
        now = time.perf_counter()
        if now + longest > deadline or (
            len(untraced) >= MIN_ITERATIONS and now + longest > start + seconds
        ):
            return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", default=None, help="append the full record here")
    args = parser.parse_args(argv)

    declared = declared_metrics(args.trace)
    try:
        untraced, traced = run_iterations(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    failures, attempted = error_rate(untraced + traced)
    values = end_to_end(untraced)
    notes = []
    if args.trace:
        layers, mismatched = per_layer(traced)
        values.update(layers)
        if mismatched:
            notes.append(f"call counts differ between traced iterations: {mismatched}")
        overhead = statistics.median(r["solve_s"] for r in traced) - values["solve_s"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    prov = provenance(args.seed, untraced)
    rate = len(failures) / attempted
    print(f"workload {args.workload}  seed {args.seed}  iterations {len(untraced)}"
          + (f" untraced + {len(traced)} traced" if args.trace else ""))
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:44s} {shown} {m['unit']}")
    walls = {k: statistics.median(r[k] for r in untraced) for k in WALL}
    print("  wall " + "  ".join(f"{k} {v:.6g}" for k, v in walls.items()))
    print(f"  {'error_rate':44s} {rate:>14.6g} ({len(failures)} of {attempted} jobs)")
    if args.trace:
        print(f"  {'tracing overhead (traced - untraced solve_s)':44s} {overhead:>14.6g} s")
    for job in failures[:10]:
        print(f"  FAILED {job['id']}: {job['error']}")
    for note in notes:
        print(f"  CHECK FAILED: {note}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": not failures and not notes,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    if args.results:
        full = dict(result, workload=args.workload, seconds=args.seconds,
                    trace=args.trace, error_rate=rate, provenance=prov,
                    per_iteration=dict(iteration_values(untraced),
                                       **{k: [r[k] for r in untraced] for k in WALL}))
        if args.trace:
            full["trace_overhead_s"] = overhead
            full["spans"] = [r["spans"] for r in traced]
        with open(args.results, "a") as out:
            out.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
