"""Self-checks of the benchmark's own machinery.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; prints one PASS/FAIL line per check and
exits 1 if any fails.  The checks:

  oracle-determinism   one seed always yields the same oracle pairs;
  oracle-mix           another seed yields other pairs, still half equal;
  oracle-invariants    every unequal pair shares writhe and permutation,
                       and no pair is letter-identical;
  self-time            self-time arithmetic on a synthetic span tree;
  reference-clock      the speed probe's clock on synthetic slices;
  planted-verdict      a planted wrong expectation raises the error rate;
  bindings             the tracer patches every binding of a wrapped
                       function, including `from .x import f` copies;
  calls-repeat         two traced worker processes at one seed report the
                       same `.calls` counts (oracle and degree workloads).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    return ok


def oracle_checks() -> list[bool]:
    from lmkit.braidcat import BraidWord

    a, b = workloads.oracle_pairs(7), workloads.oracle_pairs(7)
    oks = [check("oracle-determinism", a == b, f"{len(a)} pairs")]
    other = workloads.oracle_pairs(8)
    half = all(sum(p.equal for p in ps) * 2 == len(ps) for ps in (a, other))
    oks.append(check("oracle-mix", other != a and half, "seeds 7 and 8 differ, both half equal"))
    bad = []
    for seed in range(5):
        for k, p in enumerate(workloads.oracle_pairs(seed)):
            u, v = BraidWord(p.strands, p.u), BraidWord(p.strands, p.v)
            if u.letters == v.letters:
                bad.append((seed, k, "identical"))
            if not p.equal and (
                u.writhe() != v.writhe() or u.permutation() != v.permutation()
            ):
                bad.append((seed, k, "invariant differs"))
    detail = f"seeds 0-4, {bad[:3]}" if bad else "seeds 0-4"
    return oks + [check("oracle-invariants", not bad, detail)]


def self_time_check() -> bool:
    # trace 1: A[0,100] > B[10,40] > C[15,25], A > D[50,90];  trace 2: E[100,130]
    names = [0, 1, 2, 1, 3]
    parents = [-1, 0, 1, 0, -1]
    starts = [0, 10, 15, 50, 100]
    ends = [100, 40, 25, 90, 130]
    got = tracer.summarize(names, parents, starts, ends)
    want = {0: (1, 30, 100), 1: (2, 20 + 40, 70), 2: (1, 10, 10), 3: (1, 30, 30)}
    return check("self-time", got == want, f"{got}")


def reference_clock_check() -> bool:
    # Slices at 0, 1 and 2 s that each take twice the reference time: the
    # clock runs at half speed, stands still during each slice and
    # extrapolates at that speed before the first and after the last.
    probe = worker.SpeedProbe()
    slice_s = 2 * worker.REFERENCE_SLICE_S
    probe.starts = [0.0, 1.0, 2.0]
    probe.ends = [t + slice_s for t in probe.starts]
    reference = probe.clock()
    cases = [
        (0.5, 1.5, (1.0 - slice_s) / 2),
        (-1.0, 3.0, (4.0 - 3 * slice_s) / 2),
        (1.0, 1.0 + slice_s, 0.0),
    ]
    got = [reference(b) - reference(a) for a, b, _ in cases]
    ok = all(abs(g - want) < 1e-12 for g, (_, _, want) in zip(got, cases))
    return check("reference-clock", ok, f"{got}")


def planted_verdict_check() -> bool:
    jobs = {j.id: j for j in workloads.setup("functor", 0)}
    honest = jobs["functor corrupted-burau N=5 L=2"]
    planted = dataclasses.replace(honest, expect="pass")
    clean, attempted = run.error_rate([{"jobs": worker.run_jobs([honest])}])
    wrong, attempted2 = run.error_rate([{"jobs": worker.run_jobs([honest, planted])}])
    ok = not clean and len(wrong) == 1 and attempted == 1 and attempted2 == 2
    detail = f"failed {len(clean)} of {attempted} -> {len(wrong)} of {attempted2}"
    return check("planted-verdict", ok, detail)


def bindings_check() -> bool:
    from lmkit import cli, freegroup, laurent, longmoody, polyfun, repfun

    watched = {
        "longmoody.fox_derivatives": (longmoody, "fox_derivatives", freegroup),
        "longmoody.group_ring_matrix": (longmoody, "group_ring_matrix", repfun),
        "polyfun.seeded_points": (polyfun, "seeded_points", laurent),
        "cli.check_coherence": (cli, "check_coherence", longmoody),
        "cli.estimate_strong_degree": (cli, "estimate_strong_degree", polyfun),
    }
    originals = {k: getattr(mod, name) for k, (mod, name, _) in watched.items()}
    poly = vars(laurent.LaurentPoly)
    mul = poly["__mul__"]
    spans = tracer.Tracer()
    spans.install()
    try:
        missed = [
            k
            for k, (mod, name, home) in watched.items()
            if getattr(mod, name) is originals[k]
            or getattr(mod, name) is not getattr(home, name)
        ]
        alias = poly["__rmul__"] is poly["__mul__"] is not mul
    finally:
        spans.uninstall()
    restored = all(getattr(mod, name) is originals[k] for k, (mod, name, _) in watched.items())
    ok = not missed and alias and restored
    return check("bindings", ok, f"missed {missed}" if missed else "")


def calls_repeat_check(workload: str, seed: int) -> bool:
    counts = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--trace", "1", "--started", repr(time.perf_counter())],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
        ).stdout
        layers = json.loads(out.strip().splitlines()[-1])["layers"]
        counts.append({k: v for k, v in layers.items() if isinstance(v, int)})
    differ = [k for k in counts[0] if counts[0][k] != counts[1][k]]
    total = sum(v for k, v in counts[0].items() if k.endswith(".calls"))
    return check(f"calls-repeat {workload}", not differ, f"{total} calls, differ: {differ}")


def main() -> int:
    oks = oracle_checks() + [
        self_time_check(),
        reference_clock_check(),
        planted_verdict_check(),
        bindings_check(),
        calls_repeat_check("oracle", 11),
        calls_repeat_check("degree", 11),
    ]
    return 0 if all(oks) else 1


if __name__ == "__main__":
    sys.exit(main())
