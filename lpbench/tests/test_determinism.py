#!/usr/bin/env python3
"""Determinism self-check for lpbench.

Run from the root of the repository:

    python3 lpbench/tests/test_determinism.py

Runs each workload twice at tiny size with one seed and requires the
figures the benchmark calls deterministic to repeat exactly: the
optimizer's probes (9,995) and advisor batches (284) per plan sweep,
plan_peak_rows, bound_gap_log2 and the serve request-stream digest. A
second seed must change the request stream. Exits non-zero on any
mismatch.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def deterministic(workload, seed):
    """The key=value pairs of the run's '# deterministic' line."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "lpbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    for line in out.splitlines():
        if line.startswith("# deterministic "):
            return dict(kv.split("=", 1) for kv in line.split()[2:])
    raise AssertionError(f"{workload}: no deterministic line in\n{out}")


def main():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    runs = {}
    for workload in ("plan", "serve", "churn"):
        first = deterministic(workload, 1)
        second = deterministic(workload, 1)
        expect(first == second,
               f"{workload}: same seed repeats {first} (got {second})")
        runs[workload] = first

    plan = runs["plan"]
    expect(plan["probes_per_sweep"] == "9995",
           f"plan: 9995 probes per sweep (got {plan['probes_per_sweep']})")
    expect(plan["batch_calls_per_sweep"] == "284",
           "plan: 284 advisor batches per sweep "
           f"(got {plan['batch_calls_per_sweep']})")
    other = deterministic("serve", 2)
    expect(other["stream_digest"] != runs["serve"]["stream_digest"],
           "serve: a second seed changes the request stream")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
