#!/usr/bin/env python3
"""Builds lpbench from the checkout and runs one workload.

Run from the root of the repository:

    python3 lpbench/run.py --workload plan --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/lpbench (default .bench_build/lpbench)
and is incremental, so only the first run compiles. Build output goes to
standard error; standard output ends with the benchmark's one-line JSON
result. BENCHMARK.json is the one list of metrics: the result's names and
units are checked against it and put in its order, and a traced run's
per-layer metrics of layers the workload never reaches are reported as 0.
Exit status is the benchmark's (non-zero on a failed correctness check),
or non-zero when the build fails, the result does not match
BENCHMARK.json, or the environment sets an LPB_ knob (a result always
measures the library's defaults).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"lpbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "lpbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "lpbench")


def expected_metrics(trace):
    """(name, unit) pairs of the metrics the run must report, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def conform(metrics, expected, zero_fill):
    """The metrics in BENCHMARK.json order, or None if they do not match."""
    names = {name for name, _ in expected}
    ok = True
    for name in metrics:
        if name not in names:
            fail(f"unexpected metric {name}")
            ok = False
    out, missing = {}, []
    for name, unit in expected:
        if name not in metrics:
            if not zero_fill:
                fail(f"metric {name} not measured")
                ok = False
            missing.append(name)
            out[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"metric {name} has unit {metrics[name]['unit']}, "
                 f"expected {unit}")
            ok = False
        else:
            out[name] = metrics[name]
    if ok and missing:
        print("# layers not exercised by this workload (reported 0): " +
              " ".join(missing))
    return out if ok else None


def main(argv):
    knobs = sorted(k for k in os.environ if k.startswith("LPB_"))
    if knobs:
        return fail("refusing to run with " + ", ".join(knobs) +
                    " set; the benchmark measures default options only")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        return fail(f"no program sources under {ROOT}/src")
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    try:
        binary = build()
        expected = expected_metrics(trace)
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        return fail(f"build failed: {e}")

    run = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode not in (0, 1) or not lines:
        return fail(f"benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])
    metrics = conform(result["metrics"], expected, zero_fill=trace)
    if metrics is None:
        return fail("the result does not match BENCHMARK.json")
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
