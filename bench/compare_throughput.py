#!/usr/bin/env python3
"""CI perf-regression gate for bench_throughput's JSON artifact.

Usage:
    compare_throughput.py BASELINE.json NEW.json [--tolerance 0.25]
                          [--min-batch-speedup 2.0] [--strict-absolute]
                          [--pivot-tolerance 0.15]
                          [--kernel-share-tolerance 0.25]
                          [--kernel-calls-tolerance 0.25]

Fails (exit 1) when
  * any warm or batch regime's *cold-normalized* estimates/s (the JSON's
    "speedup" field: est/s divided by the same run's cold est/s) falls
    more than --tolerance below the baseline's, or
  * the batch regime serves fewer than --min-batch-speedup times the
    scalar warm regime's estimates/s (the batch evaluation acceptance
    bar), or
  * a gamma_n8 or gamma_n10 lane's total simplex pivot count
    grows more than --pivot-tolerance above its baseline (the fixed-seed
    cutting-plane Γn compiles — pivot counts are deterministic per seed,
    so this gates the simplex's iteration count, not wall-clock; the
    n = 10 lane additionally carries a deliberately generous
    wall-clock ceiling, --gamma-n10-max-seconds, because that compile
    took minutes before warm row appends and the ceiling catches a
    wholesale fallback to cold re-solves even on a slow runner), or
  * the cutting-plane batch regime (gamma_cut_batch) serves fewer than
    --min-cut-batch-ratio times its own scalar evaluate-sequence rate —
    both rates come from the same process, so the ratio is
    machine-independent, or
  * a serve lane (the AdvisorService admission-batching regime: 16
    client threads x pipelined single estimates with invalidation churn)
    aggregates fewer than --min-serve-speedup times the same-process
    single-threaded scalar-warm rate (warm_ratio — the serving
    acceptance bar: admission batching must recover the batch path's
    amortization from scalar traffic), or its mean coalesced batch size
    falls below --min-serve-coalesce (coalescing-effectiveness bar:
    batches must actually form), or its p99 latency exceeds
    --serve-p99-max-ms (a deliberately generous absolute ceiling — a
    microbatch window is 100us, so a p99 in the hundreds of ms means
    requests are stuck behind a stalled queue, not a slow machine), or
    its norm-cache hit rate falls below --min-norm-hit-rate (the Zipf
    template mix repeats keys; a cold cache here means batched assembly
    stopped reusing the store), or its warm_ratio falls more than
    --tolerance below the baseline's (skipped with a note when the
    baseline predates the serve section), or any
    requests were rejected (shutdown races the measured window), or
  * the warm-append dantzig lane needs more than --max-warm-cold-ratio
    of the cold-growth dantzig_cold lane's pivots on the same seeds (the
    warm row-append acceptance bar: measured ~0.15 — appended rows
    enter with slacks basic on the previous optimum and dual simplex
    repairs only the violated rows, instead of a two-phase re-solve per
    cut round), or
  * a kernel's call count in a regime's table (a fixed number of workload
    sweeps, so calls are deterministic per build) grows more than
    --kernel-calls-tolerance above its baseline — the sharpest signal:
    a broken unchanged-RHS fast exit or B^-1 memoization shows up here as
    a call-count explosion long before wall-clock notices, or
  * an optimizer lane's enumeration counters (probes, batch_calls) grow
    above baseline — DPsize candidate admissibility is connectivity-driven
    and independent of estimate values, so these counts are exactly
    deterministic per workload: any growth means the one-batch-per-DP-level
    probing discipline broke (gated with zero tolerance; refresh the
    baseline when the workload or DP legitimately changes). A bound lane
    whose advisor_batch_calls differs from its own batch_calls fails the
    same check from the advisor's side, or
  * the executed plan-quality sums regress: the bound-driven DP's summed
    peak intermediate (optimizer_plan_quality.bound_peak_sum) must not
    exceed the traditional-model DP's or the greedy baseline's on the
    fixed-seed JOB scoring set — all three plans execute in the same
    process on the same data, so the comparison is machine-independent.
    Raw plans/s is informational unless --strict-absolute, or
  * a kernel's share of a regime's total kernel cycles grows more than
    --kernel-share-tolerance above its baseline share — shares are
    ratios within one process, so this pins a *slower kernel* (same
    calls, more cycles) to a name without flaking on absolute machine
    speed. The hot kernels run ~100 cycles/call, so their measured
    shares still wobble with timer-interrupt placement; the tolerance is
    deliberately loose and the call gate is the tight one.

The kernel-share gate is skipped (with a warning) when the baseline was
recorded under a different CPU feature set, compiler, or SIMD dispatch
than the new artifact — the headers carry cpu_avx2 / cpu_fma / compiler /
simd_dispatch for exactly this comparison. A feature mismatch alone never
fails the gate: runners legitimately differ. The call-count gate runs
either way (dispatch changes which code implements a kernel, never how
often it is called).

The gating checks are ratios of numbers measured in the same process on
the same machine (or deterministic pivot counts), so they catch real
warm/batch-path regressions without flaking on runner-to-runner speed
differences. Raw est/s is printed for visibility and compared only under
--strict-absolute (useful on a dedicated runner); the checked-in
baseline's absolute numbers come from the reference dev box scaled to 60%
(see its "_note").

Refresh bench/baseline_throughput.json from a CI artifact whenever a PR
legitimately shifts throughput or pivot counts.
"""

import argparse
import json
import sys


def by_backend(runs):
    return {run["backend"]: run for run in runs}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop vs baseline")
    parser.add_argument("--min-batch-speedup", type=float, default=2.0,
                        help="required batch/warm estimates-per-second ratio")
    parser.add_argument("--strict-absolute", action="store_true",
                        help="also gate on raw est/s (same-machine baselines)")
    parser.add_argument("--pivot-tolerance", type=float, default=0.15,
                        help="allowed fractional gamma_n8/n10 pivot growth")
    parser.add_argument("--gamma-n10-max-seconds", type=float, default=60.0,
                        help="wall-clock ceiling for the gamma_n10 compile "
                             "(generous: ~0.5s on the dev box; minutes means "
                             "warm row appends fell back to cold re-solves)")
    parser.add_argument("--min-cut-batch-ratio", type=float, default=2.0,
                        help="required batch/scalar ratio for the "
                             "cutting-plane batch regime")
    parser.add_argument("--min-serve-speedup", type=float, default=3.0,
                        help="required serve/warm aggregate throughput ratio "
                             "(16 clients vs single-threaded scalar warm)")
    parser.add_argument("--min-serve-coalesce", type=float, default=1.2,
                        help="required mean coalesced admission-batch size")
    parser.add_argument("--serve-p99-max-ms", type=float, default=500.0,
                        help="absolute p99 latency ceiling for the serve "
                             "regime (generous: ~2ms on the dev box)")
    parser.add_argument("--min-norm-hit-rate", type=float, default=0.5,
                        help="required norm-cache hit rate in the serve "
                             "regime's Zipf template mix")
    parser.add_argument("--max-warm-cold-ratio", type=float, default=0.6,
                        help="max warm-append/cold-growth pivot ratio on "
                             "the gamma_n8 dantzig lanes")
    parser.add_argument("--kernel-share-tolerance", type=float, default=0.25,
                        help="allowed absolute growth of a kernel's share "
                             "of its regime's total kernel cycles")
    parser.add_argument("--kernel-calls-tolerance", type=float, default=0.25,
                        help="allowed fractional growth of a kernel's call "
                             "count in a regime's kernel table")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    failures = []

    # Feature-set comparability check: warn (never fail) when the baseline
    # artifact came from a different CPU/compiler/dispatch, and skip the
    # per-kernel cycle-share gate in that case — cycle distributions are
    # only meaningful within one feature set.
    features_match = True
    for key in ("cpu_avx2", "cpu_fma", "compiler", "simd_dispatch"):
        base_v, new_v = baseline.get(key), new.get(key)
        if base_v != new_v:
            features_match = False
            print(f"WARNING: baseline {key}={base_v!r} but new {key}={new_v!r}"
                  f" — per-kernel cycle shares are not comparable",
                  file=sys.stderr)
    print(f"{'metric':<34} {'baseline':>12} {'new':>12} {'ratio':>8}")
    for section in ("warm", "batch"):
        base_runs = by_backend(baseline.get(section, []))
        new_runs = by_backend(new.get(section, []))
        for backend, base_run in sorted(base_runs.items()):
            if backend not in new_runs:
                failures.append(f"{section}/{backend}: missing from new JSON")
                continue
            new_run = new_runs[backend]
            for metric, gated in (("speedup", True),
                                  ("est_per_s", args.strict_absolute)):
                base_v, new_v = base_run[metric], new_run[metric]
                ratio = new_v / base_v if base_v > 0 else float("inf")
                tag = "" if gated else " (info)"
                print(f"{section + ' ' + backend + ' ' + metric + tag:<34} "
                      f"{base_v:>12.1f} {new_v:>12.1f} {ratio:>7.2f}x")
                if gated and new_v < (1.0 - args.tolerance) * base_v:
                    failures.append(
                        f"{section}/{backend}: {metric} {new_v:.1f} is "
                        f">{args.tolerance:.0%} below baseline {base_v:.1f}")

    # Per-kernel gates over the fixed-sweep kernel tables. Calls are
    # deterministic per build (same workload, same sweep count), so the
    # call gate is tight and runs regardless of the feature headers; a
    # call-count explosion means a fast exit or memoization broke. Cycle
    # *shares* are machine-independent ratios but still noisy for the
    # ~100-cycle kernels, so that gate is loose and only runs when the
    # feature headers match.
    for section in ("warm", "batch", "batch_what_if"):
        base_runs = by_backend(baseline.get(section, []))
        new_runs = by_backend(new.get(section, []))
        for backend, base_run in sorted(base_runs.items()):
            new_run = new_runs.get(backend)
            if new_run is None or "kernels" not in base_run:
                continue
            base_total = sum(k["cycles"] for k in base_run["kernels"])
            new_total = sum(k["cycles"] for k in new_run.get("kernels", []))
            new_by_name = {k["name"]: k for k in new_run.get("kernels", [])}
            for kern in base_run["kernels"]:
                new_kern = new_by_name.get(kern["name"],
                                           {"calls": 0, "cycles": 0})
                base_calls, new_calls = kern["calls"], new_kern["calls"]
                ratio = new_calls / base_calls if base_calls else float("inf")
                label = f"{section} {backend} {kern['name']} calls"
                print(f"{label:<34} {base_calls:>12} {new_calls:>12} "
                      f"{ratio:>7.2f}x")
                if new_calls > (1.0 + args.kernel_calls_tolerance) * base_calls:
                    failures.append(
                        f"{section}/{backend}: kernel {kern['name']} "
                        f"called {new_calls}x vs baseline {base_calls} "
                        f"(>{args.kernel_calls_tolerance:.0%} growth — "
                        f"fast-exit/memoization regression?)")
                if not features_match or base_total <= 0 or new_total <= 0:
                    continue
                base_share = kern["cycles"] / base_total
                new_share = new_kern["cycles"] / new_total
                label = f"{section} {backend} {kern['name']} share"
                print(f"{label:<34} {base_share:>12.3f} "
                      f"{new_share:>12.3f}")
                if new_share > base_share + args.kernel_share_tolerance:
                    failures.append(
                        f"{section}/{backend}: kernel {kern['name']} "
                        f"cycle share {new_share:.2f} is more than "
                        f"{args.kernel_share_tolerance:.2f} above "
                        f"baseline {base_share:.2f}")

    # gamma_n8 / gamma_n10 pivot gates: deterministic per seed, so a tight
    # tolerance is safe (the slack absorbs compiler-to-compiler
    # floating-point drift). The n = 10 lane also gets a generous
    # wall-clock ceiling: pivot counts stay honest under an accidental
    # cold fallback only because cold and warm happen to pivot similarly
    # per round — the *time* blows up from seconds to minutes, and the
    # ceiling is what notices.
    new_gamma = {}
    for section in ("gamma_n8", "gamma_n10"):
        base_gamma = {run["pricing"]: run
                      for run in baseline.get(section, [])}
        new_gamma = {run["pricing"]: run for run in new.get(section, [])}
        for pricing, base_run in sorted(base_gamma.items()):
            if pricing not in new_gamma:
                failures.append(f"{section}/{pricing}: missing from new JSON")
                continue
            base_p = base_run["pivots"]
            new_p = new_gamma[pricing]["pivots"]
            ratio = new_p / base_p if base_p > 0 else float("inf")
            print(f"{section + ' ' + pricing + ' pivots':<34} "
                  f"{base_p:>12} {new_p:>12} {ratio:>7.2f}x")
            if new_p > (1.0 + args.pivot_tolerance) * base_p:
                failures.append(
                    f"{section}/{pricing}: {new_p} pivots is "
                    f">{args.pivot_tolerance:.0%} above baseline {base_p}")
        if section == "gamma_n10":
            for pricing, run in sorted(new_gamma.items()):
                seconds = run.get("seconds", 0.0)
                print(f"{section + ' ' + pricing + ' seconds':<34} "
                      f"{'':>12} {seconds:>12.2f}")
                if seconds > args.gamma_n10_max_seconds:
                    failures.append(
                        f"{section}/{pricing}: compile took {seconds:.1f}s "
                        f"(ceiling {args.gamma_n10_max_seconds:.0f}s — warm "
                        f"row appends falling back to cold re-solves?)")
    # Warm-append pivot-drop bar: warm cut rounds must pivot at most
    # --max-warm-cold-ratio of the cold recompile loop on the same seeds
    # (the row-append acceptance criterion; measured ~0.15, i.e. ~85%
    # fewer pivots).
    new_gamma = {run["pricing"]: run for run in new.get("gamma_n8", [])}
    if "dantzig" in new_gamma and "dantzig_cold" in new_gamma:
        warm_p = new_gamma["dantzig"]["pivots"]
        cold_p = new_gamma["dantzig_cold"]["pivots"]
        ratio = warm_p / cold_p if cold_p > 0 else float("inf")
        print(f"{'gamma_n8 warm/cold (dantzig)':<34} {'':>12} {'':>12} "
              f"{ratio:>7.2f}x")
        if ratio > args.max_warm_cold_ratio:
            failures.append(
                f"gamma_n8: warm-append dantzig needs {ratio:.2f}x the "
                f"cold-growth pivots (max {args.max_warm_cold_ratio:.2f}x "
                f"— warm row appends not engaging?)")

    warm_runs = by_backend(new.get("warm", []))
    for backend, batch_run in sorted(by_backend(new.get("batch", [])).items()):
        if backend not in warm_runs:
            failures.append(f"batch/{backend}: no matching warm run")
            continue
        speedup = batch_run["est_per_s"] / warm_runs[backend]["est_per_s"]
        print(f"{'batch/warm ' + backend:<34} {'':>12} {'':>12} "
              f"{speedup:>7.2f}x")
        if speedup < args.min_batch_speedup:
            failures.append(
                f"batch/{backend}: only {speedup:.2f}x scalar warm "
                f"(need >= {args.min_batch_speedup:.1f}x)")

    # Serve lanes: every gated number is a same-process ratio (warm_ratio
    # divides by the scalar-warm rate measured minutes earlier in the same
    # binary; mean_batch and the hit rate are pure counters), so the gates
    # travel across runners. The p99 ceiling is absolute but generous —
    # it exists to catch a stalled queue, not a slow machine.
    base_serve = by_backend(baseline.get("serve", []))
    if not base_serve and new.get("serve"):
        print("note: baseline has no serve section — baseline-relative "
              "serve gates skipped (refresh the baseline)")
    for backend, run in sorted(by_backend(new.get("serve", [])).items()):
        label = f"serve {backend}"
        ratio = run.get("warm_ratio", 0.0)
        print(f"{label + ' warm_ratio':<34} {'':>12} {'':>12} "
              f"{ratio:>7.2f}x")
        if ratio < args.min_serve_speedup:
            failures.append(
                f"serve/{backend}: aggregate throughput only {ratio:.2f}x "
                f"scalar warm (need >= {args.min_serve_speedup:.1f}x — "
                f"admission batching not amortizing?)")
        mean_batch = run.get("mean_batch", 0.0)
        print(f"{label + ' mean_batch':<34} {'':>12} {mean_batch:>12.2f}")
        if mean_batch < args.min_serve_coalesce:
            failures.append(
                f"serve/{backend}: mean coalesced batch {mean_batch:.2f} "
                f"(need >= {args.min_serve_coalesce:.1f} — concurrent "
                f"requests are not coalescing)")
        p99_ms = run.get("p99_us", 0.0) / 1000.0
        print(f"{label + ' p99_ms':<34} {'':>12} {p99_ms:>12.2f}")
        if p99_ms > args.serve_p99_max_ms:
            failures.append(
                f"serve/{backend}: p99 {p99_ms:.1f}ms over the "
                f"{args.serve_p99_max_ms:.0f}ms ceiling (stalled queue?)")
        hit_rate = run.get("norm_hit_rate", 0.0)
        print(f"{label + ' norm_hit_rate':<34} {'':>12} {hit_rate:>12.3f}")
        if hit_rate < args.min_norm_hit_rate:
            failures.append(
                f"serve/{backend}: norm-cache hit rate {hit_rate:.2f} "
                f"(need >= {args.min_norm_hit_rate:.2f})")
        if run.get("rejected", 0):
            failures.append(
                f"serve/{backend}: {run['rejected']} requests rejected "
                f"during the measured window")
        base_run = base_serve.get(backend)
        if base_run is not None:
            base_ratio = base_run.get("warm_ratio", 0.0)
            rel = ratio / base_ratio if base_ratio > 0 else float("inf")
            print(f"{label + ' warm_ratio vs base':<34} "
                  f"{base_ratio:>12.2f} {ratio:>12.2f} {rel:>7.2f}x")
            if ratio < (1.0 - args.tolerance) * base_ratio:
                failures.append(
                    f"serve/{backend}: warm_ratio {ratio:.2f} is "
                    f">{args.tolerance:.0%} below baseline {base_ratio:.2f}")
            tag = "" if args.strict_absolute else " (info)"
            base_eps = base_run.get("est_per_s", 0.0)
            new_eps = run.get("est_per_s", 0.0)
            print(f"{label + ' est_per_s' + tag:<34} {base_eps:>12.1f} "
                  f"{new_eps:>12.1f}")
            if (args.strict_absolute
                    and new_eps < (1.0 - args.tolerance) * base_eps):
                failures.append(
                    f"serve/{backend}: est_per_s {new_eps:.1f} is "
                    f">{args.tolerance:.0%} below baseline {base_eps:.1f}")

    # Optimizer lanes: enumeration counters are exactly deterministic
    # (connectivity-driven, estimate-value-independent), so probe/batch
    # growth is gated with zero tolerance. The advisor-side batch counter
    # must agree with the optimizer's own count on the bound lanes — one
    # EstimateLog2Batch call per DP level, verified from both sides.
    base_opt = {(r["model"], r["backend"]): r
                for r in baseline.get("optimizer", [])}
    new_opt = {(r["model"], r["backend"]): r
               for r in new.get("optimizer", [])}
    for key, base_run in sorted(base_opt.items()):
        label = f"optimizer {key[0]}/{key[1]}"
        if key not in new_opt:
            failures.append(f"{label}: missing from new JSON")
            continue
        new_run = new_opt[key]
        for metric in ("probes", "batch_calls"):
            base_v, new_v = base_run[metric], new_run[metric]
            ratio = new_v / base_v if base_v else float("inf")
            print(f"{label + ' ' + metric:<34} {base_v:>12} {new_v:>12} "
                  f"{ratio:>7.2f}x")
            if new_v > base_v:
                failures.append(
                    f"{label}: {metric} grew {base_v} -> {new_v} "
                    f"(deterministic count — batching discipline broke?)")
        plans = new_run.get("plans_per_s", 0.0)
        base_plans = base_run.get("plans_per_s", 0.0)
        tag = "" if args.strict_absolute else " (info)"
        print(f"{label + ' plans_per_s' + tag:<34} {base_plans:>12.1f} "
              f"{plans:>12.1f}")
        if args.strict_absolute and plans < (1.0 - args.tolerance) * base_plans:
            failures.append(
                f"{label}: plans_per_s {plans:.1f} is "
                f">{args.tolerance:.0%} below baseline {base_plans:.1f}")
    for key, run in sorted(new_opt.items()):
        if key[0] != "bound":
            continue
        # batch_calls counts one workload sweep; the advisor counter spans
        # the whole timed run of `repeats` sweeps.
        expected = run.get("batch_calls", 0) * run.get("repeats", 0)
        if run.get("advisor_batch_calls") != expected:
            failures.append(
                f"optimizer {key[0]}/{key[1]}: advisor saw "
                f"{run.get('advisor_batch_calls')} batches but the DP "
                f"issued {run.get('batch_calls')} x {run.get('repeats')} "
                f"sweeps — a level probed the advisor more than once")

    # Executed plan quality: all three plans ran in the same process on
    # the same fixed-seed data, so the sums are deterministic and the
    # bound-driven DP must not materialize more than the traditional DP
    # or the greedy baseline in aggregate.
    pq = new.get("optimizer_plan_quality")
    if pq is None and "optimizer_plan_quality" in baseline:
        failures.append("optimizer_plan_quality: missing from new JSON")
    if pq is not None:
        bound = pq["bound_peak_sum"]
        for rival in ("traditional", "greedy"):
            rival_sum = pq[f"{rival}_peak_sum"]
            ratio = bound / rival_sum if rival_sum else float("inf")
            print(f"{'plan quality bound/' + rival:<34} {rival_sum:>12} "
                  f"{bound:>12} {ratio:>7.2f}x")
            if bound > rival_sum:
                failures.append(
                    f"optimizer_plan_quality: bound-driven peak sum {bound} "
                    f"exceeds {rival} {rival_sum} on the JOB scoring set")

    # Cutting-plane batch regime: the shared-pool multi-RHS resolve must
    # beat the scalar evaluate sequence. Both rates are measured in the
    # same process, so the ratio travels across runners.
    for run in new.get("gamma_cut_batch", []):
        backend = run["backend"]
        ratio = (run["batch_est_per_s"] / run["scalar_est_per_s"]
                 if run["scalar_est_per_s"] > 0 else float("inf"))
        print(f"{'cut batch/scalar ' + backend:<34} "
              f"{'':>12} {'':>12} {ratio:>7.2f}x")
        if ratio < args.min_cut_batch_ratio:
            failures.append(
                f"gamma_cut_batch/{backend}: batch only {ratio:.2f}x the "
                f"scalar sequence (need >= {args.min_cut_batch_ratio:.1f}x)")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
