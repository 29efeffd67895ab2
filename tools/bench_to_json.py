#!/usr/bin/env python3
"""Convert google-benchmark JSON into the repo's machine-readable kernel
perf record (BENCH_kernel.json) and optionally gate on it.

Input is the output of e.g.

    bench_micro_kernels --benchmark_filter='BM_SaSweep' \
        --benchmark_format=json > bench_raw.json

The record keeps one entry per benchmark (items_per_second is spin updates
per second for the BM_SaSweep* family) plus the run context, so CI can
upload it as an artifact and later runs can diff against it.

Two gates, both optional:

  --enforce-ratio FAST SLOW MIN
      fail unless items_per_second[FAST] >= MIN * items_per_second[SLOW].
      Within-run ratios are machine-independent, so this is the robust CI
      check for "threshold mode is faster than exact mode".

  --baseline FILE --min-fraction F
      fail if any benchmark present in both runs dropped below F times its
      recorded baseline items_per_second.  Absolute throughput varies a lot
      across machines (the committed baseline is one reference box), so F
      should be loose — this catches catastrophic regressions (a kernel
      silently falling back to a scalar path), not percent-level drift.

Exit code 0 = converted (and all requested gates passed), 1 = a gate
failed, 2 = bad input.
"""

import argparse
import json
import sys


def load_benchmarks(raw):
    """name -> aggregate record; prefers *_median aggregates when present.

    With --benchmark_repetitions the median record also carries
    items_per_second_spread: (max - min) / median over the repetitions.
    """
    out = {}
    medians = {}
    reps = {}
    for bench in raw.get("benchmarks", []):
        name = bench.get("name", "")
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench.get("run_name", name)] = dict(bench)
            continue
        out.setdefault(name, bench)
        if bench.get("items_per_second"):
            reps.setdefault(bench.get("run_name", name), []).append(
                bench["items_per_second"])
    for name, median in medians.items():
        values = reps.get(name, [])
        if len(values) > 1 and median.get("items_per_second"):
            median["items_per_second_spread"] = (
                (max(values) - min(values)) / median["items_per_second"])
    out.update(medians)  # aggregate medians shadow single runs
    return out


def record_of(bench):
    rec = {
        "items_per_second": bench.get("items_per_second"),
        "real_time_ns": bench.get("real_time"),
        "cpu_time_ns": bench.get("cpu_time"),
        "iterations": bench.get("iterations"),
    }
    if "items_per_second_spread" in bench:
        rec["items_per_second_spread"] = bench["items_per_second_spread"]
    # Every bench binary publishes its domain counters under a quamax_
    # prefix, so the record carries them through without a hand-maintained
    # whitelist: adding a counter to a bench is enough to land it in the
    # artifact.
    for counter, value in bench.items():
        if counter.startswith("quamax_"):
            rec[counter] = value
    return rec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--in", dest="infile", default="-",
                        help="google-benchmark JSON (default: stdin)")
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output record path")
    parser.add_argument("--enforce-ratio", nargs=3, action="append",
                        metavar=("FAST", "SLOW", "MIN"), default=[],
                        help="require items/s[FAST] >= MIN * items/s[SLOW]")
    parser.add_argument("--baseline", default=None,
                        help="previously recorded BENCH_kernel.json")
    parser.add_argument("--min-fraction", type=float, default=0.25,
                        help="fail below this fraction of baseline items/s")
    args = parser.parse_args()

    try:
        if args.infile == "-":
            raw = json.load(sys.stdin)
        else:
            with open(args.infile) as f:
                raw = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_to_json: cannot read benchmark JSON: {err}",
              file=sys.stderr)
        return 2

    benchmarks = load_benchmarks(raw)
    if not benchmarks:
        print("bench_to_json: no benchmarks in input", file=sys.stderr)
        return 2

    record = {
        "context": raw.get("context", {}),
        "kernels": {name: record_of(b) for name, b in benchmarks.items()},
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_to_json: wrote {len(record['kernels'])} kernels to "
          f"{args.out}")

    failures = []

    def items(name):
        rec = record["kernels"].get(name)
        if rec is None or not rec.get("items_per_second"):
            failures.append(f"benchmark '{name}' missing from this run")
            return None
        return rec["items_per_second"]

    for fast, slow, minimum in args.enforce_ratio:
        f_ips, s_ips = items(fast), items(slow)
        if f_ips is None or s_ips is None:
            continue
        ratio = f_ips / s_ips
        verdict = "OK" if ratio >= float(minimum) else "FAIL"
        print(f"bench_to_json: {fast} / {slow} = {ratio:.2f}x "
              f"(required >= {float(minimum):.2f}x) {verdict}")
        if ratio < float(minimum):
            failures.append(
                f"ratio {fast}/{slow} = {ratio:.2f}x < {float(minimum):.2f}x")

    if args.baseline:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_to_json: cannot read baseline: {err}",
                  file=sys.stderr)
            return 2
        for name, base in sorted(baseline.get("kernels", {}).items()):
            base_ips = base.get("items_per_second")
            cur = record["kernels"].get(name)
            if not base_ips or cur is None or not cur.get("items_per_second"):
                continue
            frac = cur["items_per_second"] / base_ips
            verdict = "OK" if frac >= args.min_fraction else "FAIL"
            print(f"bench_to_json: {name}: {frac:.2f}x of baseline "
                  f"(floor {args.min_fraction:.2f}x) {verdict}")
            if frac < args.min_fraction:
                failures.append(
                    f"{name} fell to {frac:.2f}x of the recorded baseline")

    if failures:
        for failure in failures:
            print(f"bench_to_json: FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
