#!/usr/bin/env python3
"""Builds and runs the bench_e2e serving benchmark (see README.md).

  run.py --workload W --seed N --seconds S --trace 0|1
      One measured run of one workload.  The last line of stdout is one JSON
      object with the keys correct, attempted, failed and metrics: the
      end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
      metrics with --trace 1.
  run.py [--build DIR]
      All five workloads at their default seeds, 5 timed reps plus the
      traced rep each; prints every metric with its unit.
  run.py --smoke [--binary PATH]
      All five workloads, 1 set-up, 1 timed rep and the traced rep each;
      also checks that every metric BENCHMARK.json names is reported with
      its unit.  Registered as the bench_e2e_smoke ctest.
  run.py --noise K [--sets N] [--seconds S] [--baseline PATH]
      K runs of each workload per set, as the single-run mode makes them,
      each with another seed; prints per end-to-end metric the median, the
      quartile spread as a share of the median, and whether that spread
      stays under the metric's bound.  With two sets it
      also compares the second set's median with the first.  --baseline
      writes the medians and spreads as JSON.

Every mode exits non-zero when a correctness check fails, including a
timeline hash that differs from expected.json at a default seed.  The
program is built from the checkout's sources into DIR (default
.bench_build at the repository root) on first use.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
DEFAULT_BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def lanes():
    return max(1, min(4, os.cpu_count() or 1))


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no quamax sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = Path(build_dir)
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        # Another project's tree, such as the repository's own `build`:
        # keep this benchmark's tree inside it.
        build_dir = build_dir / "bench_e2e"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", str(lanes())])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build failed: {err}")
        if result.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    binary = build_dir / "bench_e2e"
    if not binary.is_file():
        die(f"build produced no {binary}")
    return binary


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        die(f"cannot read {path}: {err}")


def run_workload(binary, workload, args, tag):
    """Runs bench_e2e for one workload; returns its JSON report."""
    results = Path(binary).parent / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload}-{tag}.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--json", str(out)] + args
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        die(f"{workload}: {err}")
    if result.returncode not in (0, 1) or not out.is_file():
        die(f"{workload}: bench_e2e exited with {result.returncode}")
    return load_json(out)


def expected_hash_failures(report, expected):
    """The committed timeline hash applies only at the default seed."""
    if not report["default_seed"]:
        return []
    want = expected.get(report["workload"])
    if want == report["timeline_hash"]:
        return []
    return [f"{report['workload']}: timeline hash "
            f"{report['timeline_hash']} != expected.json {want}"]


def metric_failures(report, spec, sections=("end_to_end", "per_layer")):
    """Every metric BENCHMARK.json names must be reported with its unit."""
    failures = []
    for section in sections:
        got = report[section]
        for metric in spec[section]:
            have = got.get(metric["name"])
            if have is None:
                failures.append(f"{report['workload']}: no {section} metric "
                                f"{metric['name']}")
            elif have["unit"] != metric["unit"]:
                failures.append(f"{report['workload']}: {metric['name']} in "
                                f"{have['unit']}, BENCHMARK.json says {metric['unit']}")
    return failures


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def single_run(args, spec, expected):
    if args.workload not in workload_names(spec):
        die(f"unknown workload {args.workload}")
    if args.seed is None:
        die("--seed is required with --workload")
    binary = Path(args.binary) if args.binary else build(args.build)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    report = run_workload(
        binary, args.workload,
        ["--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", str(args.trace)],
        f"seed{args.seed}-trace{args.trace}")
    section = "per_layer" if args.trace else "end_to_end"
    failures = report["failures"] + expected_hash_failures(report, expected)
    failures += metric_failures(report, spec, [section])
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: report[section][m["name"]] for m in spec[section]
                    if m["name"] in report[section]},
    }))
    return 0 if not failures else 1


def print_report(report, spec):
    print(f"\n== {report['workload']} (seed {report['seed']}, "
          f"{report['jobs_per_rep']} jobs/rep, {report['reps']} reps, "
          f"{report['context']['lanes']} lanes) timeline {report['timeline_hash']}")
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            m = report[section].get(metric["name"])
            if m is not None:
                print(f"  {metric['name']:<36} {m['value']:>14.6g} {m['unit']}")


def suite(args, spec, expected):
    binary = Path(args.binary) if args.binary else build(args.build)
    reps = ["--reps", "1", "--setups", "1"] if args.smoke else ["--reps", "5"]
    failures = []
    for name in workload_names(spec):
        report = run_workload(binary, name, reps + ["--trace", "1"],
                              "smoke" if args.smoke else "suite")
        print_report(report, spec)
        failures += report["failures"] + expected_hash_failures(report, expected)
        failures += metric_failures(report, spec)
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(f"\n{'all checks passed' if not failures else f'{len(failures)} checks FAILED'}")
    return 0 if not failures else 1


def spread(values):
    """(median, q1, q3), quartiles from statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def noise(args, spec, expected):
    binary = Path(args.binary) if args.binary else build(args.build)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]
    names = workload_names(spec)
    values = [{w: {m["name"]: [] for m in metrics} for w in names}
              for _ in range(args.sets)]
    context = None
    failures = []
    for s in range(args.sets):
        for i in range(args.noise):
            seed = 1000 * s + i + 1
            for w in names:
                report = run_workload(
                    binary, w, ["--seed", str(seed), "--seconds", str(seconds),
                                "--trace", "0"], f"noise{s}-{i}")
                context = report["context"]
                failures += report["failures"] + expected_hash_failures(report, expected)
                for m in metrics:
                    values[s][w][m["name"]].append(report["end_to_end"][m["name"]]["value"])
                print(f"set {s} run {i} {w}: " + ", ".join(
                    f"{m['name']}={report['end_to_end'][m['name']]['value']:.5g}"
                    for m in metrics), file=sys.stderr)

    baseline = {"command": " ".join(["python3", "bench/e2e/run.py"] + sys.argv[1:]),
                "context": context, "runs_per_set": args.noise, "sets": args.sets,
                "run_seconds": seconds,
                "workloads": {}}
    print(f"{'workload':<18} {'metric':<16} {'set':>3} {'median':>12} "
          f"{'iqr/median':>10} {'bound':>6}  verdict")
    unsteady = 0
    for w in names:
        baseline["workloads"][w] = {}
        for m in metrics:
            rows = []
            for s in range(args.sets):
                med, q1, q3 = spread(values[s][w][m["name"]])
                share = (q3 - q1) / med if med else float("inf")
                verdict = ("steady" if share < m["bound"] / 3 else
                           "within bound" if share <= m["bound"] else "TOO NOISY")
                if m["name"] != "setup_s" and share > m["bound"]:
                    unsteady += 1
                if s > 0:
                    first = rows[0]["median"]
                    worse = (first - med) / first if m["better"] == "higher" \
                        else (med - first) / first
                    verdict += f", {worse:+.3f} vs set 0"
                    if worse > m["bound"]:
                        verdict += " (WORSE THAN BOUND)"
                        unsteady += 1
                rows.append({"median": med, "q1": q1, "q3": q3, "iqr_share": share})
                print(f"{w:<18} {m['name']:<16} {s:>3} {med:>12.5g} "
                      f"{share:>10.4f} {m['bound']:>6}  {verdict}")
            baseline["workloads"][w][m["name"]] = {"unit": m["unit"], "sets": rows}
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    return 1 if failures or unsteady else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", default=str(DEFAULT_BUILD),
                        help="build directory (default: .bench_build)")
    parser.add_argument("--binary", help="use this bench_e2e instead of building")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--noise", type=int, metavar="K")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--baseline", metavar="PATH")
    args = parser.parse_args()

    if not BENCHMARK.is_file():
        die(f"missing {BENCHMARK}")
    spec = load_json(BENCHMARK)
    expected = load_json(EXPECTED)
    if args.workload is not None:
        return single_run(args, spec, expected)
    if args.noise is not None:
        if args.noise < 2 or args.sets < 1:
            die("--noise needs K >= 2 and --sets >= 1")
        return noise(args, spec, expected)
    return suite(args, spec, expected)


if __name__ == "__main__":
    sys.exit(main())
