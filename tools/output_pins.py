#!/usr/bin/env python3
"""Byte pins for every determinism command's output: one manifest.

Usage:
    output_pins.py --bin-dir BUILD [--test NAME] [--record]

Each ENTRIES row is one command -- a name, its QUAMAX_SCALE, a binary
relative to the CMake build tree BUILD and its arguments, the files it may
write and the CTest of TESTS that runs it -- plus variants that must print
the same bytes: other --threads/--replicas settings, other
spellings of the same knobs (`--f v`, `--f=v`, QUAMAX_* variables), and
observed runs (--trace, --metrics, --slo, --prof).  Every variant runs with
no inherited QUAMAX_* variable, in a fresh temp dir as its cwd, so the
relative file names in its arguments are written there.

Checks, in order:

  1. every variant exits 0 (the serving smokes exit non-zero on a deadline
     miss, the gated benches on a failed acceptance line);
  2. all variants of an entry print the same stdout, and any file two
     variants write holds the same bytes in both;
  3. every variant writes each of the entry's `files` that its arguments
     or environment name (by flag or QUAMAX_* value alike), and no other
     file; every trace*.json passes trace_to_chrome.validate and every
     metrics*.json passes metrics_check.validate;
  4. the sha256 of each entry's stdout and of each file it writes matches
     PINS ("entry/stdout", "entry/FILE").  Files of the entry's `wall`
     hold wall-clock times: they are checked 1-3 but not pinned.

Every pinned byte is a pure function of the command: the virtual clock and
the counter-derived RNG streams never depend on lanes, replica blocks,
observation or host load.  `--test NAME` runs only the entries of that
CTest (tests/CMakeLists.txt registers one per TESTS name); without it the
whole manifest runs.  `--record` prints the current PINS rows of the
entries run instead of checking them, and refuses (exit 1) when a check
1-3 fails.

Exit code 0 = every pin holds, 1 = a check failed, 2 = bad usage.
"""

import argparse
import concurrent.futures
import contextlib
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import metrics_check  # noqa: E402
import trace_to_chrome  # noqa: E402

PLAN = os.path.join(os.path.dirname(TOOLS), "examples", "growth_storm.plan")

# A variant is (extra arguments, extra environment).
T1 = (["--threads", "1", "--replicas", "1"], {})
T8 = (["--threads", "8", "--replicas", "16"], {})
THREADS = [T1, T8]


def spellings(**knobs):
    """The same knob settings as `--f v`, as `--f=v` and as QUAMAX_* env."""
    flags = {f"--{k.replace('_', '-')}": v for k, v in knobs.items()}
    return [([a for f, v in flags.items() for a in (f, v)], {}),
            ([f"{f}={v}" for f, v in flags.items()], {}),
            ([], {f"QUAMAX_{k.upper()}": v for k, v in knobs.items()})]


# The CTests that run the manifest, each a share of its entries:
# output_pins the commands that write no file, trace_pins the serving
# smokes and fault runs with observed variants, and the round trips the
# walkthrough's trace and metrics and bench_warmstart's full-mode metrics.
# They keep the names of the separate checks this manifest replaced, so
# test lists that name those checks still run them.
TESTS = ("output_pins", "trace_pins", "trace_roundtrip", "metrics_roundtrip",
         "warmstart_metrics_roundtrip")


def entry(name, scale, binary, args, variants=THREADS, files=(), wall=(),
          test="output_pins"):
    assert test in TESTS, test
    return {"name": name, "scale": scale, "binary": binary, "args": args,
            "variants": variants, "files": files, "wall": wall, "test": test}


OBS_FILES = ("trace.json", "metrics.json")


SLO2 = "miss_rate<=0.05,p99<=100000"
WARM_OBS = (T8[0] + ["--trace", "trace.json", "--metrics", "metrics.json",
                     "--slo", SLO2, "--prof"], {})
FAULT_OBS = (["--trace", "trace.json", "--metrics", "metrics.json",
              "--slo", "miss_rate<=0.05", "--prof"], {})
PLAN_OBS = (["--trace", "trace.json"], {})
WARM_METRICS = {"QUAMAX_METRICS": "metrics.json", "QUAMAX_SLO": SLO2}

ENTRIES = [
    # Slowest first, so the pool's last runs are short ones.  bench_vpp's
    # Parameters line echoes replicas/batch, so it runs at one setting.
    entry("vpp", "0.1", "bench/bench_vpp", ["--threads", "0"],
          variants=[([], {})]),
    entry("quickstart_exact", "0.2", "examples/quickstart",
          ["--accept-mode", "exact"]),
    entry("quickstart_threshold32", "0.2", "examples/quickstart",
          ["--accept-mode", "threshold32"]),
    # The one command that runs threshold32 on shared coefficients (the
    # logical sampler and the ICE-off arm); the serving smokes anneal ICE
    # per-replica blocks only, and quickstart's stdout is mode-blind.
    entry("ablations_threshold32", "0.1", "bench/bench_ablations",
          ["--accept-mode", "threshold32"]),
] + [
    entry(bench, "0.1", f"bench/{bench}", [])
    for bench in ("bench_reverse_annealing", "bench_ablations",
                  "bench_nextgen_chip", "bench_fig4_solution_ranks",
                  "bench_fig5_jf_sensitivity", "bench_fig13_awgn_ttb",
                  "bench_fig14_vs_zeroforcing", "bench_fig15_trace_driven")
] + [
    e for dev in ("1", "4") for e in (
        entry(f"serve_d{dev}", "0.5", "bench/bench_serve_load",
              ["smoke", "--devices", dev]),
        entry(f"duplex_d{dev}", "0.5", "bench/bench_serve_load",
              ["smoke", "--downlink", "0.5", "--devices", dev]),
        entry(f"warm_d{dev}", "0.5", "bench/bench_warmstart",
              ["smoke", "--coherence", "0.9", "--devices", dev],
              variants=THREADS + [WARM_OBS], files=OBS_FILES,
              test="trace_pins"),
        entry(f"fault_d{dev}", "0.5", "bench/bench_fault",
              ["smoke", "--devices", dev], variants=THREADS + [FAULT_OBS],
              files=OBS_FILES, test="trace_pins"),
        entry(f"plan_d{dev}", "0.5", "bench/bench_fault",
              ["smoke", "--fault-plan", PLAN, "--devices", dev],
              variants=THREADS + [PLAN_OBS], files=("trace.json",),
              test="trace_pins"),
    )
] + [
    entry("knob_serve", "0.5", "bench/bench_serve_load", ["smoke"],
          variants=spellings(devices="2", threads="2", replicas="4",
                             downlink="0.5")),
    entry("knob_fault", "0.5", "bench/bench_fault", ["smoke"],
          variants=spellings(devices="2", threads="2", replicas="4",
                             max_retries="2", fallback="mmse")),
    entry("fault_full", "0.5", "bench/bench_fault",
          ["--json", "raw.json", "--metrics", "metrics.json",
           "--trace", "trace.json"],
          variants=[(["--threads", "0"], {}), T1],
          files=OBS_FILES + ("raw.json",), wall=("raw.json",),
          test="trace_pins"),
    entry("warmstart_full", "0.5", "bench/bench_warmstart", [],
          variants=[(["--threads", "0"], {}), T1]),
    entry("warmstart_full_metrics", "0.05", "bench/bench_warmstart", [],
          variants=[(T1[0], WARM_METRICS), (T8[0], WARM_METRICS)],
          files=("metrics.json",), test="warmstart_metrics_roundtrip"),
    entry("cran_trace", "0.1", "examples/cran_service", [],
          variants=[(T1[0] + ["--trace", "trace.json"], {}),
                    (T8[0], {"QUAMAX_TRACE": "trace.json"}),
                    ([], {})],
          files=("trace.json",), test="trace_roundtrip"),
    entry("cran_metrics", "0.1", "examples/cran_service", [],
          variants=[(T1[0] + ["--metrics", "metrics.json", "--slo", SLO2],
                     {}),
                    (T8[0], {"QUAMAX_METRICS": "metrics.json",
                             "QUAMAX_SLO": SLO2})],
          files=("metrics.json",), test="metrics_roundtrip"),
]

# sha256 of every pinned output, "entry/stdout" and "entry/FILE" keys.
# Re-record only when output is meant to move, and name every re-pinned
# entry in CHANGES.md.
PINS = {
    "ablations_threshold32/stdout":
        "54061855da404464d2db3c9e135daf50765f6563314677a2a4a29bc5a26eb97f",
    "bench_ablations/stdout":
        "512ed8d48dd0d24b3a76245d038abb020608743a7495a53dac6896aa2686c208",
    "bench_fig13_awgn_ttb/stdout":
        "d8438f3be8b1db2a3398009941b5a0781e775ca16702a12ec6d87aa05c696ce7",
    "bench_fig14_vs_zeroforcing/stdout":
        "eca6608e7e516e55d97da034896b10271f890c6c49d6e0afdaa1651bb5dfeb66",
    "bench_fig15_trace_driven/stdout":
        "4c051364ba757bcd091c1b2f1118016f25795127e6e17ab946261aed42d82f26",
    "bench_fig4_solution_ranks/stdout":
        "1878ee17474482baf57e3dea171915ac65f3f5c4065d83ba5eb084bff5e19c10",
    "bench_fig5_jf_sensitivity/stdout":
        "16b504d3fcf8bc4af64d99e73c973906d43c79da80cce82805e52ca094d8ccec",
    "bench_nextgen_chip/stdout":
        "1a29706208146c9a98a185864dee399e26b797410ab6c59daa7b7cb70d130582",
    "bench_reverse_annealing/stdout":
        "2c346f7562d9e1cea9c778ab4b6b484d6d3b12eb18ee977f7edd90c97b63435c",
    "cran_metrics/metrics.json":
        "f3d9088040d84ede2056353ff77a78300a0fe79fb6f64c9f816b1a400179f84e",
    "cran_metrics/stdout":
        "f45ca8372ec324c84417de2a68248976d847ea6febc815877eda86ff2fbaa46b",
    "cran_trace/stdout":
        "6211db644ef35565fa4f4d4047c2af8a755868690d522049e2c6f75cf0367d86",
    "cran_trace/trace.json":
        "4f2223691e75862c29aaee29325e7503209a66ac8f7015beae8b9f6ebf00a1a0",
    "duplex_d1/stdout":
        "2145275fbe6d84c610c6af47bf1e2186092657efa5bd9f3cedb0c4ad0b7002e4",
    "duplex_d4/stdout":
        "e2ae6fcb190d0f1939100371b13fea996e416cc4e5e06be6140a3961eaecd3e0",
    "fault_d1/metrics.json":
        "cb3623e01fe1bb685712a26b565abf2e54254ed735deee214c7b50172519704d",
    "fault_d1/stdout":
        "c7a21b9c936f73a9f353370a56f5c8ca6f593f0104d126ab704bc349143d9cd9",
    "fault_d1/trace.json":
        "de1fec7810724a075789f54bbcdc00585872c19d9651d2eb95e2d192c9947d1c",
    "fault_d4/metrics.json":
        "fd7615aa3c066e926ce505a0e6940348c4fc98d4b468deb8ea5196899c6d779f",
    "fault_d4/stdout":
        "566dafa6b2d722f28ab6b0eca31a7d14a6fbfef5409e268f16b6bed9dd691271",
    "fault_d4/trace.json":
        "3e9c2d700354155373008ba2337be1a4f3f2d70f3eb28ad51156f5fb81c3f993",
    "fault_full/metrics.json":
        "79ffd9d7ad31e5b40e56439f3b6ab8a251e693238e1a47a95d77e669a4f538aa",
    "fault_full/stdout":
        "b41f8a8000fee4586aa0d73fed29bdae1f68bca2955c42abf23ccf01b15238a2",
    "fault_full/trace.json":
        "3362355383c926934a8f62a4bc1e487be5d2d607dfad0426eddcb6f74bce9846",
    "knob_fault/stdout":
        "8003454e03692d779cda155a54c194220c47beeab748a36020c8a753ea9b95ac",
    "knob_serve/stdout":
        "f3d794e15be812ea26a23dbb88fe202142d8a058fe51f0fee69b21787dffc6b8",
    "plan_d1/stdout":
        "39dd37e11c88465d3ed0ac8e0d7902dd46a863844e98f80282271ce47785a765",
    "plan_d1/trace.json":
        "2830f248d4c0516e083f968c6c044db7836939af95f3f74e0c96e1078b823784",
    "plan_d4/stdout":
        "a5a50e8c5755e815cd1c3f8dd3563d28fb406be2b79b52f9ef6a474f9273e96a",
    "plan_d4/trace.json":
        "f4718769171926a85d175000fba0d24e546cb1317fd9d2fb531a3429611befb5",
    "quickstart_exact/stdout":
        "dcd96b8dd411b524956a7b7cc5f788a3595a9fd04d5bf958d57d1160cb7ce883",
    "quickstart_threshold32/stdout":
        "dcd96b8dd411b524956a7b7cc5f788a3595a9fd04d5bf958d57d1160cb7ce883",
    "serve_d1/stdout":
        "4afcfa063c7c6f60f0cf54bb843c84f2b1584dda56d97e9d7687f29927e563ac",
    "serve_d4/stdout":
        "ce5276efc610539b42c193411c3bef38ea87484d0e67f18bab7888054fa9c863",
    "vpp/stdout":
        "398d1044f68c2330c03bb52710612c16dbd08775f82fdd89c58250fd1b91cd00",
    "warm_d1/metrics.json":
        "ad0ca67225e1cfeb5541af6e0af9a9407fafb9055095d8bb457b9027519b60a6",
    "warm_d1/stdout":
        "3776ff13e1d3f085e12bd41e4ecfccf429d510a2a6596863c85b6c44a4d6183c",
    "warm_d1/trace.json":
        "c557666572192ee524c3c745bf2d6343b30dac56fd1ba51533f139f9a7a2ba8f",
    "warm_d4/metrics.json":
        "9462a00cb0bdda776292840b63653b7070a458a9677e49adc411f69968567a4b",
    "warm_d4/stdout":
        "de8109fed9dfc1d14733214c9b9ba9aa149bec31384cbb9031727945a9eb7d59",
    "warm_d4/trace.json":
        "32de5fadf739622c12b178d1820acd7c55c0b476b40ef604d862a5815dfcb8f3",
    "warmstart_full/stdout":
        "4a4a13f6687a7397fb9b5ab2a5848bd876ef1d7f52330091405f34c2421f430a",
    "warmstart_full_metrics/metrics.json":
        "c0431e2d107965484b763a95bd31a20489055d4c4ca1ae0870e7e390d2bac609",
    "warmstart_full_metrics/stdout":
        "2d52426a90dd6ebc7515895aa1e8232948aead298d5f58ae34f3bc975b0e227f",
}


def run_variant(bin_dir, e, variant):
    """Runs one variant in a fresh temp dir; returns (dir, process)."""
    args, extra_env = variant
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUAMAX_")}
    env.update(extra_env, QUAMAX_SCALE=e["scale"])
    cwd = tempfile.TemporaryDirectory()
    proc = subprocess.run([os.path.join(bin_dir, e["binary"])] + e["args"]
                          + args, cwd=cwd.name, env=env,
                          capture_output=True)
    return cwd, proc


def check_files(e, variant, label, cwd, outputs, problems):
    """Validates and hashes the files one variant wrote into `outputs`."""
    args, env = variant
    named = set(e["args"] + args) | set(env.values())
    written = set(os.listdir(cwd))
    for file in sorted((set(e["files"]) & named) - written):
        problems.append(f"{label}: wrote no {file}")
    for file in sorted(written - set(e["files"])):
        problems.append(f"{label}: wrote an unlisted {file}")
    for file in sorted(written & set(e["files"])):
        path = os.path.join(cwd, file)
        validator = (trace_to_chrome.validate if file.startswith("trace")
                     else metrics_check.validate if file.startswith("metrics")
                     else None)
        if validator is not None:
            with contextlib.redirect_stdout(sys.stderr):
                if validator(path) != 0:
                    problems.append(f"{label}: {file} fails validation")
        if file in e["wall"]:
            continue
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        key = f"{e['name']}/{file}"
        if outputs.setdefault(key, digest) != digest:
            problems.append(f"{label}: {file} differs from another variant's")


def run_all(bin_dir, entries):
    """Runs every variant of `entries`; returns ({key: sha256}, problems)."""
    jobs = [(e, i, v) for e in entries for i, v in enumerate(e["variants"])]
    workers = min(4, os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(run_variant, bin_dir, e, v) for e, _, v in jobs]
        outputs, problems, stdouts = {}, [], {}
        for (e, i, variant), future in zip(jobs, futures):
            args, env = variant
            cwd, proc = future.result()
            with cwd:
                label = (f"{e['name']} variant {i} "
                         f"({' '.join(args + [f'{k}={v}' for k, v in env.items()])})")
                if proc.returncode != 0:
                    tail = proc.stderr.decode(errors="replace").splitlines()[-5:]
                    problems.append(f"{label}: exited {proc.returncode}\n"
                                    + "\n".join(tail))
                    continue
                first = stdouts.setdefault(e["name"], proc.stdout)
                if proc.stdout != first:
                    diff = difflib.unified_diff(
                        first.decode(errors="replace").splitlines(),
                        proc.stdout.decode(errors="replace").splitlines(),
                        "first variant", label, lineterm="", n=0)
                    problems.append(f"{label}: stdout differs from an earlier "
                                    f"variant's\n" + "\n".join(list(diff)[:12]))
                outputs[f"{e['name']}/stdout"] = hashlib.sha256(first).hexdigest()
                check_files(e, variant, label, cwd.name, outputs, problems)
    return outputs, problems


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--bin-dir", required=True)
    parser.add_argument("--test", choices=TESTS)
    parser.add_argument("--record", action="store_true")
    opts = parser.parse_args(argv[1:])
    entries = [e for e in ENTRIES if opts.test in (None, e["test"])]
    names = {e["name"] for e in entries}
    outputs, problems = run_all(os.path.abspath(opts.bin_dir), entries)
    if opts.record:
        if not problems:
            for key, digest in sorted(outputs.items()):
                print(f'    "{key}":\n        "{digest}",')
    else:
        pins = {k: v for k, v in PINS.items()
                if opts.test is None or k.split("/")[0] in names}
        for key in sorted(set(pins) | set(outputs)):
            if pins.get(key) != outputs.get(key):
                problems.append(f"{key}: sha256 {outputs.get(key)} "
                                f"!= pinned {pins.get(key)}")
    for problem in problems:
        print(f"output_pins: FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
