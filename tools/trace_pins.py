#!/usr/bin/env python3
"""Byte pins for the serving binaries' Chrome-trace and metrics JSON.

Usage:
    trace_pins.py --bin-dir BUILD [--record]

Runs the traced serving commands of the CI zero-drift gates (the coherent
warm-start smoke at 1 and 4 devices, the fault smoke, the full fault run,
the growth-storm plan at 1 and 4 devices, and the C-RAN walkthrough) with
their trace and metrics files pointed into a temp directory, and checks
the sha256 of every file written against the table below.  BUILD is the
CMake build tree holding bench/ and examples/.

Every pinned byte is a pure function of the command (the virtual clock
never depends on lanes, replica blocks or host load), so a change that
moves an event, a field or the event order of the trace — or any derived
metrics byte — fails here.  `--record` prints the current hashes in the
table's format instead of checking them.

Exit code 0 = every pin matches, 1 = a pin moved or a command failed,
2 = bad usage.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLAN = os.path.join(ROOT, "examples", "growth_storm.plan")

# (name, QUAMAX_SCALE, binary relative to the build tree, arguments).
# "{out}/NAME" arguments name the files the run writes; each is pinned.
RUNS = [
    (f"warm_d{dev}", "0.5", "bench/bench_warmstart",
     ["smoke", "--coherence", "0.9", "--devices", str(dev), "--threads", "8",
      "--replicas", "16", "--trace", "{out}/trace.json",
      "--metrics", "{out}/metrics.json",
      "--slo", "miss_rate<=0.05,p99<=100000"])
    for dev in (1, 4)
] + [
    ("fault_smoke", "0.5", "bench/bench_fault",
     ["smoke", "--trace", "{out}/trace.json",
      "--metrics", "{out}/metrics.json", "--slo", "miss_rate<=0.05"]),
    ("fault_full", "0.5", "bench/bench_fault",
     ["--threads", "0", "--json", "{out}/raw.json",
      "--metrics", "{out}/metrics.json", "--trace", "{out}/trace.json"]),
] + [
    (f"plan_d{dev}", "0.5", "bench/bench_fault",
     ["smoke", "--fault-plan", PLAN, "--devices", str(dev),
      "--trace", "{out}/trace.json"])
    for dev in (1, 4)
] + [
    ("cran", "0.1", "examples/cran_service",
     ["--trace", "{out}/trace.json", "--metrics", "{out}/metrics.json"]),
]

# sha256 of each pinned file, recorded at the commit that introduced this
# script; "run/file" keys.  The raw --json record holds wall times and is
# not pinned.
PINS = {
    "cran/metrics.json":
        "4f5fd443459cab8ab34c434429197b8337e341274b679b647cafc667852b23bf",
    "cran/trace.json":
        "4f2223691e75862c29aaee29325e7503209a66ac8f7015beae8b9f6ebf00a1a0",
    "fault_full/metrics.json":
        "79ffd9d7ad31e5b40e56439f3b6ab8a251e693238e1a47a95d77e669a4f538aa",
    "fault_full/trace.json":
        "3362355383c926934a8f62a4bc1e487be5d2d607dfad0426eddcb6f74bce9846",
    "fault_smoke/metrics.json":
        "cb3623e01fe1bb685712a26b565abf2e54254ed735deee214c7b50172519704d",
    "fault_smoke/trace.json":
        "de1fec7810724a075789f54bbcdc00585872c19d9651d2eb95e2d192c9947d1c",
    "plan_d1/trace.json":
        "2830f248d4c0516e083f968c6c044db7836939af95f3f74e0c96e1078b823784",
    "plan_d4/trace.json":
        "f4718769171926a85d175000fba0d24e546cb1317fd9d2fb531a3429611befb5",
    "warm_d1/metrics.json":
        "ad0ca67225e1cfeb5541af6e0af9a9407fafb9055095d8bb457b9027519b60a6",
    "warm_d1/trace.json":
        "c557666572192ee524c3c745bf2d6343b30dac56fd1ba51533f139f9a7a2ba8f",
    "warm_d4/metrics.json":
        "9462a00cb0bdda776292840b63653b7070a458a9677e49adc411f69968567a4b",
    "warm_d4/trace.json":
        "32de5fadf739622c12b178d1820acd7c55c0b476b40ef604d862a5815dfcb8f3",
}


def run_all(bin_dir):
    """Runs every command; returns ({key: sha256}, [problems])."""
    digests, problems = {}, []
    for name, scale, binary, args in RUNS:
        with tempfile.TemporaryDirectory() as out:
            argv = [os.path.join(bin_dir, binary)] + [
                a.replace("{out}", out) for a in args]
            env = dict(os.environ, QUAMAX_SCALE=scale)
            for knob in ("QUAMAX_TRACE", "QUAMAX_METRICS", "QUAMAX_SLO"):
                env.pop(knob, None)
            proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            if proc.returncode != 0:
                problems.append(f"{name}: exited {proc.returncode}")
                continue
            for file in sorted(os.listdir(out)):
                if file == "raw.json":
                    continue
                with open(os.path.join(out, file), "rb") as f:
                    digests[f"{name}/{file}"] = hashlib.sha256(
                        f.read()).hexdigest()
    return digests, problems


def main(argv):
    if len(argv) < 3 or argv[1] != "--bin-dir" or argv[3:] not in ([], ["--record"]):
        print(__doc__, file=sys.stderr)
        return 2
    digests, problems = run_all(argv[2])
    if argv[3:] == ["--record"]:
        for key, digest in sorted(digests.items()):
            print(f'    "{key}":\n        "{digest}",')
    else:
        for key in sorted(set(PINS) | set(digests)):
            if PINS.get(key) != digests.get(key):
                problems.append(f"{key}: sha256 {digests.get(key)} "
                                f"!= pinned {PINS.get(key)}")
    for problem in problems:
        print(f"trace_pins: FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
