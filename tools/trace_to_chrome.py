#!/usr/bin/env python3
"""Round-trip validator for quamax's Chrome trace-event JSON.

Usage:
    trace_to_chrome.py TRACE.json

Validates a trace written by `obs::write_chrome_trace` (the `--trace FILE`
/ `QUAMAX_TRACE` knob of the serving binaries).  The `output_pins` CTest
(tools/output_pins.py) runs `validate` on every trace its commands write,
so a change to the emitter that breaks the JSON, the span nesting, or the
virtual-clock accounting fails the suite offline.

Checks, in order:

  1. the file is valid JSON with a non-empty `traceEvents` list;
  2. track metadata is present (process_name, an "arrivals" thread, one
     thread per device that dispatched a wave);
  3. every wave slice is tiled EXACTLY by its program/anneal/readout
     children: child spans are contiguous, non-negative, start and end on
     the parent's bounds, and their durations sum to the parent's — the
     emitter prints doubles with %.17g precisely so this re-addition is
     exact, not approximate;
  4. every job flow arrow ("s" at submit, "f" at dispatch) lands inside a
     LIVE wave slice on its device track whose end matches the job's
     recorded completion — i.e. each job's latency decomposes into queue
     (submit -> dispatch) plus the wave's program/anneal/readout spans,
     summing to the virtual-clock total.  Aborted waves ("wave N FAILED",
     fault injection) have no children and host no arrows;
  5. every submitted job reaches EXACTLY ONE terminal: dispatched (flow
     terminator), dropped (drop instant), or degraded to the classical
     fallback (fallback instant).  Retry instants are informational and
     bounded by the terminal.  Each live wave's `num_jobs` arg equals the
     number of jobs whose arrows land on it;
  6. outage slices (fault::FaultPlan windows) sit on their device's track
     with non-negative duration, and no live wave overlaps an outage on
     the same device — the scheduler never serves through a window.

Exit code 0 = trace valid, 1 = a check failed, 2 = bad input/usage.
"""

import json
import sys


def fail(problems):
    for problem in problems:
        print(f"trace_to_chrome: FAIL: {problem}", file=sys.stderr)
    return 1


def validate(path):
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_to_chrome: cannot read trace: {err}", file=sys.stderr)
        return 2

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(["traceEvents missing or empty"])

    problems = []
    slices = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    flow_starts = [e for e in events if e.get("ph") == "s"]
    flow_ends = [e for e in events if e.get("ph") == "f"]
    metas = [e for e in events if e.get("ph") == "M"]

    # -- 2. track metadata -------------------------------------------------
    thread_names = {e["tid"]: e["args"]["name"] for e in metas
                    if e.get("name") == "thread_name"}
    if not any(e.get("name") == "process_name" for e in metas):
        problems.append("no process_name metadata")
    if thread_names.get(0) != "arrivals":
        problems.append("tid 0 is not named 'arrivals'")
    for tid in sorted({s["tid"] for s in slices}):
        if thread_names.get(tid) != f"device {tid - 1}":
            problems.append(f"device track tid {tid} has no thread_name")

    # -- 3. wave slices tile exactly ---------------------------------------
    # The emitter writes each wave slice immediately followed by its three
    # children, so consume the slice list in order.
    waves = []   # live waves: (tid, start, end, args)
    failed = []  # aborted waves (fault injection): (tid, start, end)
    outages = []  # FaultPlan windows: (tid, start, end)
    i = 0
    while i < len(slices):
        wave = slices[i]
        name = wave.get("name", "")
        if name == "outage":
            if wave["dur"] < 0:
                problems.append("outage slice has negative dur")
            outages.append((wave["tid"], wave["ts"],
                            wave["ts"] + wave["dur"]))
            i += 1
            continue
        if not name.startswith("wave "):
            problems.append(f"unexpected top-level slice '{name}'")
            i += 1
            continue
        if name.endswith(" FAILED"):
            # Aborted mid-anneal: no program/anneal/readout children, and no
            # job arrow may terminate on it (the members were requeued).
            if not wave.get("args", {}).get("failed"):
                problems.append(f"{name}: slice lacks failed arg")
            failed.append((wave["tid"], wave["ts"], wave["ts"] + wave["dur"]))
            i += 1
            continue
        children = slices[i + 1:i + 4]
        i += 4
        start, end = wave["ts"], wave["ts"] + wave["dur"]
        waves.append((wave["tid"], start, end, wave.get("args", {})))
        if [c.get("name") for c in children] != ["program", "anneal",
                                                 "readout"]:
            problems.append(f"{name}: children are not program/anneal/readout")
            continue
        cursor = start
        for child in children:
            if child["tid"] != wave["tid"]:
                problems.append(f"{name}: {child['name']} on wrong track")
            if child["dur"] < 0:
                problems.append(f"{name}: {child['name']} has negative dur")
            if child["ts"] != cursor:
                problems.append(f"{name}: {child['name']} starts at "
                                f"{child['ts']}, expected {cursor}")
            cursor = child["ts"] + child["dur"]
        if cursor != end:
            problems.append(f"{name}: children end at {cursor}, parent at "
                            f"{end}")
        if sum(c["dur"] for c in children) != wave["dur"]:
            problems.append(f"{name}: child durations do not sum to parent's")

    # -- 4. job flow arrows land on their wave -----------------------------
    submits = {e["args"]["job"]: e for e in instants
               if e.get("name", "").endswith(" submit")}
    drops = {e["args"]["job"]: e for e in instants
             if e.get("name", "").endswith(" drop")}
    fallbacks = {e["args"]["job"]: e for e in instants
                 if e.get("name", "").endswith(" fallback")}
    retries = [e for e in instants if e.get("name", "").endswith(" retry")]
    starts = {e["id"]: e for e in flow_starts}
    jobs_per_wave = {}
    for f_ev in flow_ends:
        job = f_ev["id"]
        if f_ev.get("bp") != "e":
            problems.append(f"job {job}: flow terminator lacks bp=e")
        s_ev = starts.get(job)
        if s_ev is None:
            problems.append(f"job {job}: flow terminator without origin")
            continue
        if f_ev["ts"] < s_ev["ts"]:
            problems.append(f"job {job}: dispatched before submit")
        if any(w[0] == f_ev["tid"] and w[1] <= f_ev["ts"] < w[2]
               for w in failed):
            problems.append(f"job {job}: arrow terminates on an aborted wave")
            continue
        hosts = [w for w in waves
                 if w[0] == f_ev["tid"] and w[1] <= f_ev["ts"] < w[2]]
        if len(hosts) != 1:
            problems.append(f"job {job}: arrow lands on {len(hosts)} waves")
            continue
        tid, start, end, args = hosts[0]
        if f_ev["args"]["completion_us"] != end:
            problems.append(f"job {job}: completion {f_ev['args']} != wave "
                            f"end {end} — spans do not sum to the "
                            f"virtual-clock total")
        jobs_per_wave[(tid, start)] = jobs_per_wave.get((tid, start), 0) + 1

    # -- 5. conservation: submitted = dispatched + dropped + fallback -------
    dispatched = {e["id"] for e in flow_ends}
    for job in submits:
        terminals = ((job in dispatched) + (job in drops)
                     + (job in fallbacks))
        if terminals != 1:
            problems.append(f"job {job}: {terminals} terminals, expected "
                            f"exactly one of dispatch/drop/fallback")
    for job in dispatched | set(drops) | set(fallbacks):
        if job not in submits:
            problems.append(f"job {job}: terminated but never submitted")
    for e in retries:
        job = e["args"]["job"]
        if job not in submits:
            problems.append(f"job {job}: retried but never submitted")
    for tid, start, end, args in waves:
        got = jobs_per_wave.get((tid, start), 0)
        if args.get("num_jobs") != got:
            problems.append(f"wave at ts {start}: num_jobs "
                            f"{args.get('num_jobs')} but {got} arrows land")

    # -- 6. outages sit on device tracks; live waves never overlap one ------
    for tid, start, end in outages:
        if tid < 1:
            problems.append(f"outage at ts {start} on non-device tid {tid}")
    for tid, start, end, args in waves:
        for o_tid, o_start, o_end in outages:
            if tid == o_tid and start < o_end and end > o_start:
                problems.append(f"wave at ts {start} on tid {tid} overlaps "
                                f"outage [{o_start}, {o_end})")

    if problems:
        return fail(problems)
    extras = ""
    if failed or outages or fallbacks or retries:
        extras = (f", faults: {len(failed)} aborted wave(s), "
                  f"{len(outages)} outage(s), {len(retries)} retry(ies), "
                  f"{len(fallbacks)} fallback(s)")
    print(f"trace_to_chrome: OK: {len(waves)} waves, {len(submits)} jobs "
          f"({len(drops)} dropped) across {len({w[0] for w in waves})} "
          f"device track(s), spans tile and sum exactly{extras}")
    return 0


def main(argv):
    if len(argv) == 2 and not argv[1].startswith("-"):
        return validate(argv[1])
    print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
    print(__doc__.strip().splitlines()[3].strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
