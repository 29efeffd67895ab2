#!/usr/bin/env bash
# Writes the stdout of every determinism command the CI runs, one file per
# command, so two builds of the same source (say, a baseline Release tree
# and an -march=x86-64-v3 tree) can be compared with `diff -r`:
#
#   tools/determinism_outputs.sh build-base out-base
#   tools/determinism_outputs.sh build-v3 out-v3
#   diff -r out-base out-v3
#
# Covers quickstart in both accept modes, the figure-path benches, the
# serve / duplex / warm-start / fault / growth-plan smokes at 1 and 4
# devices, and the downlink VPP record.  Run from the repository root.
set -euo pipefail

bin=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
plan=$(pwd)/examples/growth_storm.plan
export QUAMAX_THREADS=${QUAMAX_THREADS:-2}

for mode in exact threshold32; do
  QUAMAX_SCALE=0.2 "$bin/examples/quickstart" --accept-mode "$mode" \
    > "$out/quickstart_$mode.txt"
done

for b in bench_reverse_annealing bench_ablations bench_nextgen_chip \
         bench_fig4_solution_ranks bench_fig5_jf_sensitivity \
         bench_fig13_awgn_ttb bench_fig14_vs_zeroforcing \
         bench_fig15_trace_driven; do
  QUAMAX_SCALE=0.1 "$bin/bench/$b" > "$out/$b.txt"
done

for dev in 1 4; do
  export QUAMAX_SCALE=0.5 QUAMAX_DEVICES=$dev
  "$bin/bench/bench_serve_load" smoke > "$out/serve_d$dev.txt"
  "$bin/bench/bench_serve_load" smoke --downlink 0.5 > "$out/duplex_d$dev.txt"
  "$bin/bench/bench_warmstart" smoke --coherence 0.9 > "$out/warm_d$dev.txt"
  "$bin/bench/bench_fault" smoke > "$out/fault_d$dev.txt"
  "$bin/bench/bench_fault" smoke --fault-plan "$plan" > "$out/plan_d$dev.txt"
done
unset QUAMAX_DEVICES

QUAMAX_SCALE=0.1 "$bin/bench/bench_vpp" --threads 0 > "$out/bench_vpp.txt"
