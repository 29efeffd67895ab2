// Offered-load sweeps of the C-RAN decode service (paper §2/§7 deployment
// story; Kasi et al.'s throughput-per-deadline framing).
//
// Three experiments, every number derived from the service's virtual clock
// and counter-derived decode streams (BIT-IDENTICAL at any --threads /
// --replicas setting for each --devices / --queue-policy choice):
//
//   1. WAVE PACKING: one device serves Poisson 8x8-BPSK traffic under a
//      hard deadline, with §4 packing disabled (one job per anneal batch)
//      and enabled; the sustained-load gain must be >= 2x (exit code).
//
//   2. ACCEPT-MODE SOAK (ISSUE 5 satellite): the same packed sweep under
//      AcceptMode::kExact vs kThreshold32.  The threshold kernel draws a
//      different deterministic sample stream, so serve may only default to
//      threshold32 if the miss-rate curves agree at paper-scale load; the
//      parity gate (max |miss-rate gap| <= 0.02 per load point) enforces
//      it by exit code.
//
//   3. FULL DUPLEX (ISSUE 6 tentpole): uplink detection and downlink VPP
//      precoding jobs compete for the same device pool through one
//      scheduler (50/50 Poisson mix; downlink runs the tighter budget).
//      Two gates (exit code): at the lightest load the mix must finish
//      with ZERO deadline misses, and the downlink aggregate bit errors
//      must sit at or below the zero-forcing baseline evaluated on the
//      SAME instances and noise draws (the jobwise v = 0 clip plus the
//      perturbation win must never lose to plain channel inversion).
//
//   4. QUEUE POLICIES x DEVICES (ISSUE 5 tentpole): a two-class HARQ mix —
//      tight-deadline 8-user QPSK (shape 16) + loose-deadline 8-user BPSK
//      (shape 8) — served by a sharded pool where device 0 is pristine but
//      every further device carries a dead-row defect map that cannot
//      embed shape 16, so shape-aware routing pins the QPSK class to
//      device 0.  Under FIFO, aged loose jobs at the head of the queue
//      steal the one 16-capable device from urgent QPSK jobs; EDF orders
//      by deadline and slack additionally defers already-doomed jobs.  The
//      gate (exit code): at saturating load on >= 2 devices, EDF must
//      achieve STRICTLY lower p99 total latency and miss rate than FIFO.
//
// `bench_serve_load smoke` runs a trivial mixed load only: it exits
// non-zero on ANY deadline miss and prints the ServiceStats digest for
// every queue policy at the configured --devices, which CI diffs across
// --threads/--replicas settings per device count.  With --downlink F > 0
// the smoke's loose class carries that fraction of downlink VPP precoding
// jobs, making the diff a FULL-DUPLEX determinism check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "quamax/common/stats.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/observe.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/vpp/precode.hpp"

namespace {

using namespace quamax;

/// Sketch-accuracy audit (ISSUE 8 acceptance): ServiceStats now summarizes
/// latency through obs::QuantileSketch; this recomputes p50/p95/p99 exactly
/// from the stored per-job records and tracks the worst relative error seen
/// across every audited report.  Gated <= 1% at exit.
double worst_sketch_error = 0.0;

void audit_sketch(const serve::ServiceReport& report) {
  std::vector<double> queueing, service, total;
  for (const serve::JobRecord& rec : report.jobs) {
    if (rec.dropped) continue;
    queueing.push_back(rec.queueing_us());
    service.push_back(rec.service_us());
    total.push_back(rec.total_us());
  }
  if (total.empty()) return;
  const auto check = [&](std::vector<double>& exact_values,
                         const serve::LatencySummary& summary) {
    const double sketch[] = {summary.p50_us, summary.p95_us, summary.p99_us};
    const double percentiles[] = {50.0, 95.0, 99.0};
    for (int i = 0; i < 3; ++i) {
      const double exact = percentile(exact_values, percentiles[i]);
      const double err = exact == 0.0
                             ? (sketch[i] == 0.0 ? 0.0 : 1.0)
                             : std::abs(sketch[i] - exact) / exact;
      worst_sketch_error = std::max(worst_sketch_error, err);
    }
  };
  check(queueing, report.stats.queueing());
  check(service, report.stats.service());
  check(total, report.stats.total());
}

/// Prints the gate line and returns non-zero on failure.  Exact-vs-sketch
/// errors are a pure function of the virtual-clock records, so this line is
/// byte-identical across --threads/--replicas and safe inside the CI diff.
int sketch_gate() {
  const bool pass = worst_sketch_error <= 0.01;
  std::printf("sketch accuracy: max |p50/p95/p99 error| = %.5f %s\n",
              worst_sketch_error,
              pass ? "(acceptance: <= 1%, PASS)" : "(acceptance: <= 1%, FAIL)");
  return pass ? 0 : 1;
}

/// Device pool for the policy sweep: device 0 pristine, every further
/// device dead-row defective with stride 4 (cannot embed shape 16; see
/// sched::dead_row_fault_map).
std::vector<sched::DeviceSpec> sharded_pool(std::size_t devices) {
  std::vector<sched::DeviceSpec> specs(devices);
  for (std::size_t d = 1; d < devices; ++d)
    specs[d].disabled = sched::dead_row_fault_map(chimera::ChimeraGraph(), 4);
  return specs;
}

serve::LoadConfig bpsk8_load(double jobs_per_ms, double deadline_us) {
  serve::LoadConfig cfg;
  cfg.offered_load_jobs_per_ms = jobs_per_ms;
  cfg.deadline_us = deadline_us;
  cfg.users = 8;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRandomPhase;
  cfg.problem.snr_db = std::nullopt;
  return cfg;
}

/// The full-duplex downlink family: 4x4 QPSK Rayleigh at 18 dB — above the
/// modulo-loss crossover (see bench_vpp), so the served VPP BER must hold
/// at or below zero-forcing even at the serve layer's small anneal budget.
vpp::VppConfig downlink_family() {
  vpp::VppConfig cls;
  cls.users = 4;
  cls.antennas = 4;
  cls.mod = wireless::Modulation::kQpsk;
  cls.kind = wireless::ChannelKind::kRayleigh;
  cls.snr_db = 18.0;
  return cls;
}

/// The two-class HARQ mix, LTE-subframe aligned: every `period_us` tick
/// releases one burst of loose-budget 8-user BPSK jobs (shape 8, streamed
/// by `loose_users` base stations) and one of tight-budget 8-user QPSK
/// jobs (shape 16, `tight_users` stations).  Budgets scale with the wave
/// service time so the scenario saturates identically at any QUAMAX_SCALE.
/// Tight jobs get ids/users offset past the loose class so records stay
/// attributable; OpenLoopFeed merges the classes by arrival time (loose
/// before tight on each tick, matching submission order).
std::vector<serve::CellJob> mixed_workload(double period_us, double service_us,
                                             std::size_t loose_users,
                                             std::size_t tight_users,
                                             std::size_t ticks,
                                             double tight_budget_us,
                                             double downlink_fraction = 0.0) {
  serve::LoadConfig loose = bpsk8_load(0.0, 40.0 * service_us);
  loose.arrivals = serve::ArrivalKind::kSubframe;
  loose.subframe_period_us = period_us;
  loose.users = loose_users;
  // Full-duplex smoke: the loose class carries the downlink mix (shape 16,
  // so on a sharded pool the precode jobs join the tight class on device 0).
  loose.downlink_fraction = downlink_fraction;
  loose.downlink = downlink_family();

  serve::LoadConfig tight = loose;
  tight.deadline_us = tight_budget_us;
  tight.users = tight_users;
  tight.problem.mod = wireless::Modulation::kQpsk;  // shape 16

  serve::LoadGenerator loose_gen(loose, 0xB5E1);
  serve::LoadGenerator tight_gen(tight, 0xB5E2);
  std::vector<serve::CellJob> jobs = loose_gen.open_loop(loose_users * ticks);
  for (serve::CellJob& job : tight_gen.open_loop(tight_users * ticks)) {
    job.id += loose_users * ticks;
    job.user += loose_users;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct Point {
  double offered = 0.0;
  double achieved = 0.0;
  double goodput = 0.0;
  double miss_rate = 0.0;
  double occupancy = 0.0;
  double p99_us = 0.0;
};

Point to_point(double offered, const serve::ServiceReport& report) {
  return Point{offered,
               report.stats.achieved_jobs_per_ms(),
               report.stats.goodput_jobs_per_ms(),
               report.stats.miss_rate(),
               report.stats.mean_wave_occupancy(),
               report.stats.total().p99_us};
}

void print_point(const Point& p) {
  sim::print_row({sim::fmt_double(p.offered, 1), sim::fmt_double(p.achieved, 1),
                  sim::fmt_double(p.goodput, 1), sim::fmt_double(p.miss_rate, 4),
                  sim::fmt_double(p.occupancy, 2), sim::fmt_us(p.p99_us)});
}

/// Sustained load: the largest offered load holding miss rate <= 1%.
const Point* sustained(const std::vector<Point>& curve) {
  const Point* best = nullptr;
  for (const Point& p : curve)
    if (p.miss_rate <= 0.01 && (best == nullptr || p.offered > best->offered))
      best = &p;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using sim::Knob;
  // Kernel knobs over the serving defaults, so threshold32 stays the
  // default acceptance rule.
  serve::ServiceConfig base;
  base.annealer = sim::annealer_config(argc, argv, base.annealer);
  base.num_threads = base.annealer.num_threads;
  const auto devices = sim::knob<std::size_t>(Knob::kDevices, argc, argv);
  const auto downlink_fraction = sim::knob<double>(Knob::kDownlink, argc, argv);
  // The files written at exit hold the LAST observed run's timeline,
  // windowed series, and alerts.
  serve::RunObserver observer(argc, argv);

  bool smoke = false;
  for (const std::string& arg : sim::positional_args(argc, argv))
    if (arg == "smoke") smoke = true;

  const std::size_t jobs_per_point = sim::scaled(smoke ? 90 : 600);
  const std::size_t num_anneals = sim::scaled(40);
  const std::vector<double> loads{4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
  const std::vector<sched::QueuePolicy> policies{
      sched::QueuePolicy::kFifo, sched::QueuePolicy::kEdf,
      sched::QueuePolicy::kSlack};

  sim::print_banner(
      "C-RAN decode service under offered load",
      "serve + sched subsystems (ISSUES 3 & 5): packing, accept-mode soak, "
      "queue policies x devices",
      "jobs/point = " + std::to_string(jobs_per_point) +
          ", anneals/wave = " + std::to_string(num_anneals) +
          ", Poisson arrivals" + (smoke ? " [smoke]" : ""));

  base.annealer.schedule.anneal_time_us = 1.0;
  base.annealer.schedule.pause_time_us = 0.0;
  base.num_anneals = num_anneals;
  base.program_overhead_us = 10.0;

  // -------------------------------------------------------------------
  // Smoke: trivial two-class load through the sharded pool at --devices,
  // one run per queue policy.  Zero misses required; digests printed for
  // the CI thread/replica byte-diff.
  if (smoke) {
    // Trivial load: one loose + one tight wave per 10-service-time tick;
    // even a 1-device FIFO schedule finishes both well inside the budgets.
    const double service_us = serve::DecodeService(base).wave_service_us();
    const std::vector<serve::CellJob> jobs =
        mixed_workload(10.0 * service_us, service_us, 8, 8,
                       std::max<std::size_t>(2, jobs_per_point / 16),
                       4.0 * service_us, downlink_fraction);
    std::size_t misses = 0;
    for (const sched::QueuePolicy policy : policies) {
      serve::ServiceConfig cfg = base;
      cfg.device_specs = sharded_pool(devices);
      cfg.queue_policy = policy;
      observer.attach(cfg);
      const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);
      misses += report.stats.misses();
      audit_sketch(report);
      std::printf("\nServiceStats digest (policy %s, devices %zu, downlink "
                  "%.2f):\n%s",
                  sched::to_string(policy).c_str(), devices, downlink_fraction,
                  report.stats.digest().c_str());
    }
    std::printf("\n");
    int exit_code = sketch_gate();
    if (misses != 0) {
      std::fprintf(stderr, "SMOKE FAILURE: %zu deadline misses at trivial load\n",
                   misses);
      exit_code = 1;
    } else {
      std::printf("smoke OK: zero deadline misses at trivial load\n");
    }
    return exit_code | observer.finish();
  }

  bool failed = false;

  // -------------------------------------------------------------------
  // 1. Wave packing: unpacked vs packed throughput at a fixed miss rate.
  std::vector<std::vector<Point>> packing_curves(2);
  for (const bool packing : {false, true}) {
    std::printf("\n=== wave packing %s ===\n", packing ? "ENABLED" : "DISABLED");
    sim::print_columns({"offered j/ms", "achieved j/ms", "goodput j/ms",
                        "miss rate", "occupancy", "p99 us"});
    for (const double offered : loads) {
      // One seed for the whole sweep: instances depend only on the job
      // index, so every (mode, load) point decodes the same channel uses —
      // a paired comparison.
      serve::LoadGenerator generator(bpsk8_load(offered, 500.0), 0xB5E0);
      serve::ServiceConfig cfg = base;
      cfg.packing = packing;
      observer.attach(cfg);
      const serve::ServiceReport report =
          serve::DecodeService(cfg).run(generator.open_loop(jobs_per_point));
      audit_sketch(report);
      const Point p = to_point(offered, report);
      print_point(p);
      packing_curves[packing ? 1 : 0].push_back(p);
    }
  }
  const Point* unpacked = sustained(packing_curves[0]);
  const Point* packed = sustained(packing_curves[1]);
  if (unpacked == nullptr || packed == nullptr) {
    std::fprintf(stderr, "no sustained point found for one packing mode\n");
    return 1;
  }
  const double gain = packed->goodput / unpacked->goodput;
  std::printf(
      "\nsustained (miss rate <= 1%%): unpacked %.1f j/ms @ offered %.1f; "
      "packed %.1f j/ms @ offered %.1f\n",
      unpacked->goodput, unpacked->offered, packed->goodput, packed->offered);
  std::printf("wave-packing throughput gain at fixed miss rate: %.2fx %s\n",
              gain, gain >= 2.0 ? "(acceptance: >= 2x, PASS)"
                                : "(acceptance: >= 2x, FAIL)");
  if (gain < 2.0) failed = true;

  // -------------------------------------------------------------------
  // 2. Accept-mode soak: exact vs threshold32 miss-rate parity under the
  //    packed sweep — the evidence behind serve's threshold32 default.
  std::printf("\n=== accept-mode soak: exact vs threshold32 (packed) ===\n");
  sim::print_columns({"offered j/ms", "miss exact", "miss thr32", "goodput exact",
                      "goodput thr32", "BER exact", "BER thr32"});
  double worst_miss_gap = 0.0;
  for (const double offered : loads) {
    std::vector<serve::ServiceReport> reports;
    for (const anneal::AcceptMode mode :
         {anneal::AcceptMode::kExact, anneal::AcceptMode::kThreshold32}) {
      serve::LoadGenerator generator(bpsk8_load(offered, 500.0), 0xB5E0);
      serve::ServiceConfig cfg = base;
      cfg.annealer.accept_mode = mode;
      reports.push_back(
          serve::DecodeService(cfg).run(generator.open_loop(jobs_per_point)));
    }
    worst_miss_gap =
        std::max(worst_miss_gap, std::abs(reports[0].stats.miss_rate() -
                                          reports[1].stats.miss_rate()));
    sim::print_row({sim::fmt_double(offered, 1),
                    sim::fmt_double(reports[0].stats.miss_rate(), 4),
                    sim::fmt_double(reports[1].stats.miss_rate(), 4),
                    sim::fmt_double(reports[0].stats.goodput_jobs_per_ms(), 1),
                    sim::fmt_double(reports[1].stats.goodput_jobs_per_ms(), 1),
                    sim::fmt_ber(reports[0].stats.ber()),
                    sim::fmt_ber(reports[1].stats.ber())});
  }
  std::printf("soak parity: max |miss-rate gap| = %.4f %s\n", worst_miss_gap,
              worst_miss_gap <= 0.02 ? "(acceptance: <= 0.02, PASS)"
                                     : "(acceptance: <= 0.02, FAIL)");
  if (worst_miss_gap > 0.02) failed = true;

  // -------------------------------------------------------------------
  // 3. Full duplex: a 50/50 uplink-detection / downlink-precoding Poisson
  //    mix through ONE scheduler and device pool.  Downlink runs half the
  //    uplink budget (the subframe cannot go to air without its
  //    perturbation), and the gate compares the served VPP bit errors with
  //    the zero-forcing baseline evaluated on the SAME PrecodeInstances —
  //    identical channels, payloads, and receiver noise draws.
  std::printf("\n=== full duplex: uplink detection + downlink VPP precoding "
              "(50/50 mix) ===\n");
  serve::LoadConfig duplex = bpsk8_load(0.0, 500.0);
  duplex.downlink_fraction = 0.5;
  duplex.downlink = downlink_family();
  duplex.downlink_deadline_us = 250.0;
  serve::ServiceConfig duplex_cfg = base;
  // NOT scaled: N_a is the decode-quality knob behind the VPP-vs-ZF gate
  // (cf. bench_vpp) — scaling it down with QUAMAX_SCALE would clip most
  // perturbations to v = 0 and lose to zero-forcing through the mod-tau
  // fold for annealer reasons, not formulation reasons.
  duplex_cfg.num_anneals = 60;
  // VPP QUBOs span a wider logical coefficient range than BPSK detection
  // (the two's-complement sign bit carries weight 2); without the extended
  // J range the chain coupler saturates the scale and the perturbation
  // search stalls near v = 0 (measured: 0.8 dB mean power gain vs 2.5 dB).
  duplex_cfg.annealer.embed.improved_range = true;
  sim::print_columns({"offered j/ms", "miss rate", "ul miss", "dl miss",
                      "dl VPP BER", "dl ZF BER", "occupancy"});
  // The BER gate aggregates across the whole sweep: each load point draws
  // its own channels (per-point seed), and VPP's win over zero-forcing
  // lives in the ill-conditioned channel tail — a single point's handful
  // of downlink jobs may sample only well-conditioned draws, where the
  // mod-tau fold makes VPP a coin toss against ZF.
  std::size_t sweep_vpp_errors = 0, sweep_zf_errors = 0, sweep_dl_bits = 0;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    const double offered = loads[li];
    duplex.offered_load_jobs_per_ms = offered;
    serve::LoadGenerator generator(duplex, 0xD0F1 + li);
    const std::vector<serve::CellJob> jobs =
        generator.open_loop(jobs_per_point);
    // Zero-forcing baseline on the exact served downlink instances.
    std::size_t zf_errors = 0, dl_bits = 0;
    for (const serve::CellJob& job : jobs) {
      if (!job.downlink()) continue;
      zf_errors += vpp::zero_forcing_bit_errors(job.precode());
      dl_bits += job.precode().tx_bits.size();
    }
    const serve::ServiceReport report =
        serve::DecodeService(duplex_cfg).run(jobs);
    const serve::ServiceStats::DirectionStats& dl = report.stats.downlink();
    sweep_vpp_errors += dl.bit_errors;
    sweep_zf_errors += zf_errors;
    sweep_dl_bits += dl_bits;
    const double zf_ber = dl_bits == 0
                              ? 0.0
                              : static_cast<double>(zf_errors) /
                                    static_cast<double>(dl_bits);
    sim::print_row({sim::fmt_double(offered, 1),
                    sim::fmt_double(report.stats.miss_rate(), 4),
                    sim::fmt_double(report.stats.uplink().miss_rate(), 4),
                    sim::fmt_double(dl.miss_rate(), 4), sim::fmt_ber(dl.ber()),
                    sim::fmt_ber(zf_ber),
                    sim::fmt_double(report.stats.mean_wave_occupancy(), 2)});
    if (offered == loads.front() && report.stats.misses() != 0) {
      std::fprintf(stderr,
                   "full duplex: %zu deadline misses at the lightest load\n",
                   report.stats.misses());
      failed = true;
    }
  }
  const double sweep_bits = static_cast<double>(sweep_dl_bits);
  std::printf(
      "full duplex sweep aggregate: served VPP BER %.3e vs zero-forcing "
      "%.3e on the same instances %s\n",
      static_cast<double>(sweep_vpp_errors) / sweep_bits,
      static_cast<double>(sweep_zf_errors) / sweep_bits,
      sweep_vpp_errors <= sweep_zf_errors
          ? "(acceptance: VPP <= ZF, PASS)"
          : "(acceptance: VPP <= ZF, FAIL)");
  if (sweep_vpp_errors > sweep_zf_errors) failed = true;

  // -------------------------------------------------------------------
  // 4. Queue policies x devices on the two-class HARQ mix.  Each subframe
  //    tick carries exactly one wave of tight shape-16 jobs (device 0 is
  //    their only host) plus three waves of loose shape-8 jobs, and the
  //    tick period equals 2 waves per device — critical (rho = 1) load on
  //    two devices.  Under FIFO the loose burst heads seed device 0 while
  //    the 16-incapable device parks on the tight leftovers — head-of-line
  //    blocking that wastes capacity and starves the tight class; EDF
  //    orders by deadline, so device 0 always takes the urgent 16s.
  std::printf("\n=== queue policies x devices (two-class HARQ subframe mix) ===\n");
  const double service_us = serve::DecodeService(base).wave_service_us();
  std::printf(
      "classes per %.0f us tick: 3 waves of 8x8 BPSK (shape 8, budget %.0f "
      "us) + 1 wave of 8x8 QPSK (shape 16, budget %.0f us)\ndevices: 0 "
      "pristine; others dead-row defective (shape 16 does not embed)\n\n",
      2.0 * service_us, 40.0 * service_us, 1.6 * service_us);
  const std::size_t wave_jobs = 8;
  const std::size_t ticks = sim::scaled(30);
  const std::vector<serve::CellJob> mix =
      mixed_workload(2.0 * service_us, service_us, 3 * wave_jobs, wave_jobs,
                     ticks, 1.6 * service_us);
  const double offered =
      static_cast<double>(4 * wave_jobs) / (2.0 * service_us) * 1000.0;
  sim::print_columns({"devices", "policy", "p99 total us", "miss rate",
                      "tight miss", "occupancy"});
  Point fifo2, edf2;
  for (const std::size_t dev_count : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const sched::QueuePolicy policy : policies) {
      serve::ServiceConfig cfg = base;
      cfg.device_specs = sharded_pool(dev_count);
      cfg.queue_policy = policy;
      cfg.max_wave_jobs = wave_jobs;  // bounded waves: device throughput saturates
      const serve::ServiceReport report = serve::DecodeService(cfg).run(mix);
      std::size_t tight_jobs = 0, tight_misses = 0;
      for (const serve::JobRecord& rec : report.jobs) {
        if (rec.user < 3 * wave_jobs) continue;  // tight class: offset users
        ++tight_jobs;
        if (rec.missed_deadline()) ++tight_misses;
      }
      const Point p = to_point(offered, report);
      sim::print_row(
          {std::to_string(dev_count), sched::to_string(policy),
           sim::fmt_us(p.p99_us), sim::fmt_double(p.miss_rate, 4),
           sim::fmt_double(tight_jobs == 0
                               ? 0.0
                               : static_cast<double>(tight_misses) /
                                     static_cast<double>(tight_jobs),
                           4),
           sim::fmt_double(p.occupancy, 2)});
      if (dev_count == 2 && policy == sched::QueuePolicy::kFifo) fifo2 = p;
      if (dev_count == 2 && policy == sched::QueuePolicy::kEdf) edf2 = p;
    }
  }
  const bool edf_wins =
      edf2.p99_us < fifo2.p99_us && edf2.miss_rate < fifo2.miss_rate;
  std::printf(
      "\nEDF vs FIFO at saturation on 2 devices: p99 %.1f vs %.1f us, miss "
      "%.4f vs %.4f %s\n",
      edf2.p99_us, fifo2.p99_us, edf2.miss_rate, fifo2.miss_rate,
      edf_wins ? "(acceptance: EDF strictly better on both, PASS)"
               : "(acceptance: EDF strictly better on both, FAIL)");
  if (!edf_wins) failed = true;

  // -------------------------------------------------------------------
  // 5. Streaming-sketch accuracy over every audited report above.
  std::printf("\n");
  if (sketch_gate() != 0) failed = true;
  if (observer.finish() != 0) failed = true;

  return failed ? 1 : 0;
}
