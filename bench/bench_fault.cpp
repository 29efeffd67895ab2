// Fault-storm serving: retry/fallback mitigation under device outages
// (ISSUE 9 tentpole gate; robustness follow-on to the paper's §7 C-RAN
// deployment story).
//
// A centralized RAN cannot assume its annealing processors stay up: chips
// drop for recalibration, couplers die mid-run, anneal/readout cycles fail.
// quamax::fault injects exactly those events on the virtual clock
// (fault::FaultPlan), and the scheduler answers with a per-job retry budget
// and a classical ZF/MMSE fallback ladder (ServiceConfig::{max_retries,
// fallback}).  The serving claim under test: under a 25%-downtime outage
// storm, retries + fallback hold the deadline-miss rate under a fixed bound
// and STRICTLY beat the retry-only (no-fallback) ablation, while the
// zero-fault configuration stays byte-identical to the fault-free service.
//
// Experiments (virtual clock + counter-derived streams — BIT-IDENTICAL at
// any --threads/--replicas per --devices setting):
//
//   1. OUTAGE STORM: one workload served four ways — fault-free baseline,
//      storm with no mitigation, storm with retries only (the ablation),
//      and storm with retries + classical fallback.  Gates (exit code):
//      the mitigated miss rate is <= the fixed bound, strictly below the
//      no-fallback ablation, and NOTHING terminally fails with the ladder
//      armed (the degraded-mode guarantee).
//
// `bench_fault smoke` prints the fault-free digest, re-runs the same
// workload with an EMPTY fault plan and fails unless the digests are
// byte-identical (the PR-8 bit-compat gate), then prints the digest of a
// deterministic storm run — CI diffs the full stdout across
// --threads/--replicas per --devices setting.
//
// `--json FILE` writes a google-benchmark-shaped record of every arm
// (miss rates, fallback split, availability) that tools/bench_to_json.py
// converts into the BENCH_fault.json artifact format.
//
// Knobs: --fault-plan FILE replaces the synthesized storm with a
// fault::load_fault_plan schedule; --max-retries / --fallback override the
// mitigation arm's ladder.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "quamax/fault/plan.hpp"
#include "quamax/obs/profile.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/observe.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"

namespace {

using namespace quamax;

constexpr double kDowntimeFraction = 0.25;  ///< storm arm: 25% scheduled downtime
constexpr double kMissBound = 0.05;         ///< mitigated miss-rate ceiling
constexpr std::uint64_t kStormSeed = 0xFA11;

serve::LoadConfig bpsk8_load(double jobs_per_ms, double deadline_us) {
  serve::LoadConfig cfg;
  cfg.offered_load_jobs_per_ms = jobs_per_ms;
  cfg.deadline_us = deadline_us;
  cfg.users = 8;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRandomPhase;
  cfg.problem.snr_db = 6.0;
  return cfg;
}

/// One measured arm of the comparison.
struct Point {
  std::string name;
  double wall_s = 0.0;
  std::size_t jobs = 0;
  double miss_rate = 0.0;
  double ber = 0.0;
  double fallback_ber = 0.0;
  std::size_t retries = 0;
  std::size_t fallbacks = 0;
  std::size_t failed = 0;
  std::size_t failed_waves = 0;
  double achieved_jobs_per_ms = 0.0;
  double availability = 1.0;
};

/// Serves one arm; a non-null `observer` traces it.
Point run_arm(const std::string& name, const serve::LoadConfig& load,
              serve::ServiceConfig service, std::size_t num_jobs,
              double availability, serve::RunObserver* observer = nullptr) {
  if (observer != nullptr) observer->attach(service);
  const auto t0 = std::chrono::steady_clock::now();
  serve::LoadGenerator generator(load, 0xFA57);
  const serve::ServiceReport report =
      serve::DecodeService(service).run(generator.open_loop(num_jobs));
  Point p;
  p.name = name;
  p.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  p.jobs = report.stats.jobs();
  p.miss_rate = report.stats.miss_rate();
  p.ber = report.stats.ber();
  p.fallback_ber = report.stats.fallback_ber();
  p.retries = report.stats.retries();
  p.fallbacks = report.stats.fallbacks();
  p.failed = report.stats.failed();
  p.failed_waves = report.stats.failed_waves();
  p.achieved_jobs_per_ms = report.stats.achieved_jobs_per_ms();
  p.availability = availability;
  return p;
}

void print_point(const Point& p) {
  sim::print_row({p.name, sim::fmt_double(p.miss_rate, 4), sim::fmt_ber(p.ber),
                  std::to_string(p.retries), std::to_string(p.fallbacks),
                  std::to_string(p.failed), std::to_string(p.failed_waves),
                  sim::fmt_double(p.achieved_jobs_per_ms, 1)});
}

sim::BenchRecord to_record(const Point& p) {
  const double fallback_fraction =
      p.jobs == 0 ? 0.0
                  : static_cast<double>(p.fallbacks) /
                        static_cast<double>(p.jobs);
  return {p.name, p.wall_s, p.jobs,
          {{"quamax_miss_rate", p.miss_rate},
           {"quamax_ber", p.ber},
           {"quamax_fallback_ber", p.fallback_ber},
           {"quamax_fallback_fraction", fallback_fraction},
           {"quamax_retries", static_cast<double>(p.retries)},
           {"quamax_fallbacks", static_cast<double>(p.fallbacks)},
           {"quamax_failed", static_cast<double>(p.failed)},
           {"quamax_failed_waves", static_cast<double>(p.failed_waves)},
           {"quamax_availability", p.availability},
           {"quamax_achieved_jobs_per_ms", p.achieved_jobs_per_ms}}};
}

/// Pseudo-benchmark carrying the per-stage profile as quamax_prof_*
/// counters — bench_to_json.py forwards any quamax_-prefixed key, so the
/// profile lands in the BENCH_fault.json artifact with no tool change.
sim::BenchRecord prof_record() {
  sim::BenchRecord record;
  record.name = "prof";
  for (const auto& r : obs::Profiler::instance().table()) {
    const std::string prefix = obs::Profiler::counter_prefix(r.name);
    record.counters.emplace_back(prefix + "_calls",
                                 static_cast<double>(r.calls));
    record.counters.emplace_back(prefix + "_total_ns",
                                 static_cast<double>(r.total_ns));
  }
  return record;
}

/// Scheduled availability of the whole pool over the workload horizon.
double pool_availability(const fault::FaultPlan& plan, std::size_t devices,
                         double horizon_us) {
  double down = 0.0;
  for (std::size_t d = 0; d < devices; ++d)
    down += fault::scheduled_downtime_us(plan, d, horizon_us);
  return 1.0 - down / (static_cast<double>(devices) * horizon_us);
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
  const auto plan_path = sim::knob<std::string>(Knob::kFaultPlan, argc, argv);
  const auto retries_knob = sim::knob<std::size_t>(Knob::kMaxRetries, argc, argv);
  const fault::FallbackMode fallback_knob = fault::parse_fallback_mode(
      sim::knob<std::string>(Knob::kFallback, argc, argv));
  const auto json_path = sim::knob<std::string>(Knob::kJson, argc, argv);

  bool smoke = false;
  for (const std::string& arg : sim::positional_args(argc, argv))
    if (arg == "smoke") smoke = true;
  // Full mode always windows its showcase arms: a default miss-rate SLO at
  // the acceptance bound arms the monitor even when --slo is not given.
  serve::RunObserver observer(
      argc, argv, smoke ? "" : "miss_rate<=" + sim::fmt_double(kMissBound, 2));

  base.annealer.schedule.anneal_time_us = 1.0;
  base.annealer.schedule.pause_time_us = 0.0;
  base.num_anneals = 16;
  base.num_devices = devices;
  base.program_overhead_us = 10.0;
  const double service_us = serve::DecodeService(base).wave_service_us();

  // Workload: open-loop Poisson at a light per-pool rate with an 8x-service
  // deadline, so the FAULT-FREE run meets essentially every deadline and
  // every miss under the storm is attributable to the injected outages.
  const double rate_jobs_per_ms = 40.0 * static_cast<double>(devices);
  const double deadline_us = 8.0 * service_us;
  const std::size_t num_jobs = std::max<std::size_t>(
      64, sim::scaled(240) * std::max<std::size_t>(1, devices));
  const double horizon_us =
      1.2 * static_cast<double>(num_jobs) / rate_jobs_per_ms * 1000.0;
  const serve::LoadConfig load = bpsk8_load(rate_jobs_per_ms, deadline_us);

  // The storm: exponential up/down cycles at 25% scheduled downtime, mean
  // outage 6x the wave service time (long enough that a queued job can burn
  // its whole deadline inside one outage).  The windows are CORRELATED
  // across the pool — every device drops together, the C-RAN worst case
  // (independent per-device outages are simply absorbed by shape-aware
  // routing at this utilization, which would make the mitigation gates
  // vacuous).  --fault-plan swaps in an operator-authored schedule instead.
  auto storm = std::make_shared<fault::FaultPlan>(
      plan_path.empty() ? fault::storm_plan(1, horizon_us, kDowntimeFraction,
                                            6.0 * service_us, kStormSeed)
                        : fault::load_fault_plan(plan_path));
  if (plan_path.empty()) {
    const std::vector<fault::OutageWindow> shared = storm->outages;
    for (std::size_t d = 1; d < devices; ++d)
      for (const fault::OutageWindow& w : shared)
        storm->outages.push_back({d, w.start_us, w.end_us});
  }
  storm->validate(devices);
  const double availability = pool_availability(*storm, devices, horizon_us);

  const std::size_t max_retries = retries_knob > 0 ? retries_knob : 3;
  const fault::FallbackMode fallback =
      fallback_knob != fault::FallbackMode::kNone ? fallback_knob
                                                  : fault::FallbackMode::kZf;

  // -------------------------------------------------------------------
  // Smoke: byte-compat + storm-digest determinism.  CI diffs this stdout
  // across --threads/--replicas per --devices setting.
  if (smoke) {
    const std::size_t smoke_jobs = std::max<std::size_t>(32, sim::scaled(96));
    serve::LoadGenerator gen_a(load, 0xFA57);
    const serve::ServiceReport fault_free =
        serve::DecodeService(base).run(gen_a.open_loop(smoke_jobs));
    std::printf("ServiceStats digest (fault-free, devices %zu):\n%s",
                devices, fault_free.stats.digest().c_str());

    // PR-8 bit-compat: an empty fault plan (and inert retry knobs) must not
    // move a single byte of the digest.
    serve::ServiceConfig empty_plan = base;
    empty_plan.fault = std::make_shared<fault::FaultPlan>();
    empty_plan.max_retries = max_retries;
    empty_plan.retry_backoff_us = 0.5 * service_us;
    serve::LoadGenerator gen_b(load, 0xFA57);
    const serve::ServiceReport zero_fault =
        serve::DecodeService(empty_plan).run(gen_b.open_loop(smoke_jobs));
    if (zero_fault.stats.digest() != fault_free.stats.digest()) {
      std::fprintf(stderr, "SMOKE FAILURE: empty fault plan moved the "
                           "digest off the fault-free service\n");
      return 1;
    }
    std::printf("zero-fault byte-compat: OK\n\n");

    serve::ServiceConfig storm_cfg = base;
    storm_cfg.fault = storm;
    storm_cfg.max_retries = max_retries;
    storm_cfg.retry_backoff_us = 0.5 * service_us;
    storm_cfg.fallback = fallback;
    observer.attach(storm_cfg);
    serve::LoadGenerator gen_c(load, 0xFA57);
    const serve::ServiceReport stormed =
        serve::DecodeService(storm_cfg).run(gen_c.open_loop(smoke_jobs));
    std::printf("ServiceStats digest (storm, %.0f%% downtime, retries %zu, "
                "fallback %s):\n%s",
                100.0 * kDowntimeFraction, max_retries,
                fault::to_string(fallback), stormed.stats.digest().c_str());
    const int exit_code = observer.finish();
    if (stormed.stats.jobs() != smoke_jobs || stormed.stats.failed() != 0) {
      std::fprintf(stderr, "SMOKE FAILURE: %zu/%zu jobs accounted, %zu "
                           "terminal failures with the ladder armed\n",
                   stormed.stats.jobs(), smoke_jobs, stormed.stats.failed());
      return 1;
    }
    std::printf("\nsmoke OK: all %zu jobs accounted, zero terminal failures\n",
                smoke_jobs);
    return exit_code;
  }

  sim::print_banner(
      "Fault-storm serving: retry/fallback mitigation under outages",
      "fault + sched + serve (ISSUE 9): deterministic outage storm, per-job "
      "retry budget, classical fallback ladder",
      "downtime = " + sim::fmt_double(100.0 * kDowntimeFraction, 0) +
          "%, scheduled availability = " + sim::fmt_double(availability, 3) +
          ", retries = " + std::to_string(max_retries) + ", fallback = " +
          fault::to_string(fallback) + ", devices = " +
          std::to_string(devices));

  std::printf("\n=== outage storm (%zu jobs, deadline %.0f us, mean outage "
              "%.0f us) ===\n",
              num_jobs, deadline_us, 6.0 * service_us);
  sim::print_columns({"arm", "miss rate", "BER", "retries", "fallbacks",
                      "failed", "failed waves", "achieved j/ms"});

  // The fault-free and fully-mitigated arms are observed so the windowed
  // showcase below can compare their series: end-of-run aggregates hide the
  // storm dip that the per-window miss-rate makes obvious.  The mitigated
  // arm runs last, so its view is the one finish() exports.
  const Point fault_free =
      run_arm("fault_free", load, base, num_jobs, 1.0, &observer);
  std::size_t quiet_alerts = 0;
  for (const auto& report : observer.view().slos)
    quiet_alerts += report.alerts.size();

  serve::ServiceConfig no_mitigation = base;
  no_mitigation.fault = storm;
  const Point unmitigated =
      run_arm("storm_no_mitigation", load, no_mitigation, num_jobs,
              availability);

  serve::ServiceConfig retries_only = no_mitigation;
  retries_only.max_retries = max_retries;
  retries_only.retry_backoff_us = 0.5 * service_us;
  const Point ablation =
      run_arm("storm_retries_only", load, retries_only, num_jobs,
              availability);

  serve::ServiceConfig mitigated = retries_only;
  mitigated.fallback = fallback;
  const Point full =
      run_arm("storm_retries_fallback", load, mitigated, num_jobs,
              availability, &observer);

  print_point(fault_free);
  print_point(unmitigated);
  print_point(ablation);
  print_point(full);

  bool failed = false;
  std::printf("\nfault-free sanity: miss rate %.4f %s\n", fault_free.miss_rate,
              fault_free.miss_rate <= 0.01
                  ? "(acceptance: <= 0.01, PASS)"
                  : "(acceptance: <= 0.01, FAIL)");
  if (fault_free.miss_rate > 0.01) failed = true;

  std::printf("mitigated miss rate: %.4f (acceptance: <= %.2f, %s)\n",
              full.miss_rate, kMissBound,
              full.miss_rate <= kMissBound ? "PASS" : "FAIL");
  if (full.miss_rate > kMissBound) failed = true;

  std::printf("vs no-fallback ablation: %.4f < %.4f %s\n", full.miss_rate,
              ablation.miss_rate,
              full.miss_rate < ablation.miss_rate
                  ? "(acceptance: strictly beats ablation, PASS)"
                  : "(acceptance: strictly beats ablation, FAIL)");
  if (full.miss_rate >= ablation.miss_rate) failed = true;

  std::printf("degraded-mode guarantee: %zu terminal failures with the "
              "ladder armed %s\n",
              full.failed,
              full.failed == 0 ? "(acceptance: == 0, PASS)"
                               : "(acceptance: == 0, FAIL)");
  if (full.failed != 0) failed = true;

  std::printf("fallback split: %zu/%zu jobs served classically (BER %.3e vs "
              "annealed %.3e)\n",
              full.fallbacks, full.jobs, full.fallback_ber, full.ber);

  // -------------------------------------------------------------------
  // Windowed showcase (obs v2): the per-window miss-rate series of the
  // mitigated arm must SHOW the storm — at least one burn-rate alert fires
  // in a window overlapping a scheduled outage — while the fault-free arm
  // stays silent under the same SLO.
  const serve::WindowedView& storm_view = observer.view();

  std::printf("\n=== windowed series, %s (window %.0f us) ===\n",
              full.name.c_str(), storm_view.collector.width_us());
  sim::print_columns({"window", "t [ms]", "miss rate", "fallbacks", "queue",
                      "occupancy", "p99 [us]"});
  for (const auto& w : storm_view.collector.windows()) {
    sim::print_row({std::to_string(w.index),
                    sim::fmt_double(w.start_us / 1000.0, 1),
                    sim::fmt_double(w.miss_rate, 3),
                    std::to_string(w.fallbacks),
                    std::to_string(w.queue_depth),
                    sim::fmt_double(w.occupancy, 2),
                    sim::fmt_double(w.latency.quantile(99.0), 0)});
  }

  std::size_t storm_alerts = 0;
  std::size_t outage_alerts = 0;
  for (const auto& report : storm_view.slos) {
    for (const auto& alert : report.alerts) {
      ++storm_alerts;
      for (const auto& outage : storm->outages) {
        if (alert.start_us < outage.end_us && outage.start_us < alert.end_us) {
          ++outage_alerts;
          break;
        }
      }
      std::printf("ALERT %s window %zu [%.0f, %.0f) us: value %.4f "
                  "(long %.4f), burn %.2fx\n",
                  alert.slo.c_str(), alert.window, alert.start_us,
                  alert.end_us, alert.value, alert.long_value, alert.burn);
    }
  }

  std::printf("storm-dip visibility: %zu alerts, %zu during scheduled "
              "outages %s\n",
              storm_alerts, outage_alerts,
              outage_alerts >= 1 ? "(acceptance: >= 1, PASS)"
                                 : "(acceptance: >= 1, FAIL)");
  if (outage_alerts < 1) failed = true;

  std::printf("fault-free arm under the same SLO: %zu alerts %s\n",
              quiet_alerts,
              quiet_alerts == 0 ? "(acceptance: == 0, PASS)"
                                : "(acceptance: == 0, FAIL)");
  if (quiet_alerts != 0) failed = true;

  if (!json_path.empty()) {
    std::vector<sim::BenchRecord> records{
        to_record(fault_free), to_record(unmitigated), to_record(ablation),
        to_record(full)};
    if (observer.profiling()) records.push_back(prof_record());
    sim::write_bench_json(
        json_path, "bench_fault",
        {{"threads", static_cast<double>(base.num_threads)},
         {"replicas", static_cast<double>(base.annealer.batch_replicas)},
         {"devices", static_cast<double>(devices)},
         {"downtime_fraction", kDowntimeFraction}},
        records);
  }
  if (observer.finish() != 0) failed = true;

  return failed ? 1 : 0;
}
