// Warm-start incremental annealing across coherent subframes (ISSUE 7
// tentpole gate; paper §8 reverse-annealing outlook on the serve layer).
//
// Real channels are coherent subframe-to-subframe: within a coherence
// block the channel and the HARQ payload repeat and only the noise is
// fresh, so the previous subframe's decode is a near-ground warm start and
// the cached Ising couplings need only their fields rebuilt (each
// serve::LoadGenerator chain keeps its block's reduction).  The serving
// claim under test: threading those seeds into REVERSE anneals lets warm
// waves run a fraction of the cold anneal quota at matched BER, which on
// the virtual clock is an effective-throughput win for the whole device
// pool.
//
// Experiments (every number from the virtual clock + counter-derived
// decode streams — BIT-IDENTICAL at any --threads/--replicas per
// --devices/--coherence setting):
//
//   1. MATCHED-BER QUOTA CUT: one paired coherent workload served three
//      ways — cold at the full quota, warm-start at a 4x smaller warm
//      quota, and the ablation arm cold at the warm quota (same cut, no
//      seeds).  Gates (exit code): warm BER within tolerance of the
//      full-quota cold BER, and the aggregate anneal-quota cut
//      (total_anneals cold / warm) >= 1.3x.  The ablation shows what the
//      cut costs WITHOUT the seeds.
//
//   2. SATURATION THROUGHPUT: the same workload family released faster
//      than the cold service rate; achieved jobs/ms warm vs cold must
//      show the quota cut as >= 1.3x sustained throughput (exit code).
//
// `bench_warmstart smoke` serves one trivial coherent workload with
// warm-start on and prints the ServiceStats digest plus the load
// generator's full/delta compile counters (the "planner compiles" line) — CI diffs the output across --threads/--replicas per
// --devices setting and fails the run on any deadline miss.
//
// `--json FILE` writes a google-benchmark-shaped record of every arm
// (BER, miss rate, anneal quota, throughput ratios) that
// tools/bench_to_json.py converts into the committed BENCH_warmstart.json
// artifact format.  --trace / --metrics / --slo observe every served run in
// either mode; the files hold the last one (the smoke run, or the warm
// saturation arm).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/observe.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"

namespace {

using namespace quamax;

constexpr std::size_t kColdAnneals = 16;
constexpr std::size_t kWarmAnneals = 4;

serve::LoadConfig coherent_load(double coherence, double period_us,
                                std::size_t users) {
  serve::LoadConfig cfg;
  cfg.arrivals = serve::ArrivalKind::kSubframe;
  cfg.subframe_period_us = period_us;
  cfg.users = users;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRayleigh;
  cfg.problem.snr_db = 6.0;
  cfg.coherence = coherence;
  return cfg;
}

/// One measured arm of the comparison.
struct Point {
  std::string name;
  double wall_s = 0.0;
  std::size_t jobs = 0;
  double ber = 0.0;
  double miss_rate = 0.0;
  std::size_t total_anneals = 0;
  double achieved_jobs_per_ms = 0.0;
  std::size_t warm_waves = 0;
};

/// Serves one arm; `observer` traces it when --trace / --metrics / --slo ask.
Point run_arm(const std::string& name, const serve::LoadConfig& load,
              serve::ServiceConfig service, std::size_t num_jobs,
              serve::RunObserver& observer) {
  observer.attach(service);
  const auto t0 = std::chrono::steady_clock::now();
  serve::LoadGenerator generator(load, 0x3A97);
  const serve::ServiceReport report =
      serve::DecodeService(service).run(generator.open_loop(num_jobs));
  Point p;
  p.name = name;
  p.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  p.jobs = report.stats.jobs();
  p.ber = report.stats.ber();
  p.miss_rate = report.stats.miss_rate();
  p.total_anneals = report.stats.total_anneals();
  p.achieved_jobs_per_ms = report.stats.achieved_jobs_per_ms();
  p.warm_waves = report.stats.warm_waves();
  return p;
}

void print_point(const Point& p) {
  sim::print_row({p.name, sim::fmt_ber(p.ber), sim::fmt_double(p.miss_rate, 4),
                  std::to_string(p.total_anneals), std::to_string(p.warm_waves),
                  sim::fmt_double(p.achieved_jobs_per_ms, 1)});
}

sim::BenchRecord to_record(const Point& p) {
  return {p.name, p.wall_s, p.jobs,
          {{"quamax_ber", p.ber},
           {"quamax_miss_rate", p.miss_rate},
           {"quamax_total_anneals", static_cast<double>(p.total_anneals)},
           {"quamax_warm_waves", static_cast<double>(p.warm_waves)},
           {"quamax_achieved_jobs_per_ms", p.achieved_jobs_per_ms}}};
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
  const auto coherence_knob = sim::knob<double>(Knob::kCoherence, argc, argv);
  // Default subframe coherence: rho = 0.9 => 10-subframe blocks.
  const double coherence = coherence_knob > 0.0 ? coherence_knob : 0.9;
  const auto json_path = sim::knob<std::string>(Knob::kJson, argc, argv);
  // The files written at exit hold the LAST observed run.
  serve::RunObserver observer(argc, argv);

  bool smoke = false;
  for (const std::string& arg : sim::positional_args(argc, argv))
    if (arg == "smoke") smoke = true;

  base.annealer.schedule.anneal_time_us = 1.0;
  base.annealer.schedule.pause_time_us = 0.0;
  base.num_anneals = kColdAnneals;
  base.num_devices = devices;
  base.program_overhead_us = 10.0;

  serve::ServiceConfig warm_cfg = base;
  warm_cfg.warm_start = true;
  warm_cfg.warm_num_anneals = kWarmAnneals;

  const double cold_service_us = serve::DecodeService(base).wave_service_us();

  // -------------------------------------------------------------------
  // Smoke: one trivial coherent workload with warm-start on.  Zero misses
  // required; the digest + compile counters are diffed by CI across
  // --threads/--replicas per --devices setting.
  if (smoke) {
    const std::size_t users = 8;
    const std::size_t num_jobs =
        users * std::max<std::size_t>(4, sim::scaled(24));
    serve::LoadGenerator generator(
        coherent_load(coherence, 10.0 * cold_service_us, users), 0x3A97);
    observer.attach(warm_cfg);
    const serve::ServiceReport report =
        serve::DecodeService(warm_cfg).run(generator.open_loop(num_jobs));
    std::printf("ServiceStats digest (warm-start smoke, devices %zu, "
                "coherence %.2f):\n%s",
                devices, coherence, report.stats.digest().c_str());
    std::printf("planner compiles: full=%zu delta=%zu (block length %zu)\n",
                generator.compile_stats().full_compiles,
                generator.compile_stats().delta_compiles,
                generator.coherence_block());
    const int exit_code = observer.finish();
    if (report.stats.warm_waves() == 0) {
      std::fprintf(stderr, "SMOKE FAILURE: no warm waves on a coherent load\n");
      return 1;
    }
    if (report.stats.misses() != 0) {
      std::fprintf(stderr, "SMOKE FAILURE: %zu deadline misses at trivial load\n",
                   report.stats.misses());
      return 1;
    }
    std::printf("\nsmoke OK: zero deadline misses, %zu warm waves\n",
                report.stats.warm_waves());
    return exit_code;
  }

  const std::size_t users = 4;
  const std::size_t quality_jobs = users * std::max<std::size_t>(8, sim::scaled(40));
  const std::size_t saturation_jobs =
      users * std::max<std::size_t>(8, sim::scaled(60));

  sim::print_banner(
      "Warm-start incremental annealing across coherent subframes",
      "serve + sched + anneal (ISSUE 7): reverse anneals from predecessor "
      "seeds at a cut quota",
      "coherence = " + sim::fmt_double(coherence, 2) +
          ", quota " + std::to_string(kColdAnneals) + " cold / " +
          std::to_string(kWarmAnneals) + " warm, devices = " +
          std::to_string(devices));

  bool failed = false;
  std::vector<Point> points;

  // -------------------------------------------------------------------
  // 1. Matched-BER quota cut on a light paired workload (every arm decodes
  //    the same channel uses and payloads).
  std::printf("\n=== matched-BER quota cut (light load, %zu jobs) ===\n",
              quality_jobs);
  sim::print_columns({"arm", "BER", "miss rate", "anneal quota", "warm waves",
                      "achieved j/ms"});
  const serve::LoadConfig light =
      coherent_load(coherence, 8.0 * cold_service_us, users);
  const Point cold_full = run_arm("cold@" + std::to_string(kColdAnneals), light,
                                  base, quality_jobs, observer);
  const Point warm = run_arm("warm@" + std::to_string(kWarmAnneals), light,
                             warm_cfg, quality_jobs, observer);
  serve::ServiceConfig ablation_cfg = base;
  ablation_cfg.num_anneals = kWarmAnneals;
  const Point ablation = run_arm("cold@" + std::to_string(kWarmAnneals), light,
                                 ablation_cfg, quality_jobs, observer);
  print_point(cold_full);
  print_point(warm);
  print_point(ablation);
  points.push_back(cold_full);
  points.push_back(warm);
  points.push_back(ablation);

  const double ber_tolerance = 0.01;
  std::printf("\nmatched BER: warm %.3e vs cold %.3e %s\n", warm.ber,
              cold_full.ber,
              warm.ber <= cold_full.ber + ber_tolerance
                  ? "(acceptance: warm <= cold + 0.01, PASS)"
                  : "(acceptance: warm <= cold + 0.01, FAIL)");
  if (warm.ber > cold_full.ber + ber_tolerance) failed = true;

  const double quota_cut = static_cast<double>(cold_full.total_anneals) /
                           static_cast<double>(warm.total_anneals);
  std::printf("anneal-quota cut at matched BER: %.2fx %s\n", quota_cut,
              quota_cut >= 1.3 ? "(acceptance: >= 1.3x, PASS)"
                               : "(acceptance: >= 1.3x, FAIL)");
  if (quota_cut < 1.3) failed = true;
  std::printf("ablation (same cut, no seeds): BER %.3e — the quota cut "
              "alone %s the cold baseline\n",
              ablation.ber,
              ablation.ber > cold_full.ber + ber_tolerance ? "LOSES to"
                                                           : "matches");

  // -------------------------------------------------------------------
  // 2. Saturation throughput: subframes released faster than the cold
  //    service rate, deadlines loose enough that the backlog (not the
  //    deadline police) bounds throughput.  max_wave_jobs pins one
  //    subframe per wave so the backlog cannot merge a job with its own
  //    predecessor (which would force the pair cold).
  std::printf("\n=== saturation throughput (%zu jobs, period %.0f us) ===\n",
              saturation_jobs, 0.6 * cold_service_us);
  sim::print_columns({"arm", "BER", "miss rate", "anneal quota", "warm waves",
                      "achieved j/ms"});
  serve::LoadConfig saturating =
      coherent_load(coherence, 0.6 * cold_service_us, users);
  saturating.deadline_us = 400.0 * cold_service_us;
  serve::ServiceConfig sat_cold = base;
  sat_cold.max_wave_jobs = users;
  serve::ServiceConfig sat_warm = warm_cfg;
  sat_warm.max_wave_jobs = users;
  const Point thr_cold =
      run_arm("sat_cold", saturating, sat_cold, saturation_jobs, observer);
  const Point thr_warm =
      run_arm("sat_warm", saturating, sat_warm, saturation_jobs, observer);
  print_point(thr_cold);
  print_point(thr_warm);
  points.push_back(thr_cold);
  points.push_back(thr_warm);

  const double throughput_gain =
      thr_warm.achieved_jobs_per_ms / thr_cold.achieved_jobs_per_ms;
  std::printf("\neffective throughput gain on the coherent workload: %.2fx %s\n",
              throughput_gain,
              throughput_gain >= 1.3 ? "(acceptance: >= 1.3x, PASS)"
                                     : "(acceptance: >= 1.3x, FAIL)");
  if (throughput_gain < 1.3) failed = true;
  std::printf("warm BER under saturation: %.3e vs cold %.3e (same tolerance "
              "%s)\n",
              thr_warm.ber, thr_cold.ber,
              thr_warm.ber <= thr_cold.ber + ber_tolerance ? "PASS" : "FAIL");
  if (thr_warm.ber > thr_cold.ber + ber_tolerance) failed = true;

  if (!json_path.empty()) {
    std::vector<sim::BenchRecord> records;
    for (const Point& p : points) records.push_back(to_record(p));
    sim::write_bench_json(
        json_path, "bench_warmstart",
        {{"threads", static_cast<double>(base.num_threads)},
         {"replicas", static_cast<double>(base.annealer.batch_replicas)},
         {"coherence", coherence}},
        records);
  }
  if (observer.finish() != 0) failed = true;

  return failed ? 1 : 0;
}
