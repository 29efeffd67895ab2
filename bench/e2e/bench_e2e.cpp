// bench_e2e — wall-clock benchmark of the serving path, one workload per
// process.
//
// Every timed rep runs the real path a C-RAN front end would call,
// serve::LoadGenerator::open_loop -> serve::DecodeService::run (reduction,
// embed, batched sweep, unembed, decode, scheduler, stats), and the whole
// rep is timed from outside.  The service runs on one lane (the driver
// thread): on a few shared cores, extra lanes time the neighbours' load as
// much as the program.  Phases:
//
//   1. Timed reps with the profiler off: --reps N, or as many as fit in
//      --seconds S (at least three).  Each rep regenerates the workload from
//      the same seed and serves it.  Before the first rep, and then spread
//      evenly over the run, --setups K set-ups (median reported) each build a
//      fresh DecodeService and serve a 64-job warm-up drawn from a fixed seed
//      disjoint from the measured ones, which fills the placement caches and
//      lane scratch; the reps that follow use that service.  Spreading the
//      set-ups lets a slow spell on the host touch only some of them.
//   2. With --trace 1, one traced rep.  It drives sched::Scheduler directly
//      on the service's device pool, mirroring DecodeService::run step by
//      step, so load generation, the submit loop, finish() and the stats
//      fold are separate spans; the obs::Profiler scopes are read for the
//      kernel layers.  The reductions and the classical fallback are then
//      replayed on the same jobs to time those layers.
//
// Correctness (exit code 1 on any failure): every rep's ServiceStats digest
// and timeline hash are identical and equal the traced rep's; every job is
// accounted for exactly once and none failed terminally; the served BER
// stays under the workload's ceiling; replayed reductions and fallback
// decodes reproduce the served ones; the traced spans cover >= 99% of the
// traced rep's wall time.  run.py compares the timeline hash against the
// committed expected.json.
//
// Usage:
//   bench_e2e --workload NAME [--seed N] [--reps N | --seconds S]
//             [--trace 0|1] [--setups K] [--json PATH]
// Exit 2: usage error, or a build without NDEBUG (timings of an unoptimized
// build say nothing about the serving path).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "quamax/core/reduction.hpp"
#include "quamax/fault/fallback.hpp"
#include "quamax/obs/profile.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/vpp/precode.hpp"
#include "workloads.hpp"

namespace {

using namespace quamax;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kLanes = 1;
constexpr std::size_t kWarmupJobs = 64;
/// The warm-up's jobs come from one fixed seed, so set-up does the same work
/// whatever seed is measured; measured seeds are small numbers, never this.
constexpr std::uint64_t kWarmupSeed = ~std::uint64_t{0};
constexpr std::size_t kMinTimedReps = 3;
constexpr double kMinSpanCoverage = 0.99;
/// Reps are summarised by this quantile of their wall and CPU times: a rep
/// that a neighbour on the host slowed down lands above it.
constexpr double kRepQuantile = 0.1;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU of the whole process (every lane), seconds.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Quantile q of `values`, interpolating linearly between order statistics.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::size_t reps = 0;  ///< 0 = run for `seconds`
  double seconds = 10.0;
  bool trace = false;
  std::size_t setups = 7;
  std::string json_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Failed correctness checks, in the order they were found.
class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// FNV-1a over each job's virtual-clock outcome, doubles printed %.17g.  The
/// timeline is a pure function of (config, workload), independent of decode
/// randomness, so any pure performance change leaves it unchanged.
std::string timeline_hash(const std::vector<serve::JobRecord>& records) {
  std::uint64_t h = 1469598103934665603ull;
  char line[192];
  for (const serve::JobRecord& r : records) {
    const int n = std::snprintf(line, sizeof(line), "%zu %zu %.17g %.17g %d%d%d %zu\n",
                                r.job_id, r.wave_id, r.dispatch_us, r.completion_us,
                                r.dropped ? 1 : 0, r.fallback ? 1 : 0,
                                r.failed ? 1 : 0, r.retries);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(line[i]);
      h *= 1099511628211ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void check_report(const std::vector<serve::JobRecord>& records,
                  const serve::ServiceStats& stats, const bench::Workload& w,
                  const std::string& where, Checks& checks) {
  checks.require(records.size() == w.jobs && stats.jobs() == w.jobs,
                 where + ": " + std::to_string(records.size()) + " records for " +
                     std::to_string(w.jobs) + " submitted jobs");
  checks.require(stats.failed() == 0,
                 where + ": " + std::to_string(stats.failed()) +
                     " jobs failed terminally");
  std::size_t bad = 0;
  for (const serve::JobRecord& r : records) {
    const int outcomes = (r.dropped ? 1 : 0) + (r.fallback ? 1 : 0) + (r.failed ? 1 : 0);
    const bool timed = r.dispatch_us >= r.arrival_us && r.completion_us >= r.dispatch_us;
    if (outcomes > 1 || !timed) ++bad;
  }
  checks.require(bad == 0, where + ": " + std::to_string(bad) +
                               " records with an impossible outcome or timeline");
  checks.require(stats.ber() <= w.max_ber,
                 where + ": served BER " + std::to_string(stats.ber()) +
                     " above the ceiling " + std::to_string(w.max_ber));
}

/// DecodeService::run's scheduler configuration (service.cpp sched_config),
/// rebuilt from the public ServiceConfig.  A field this misses shows up as a
/// digest mismatch between the traced and the timed reps.
sched::SchedConfig sched_config(const serve::ServiceConfig& s) {
  sched::SchedConfig cfg;
  cfg.annealer = s.annealer;
  cfg.devices = s.device_specs;
  cfg.policy = s.queue_policy;
  cfg.num_anneals = s.num_anneals;
  cfg.program_overhead_us = s.program_overhead_us;
  cfg.packing = s.packing;
  cfg.max_wave_jobs = s.max_wave_jobs;
  cfg.drop_late = s.drop_late;
  cfg.num_threads = s.num_threads;
  cfg.seed = s.seed;
  cfg.warm_start = s.warm_start;
  cfg.warm_reverse_depth = s.warm_reverse_depth;
  cfg.warm_num_anneals = s.warm_num_anneals;
  cfg.fault = s.fault;
  cfg.max_retries = s.max_retries;
  cfg.retry_backoff_us = s.retry_backoff_us;
  cfg.fallback = s.fallback;
  return cfg;
}

std::vector<serve::CellJob> generate(const bench::Workload& w, std::uint64_t seed) {
  serve::LoadGenerator generator(w.load, seed);
  return generator.open_loop(w.jobs);
}

/// DecodeService's open-loop feed serves jobs in stable arrival order.
void sort_by_arrival(std::vector<serve::CellJob>& jobs) {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const serve::CellJob& a, const serve::CellJob& b) {
                     return a.arrival_us < b.arrival_us;
                   });
}

struct TimedRep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string digest;
  std::string hash;
  std::size_t failed = 0;
};

TimedRep timed_rep(serve::DecodeService& service, const bench::Workload& w,
                   std::uint64_t seed, std::size_t index, Checks& checks) {
  TimedRep rep;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  serve::ServiceReport report = service.run(generate(w, seed));
  rep.wall_s = seconds_between(t0, Clock::now());
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.digest = report.stats.digest();
  rep.hash = timeline_hash(report.jobs);
  rep.failed = report.stats.failed();
  check_report(report.jobs, report.stats, w, "rep " + std::to_string(index), checks);
  return rep;
}

/// The traced rep: DecodeService::run unrolled into timed spans.
struct TracedRep {
  std::vector<Span> spans;
  double wall_s = 0.0;
  double finish_cpu_s = 0.0;
  serve::ServiceReport report;
  std::size_t warm_quota = 0;
  anneal::WarmStartStats compile;
  std::vector<obs::Profiler::StageTotals> stages;

  double span_s(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans)
      if (s.name == name) total += s.end_s - s.start_s;
    return total;
  }
  obs::Profiler::StageTotals stage(const std::string& name) const {
    for (const obs::Profiler::StageTotals& s : stages)
      if (s.name == name) return s;
    return {};
  }
};

TracedRep traced_rep(serve::DecodeService& service, const bench::Workload& w,
                     std::uint64_t seed) {
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  profiler.set_enabled(true);

  TracedRep out;
  const Clock::time_point start = Clock::now();
  Clock::time_point mark = start;
  const auto close_span = [&](const char* name) {
    const Clock::time_point now = Clock::now();
    out.spans.push_back({name, seconds_between(start, mark), seconds_between(start, now)});
    mark = now;
  };

  serve::LoadGenerator generator(w.load, seed);
  std::vector<serve::CellJob> jobs = generator.open_loop(w.jobs);
  sort_by_arrival(jobs);
  close_span("serve.load_gen");

  auto scheduler = std::make_unique<sched::Scheduler>(
      sched_config(service.config()), service.device_set());
  close_span("sched.construct");

  // Admission, policy, packing, routing and the fault timeline all run on
  // this thread inside advance_to/submit.
  for (serve::CellJob& job : jobs) {
    scheduler->advance_to(job.arrival_us);
    scheduler->submit(std::move(job));
  }
  close_span("sched.submit");

  const double cpu0 = process_cpu_s();
  scheduler->finish();
  out.finish_cpu_s = process_cpu_s() - cpu0;
  close_span("sched.finish");

  out.report.jobs = scheduler->records();
  out.report.waves = scheduler->waves();
  close_span("serve.report_copy");

  const std::size_t num_anneals = service.config().num_anneals;
  out.warm_quota = scheduler->warm_quota();
  for (const serve::JobRecord& record : out.report.jobs) out.report.stats.add(record);
  for (const serve::Wave& wave : out.report.waves)
    out.report.stats.add_wave(wave.jobs.size(), wave.warm,
                              wave.warm ? out.warm_quota : num_anneals, wave.failed);
  close_span("serve.stats.fold");

  scheduler.reset();
  close_span("sched.teardown");
  out.wall_s = seconds_between(start, mark);

  profiler.set_enabled(false);
  out.stages = profiler.table();
  out.compile = generator.compile_stats();
  return out;
}

/// Replays of layers that have no profiler scope, on a fresh copy of the
/// traced rep's jobs (generation is deterministic).
struct Replays {
  double uplink_reduce_s = 0.0;
  std::size_t uplink_jobs = 0;
  double downlink_reduce_s = 0.0;
  std::size_t downlink_jobs = 0;
  double fallback_s = 0.0;
  std::size_t fallback_jobs = 0;
};

Replays replay_layers(const bench::Workload& w, std::uint64_t seed,
                      const serve::DecodeService& service,
                      const std::vector<serve::JobRecord>& records, Checks& checks) {
  std::vector<serve::CellJob> jobs = generate(w, seed);
  sort_by_arrival(jobs);
  Replays out;
  std::size_t mismatches = 0;

  Clock::time_point t0 = Clock::now();
  for (const serve::CellJob& job : jobs) {
    if (job.downlink()) continue;
    const sim::Instance& inst = job.uplink();
    const core::MlProblem problem =
        inst.use.mod == wireless::Modulation::kQam64
            ? core::reduce_ml_to_ising(inst.use.h, inst.use.y, inst.use.mod)
            : core::reduce_ml_to_ising_closed_form(inst.use.h, inst.use.y, inst.use.mod);
    if (problem.ising.fields() != inst.problem.ising.fields() ||
        problem.ising.offset() != inst.problem.ising.offset())
      ++mismatches;
    ++out.uplink_jobs;
  }
  out.uplink_reduce_s = seconds_between(t0, Clock::now());

  t0 = Clock::now();
  for (const serve::CellJob& job : jobs) {
    if (!job.downlink()) continue;
    const vpp::PrecodeInstance& inst = job.precode();
    const vpp::PrecodeProblem problem = vpp::reduce_vpp_to_ising(
        inst.p, inst.symbols, inst.problem.tau, inst.problem.mag_bits);
    if (problem.ising.fields() != inst.problem.ising.fields() ||
        problem.ising.offset() != inst.problem.ising.offset())
      ++mismatches;
    ++out.downlink_jobs;
  }
  out.downlink_reduce_s = seconds_between(t0, Clock::now());
  checks.require(mismatches == 0, "replay: " + std::to_string(mismatches) +
                                      " reductions differ from the served problems");

  // Records are indexed by submission sequence == stable arrival order.
  mismatches = 0;
  t0 = Clock::now();
  for (std::size_t seq = 0; seq < records.size() && seq < jobs.size(); ++seq) {
    if (!records[seq].fallback) continue;
    const fault::ClassicalDecode decode =
        fault::classical_decode(jobs[seq], service.config().fallback);
    if (decode.bit_errors != records[seq].bit_errors ||
        decode.num_bits != records[seq].num_bits)
      ++mismatches;
    ++out.fallback_jobs;
  }
  out.fallback_s = seconds_between(t0, Clock::now());
  checks.require(mismatches == 0, "replay: " + std::to_string(mismatches) +
                                      " fallback decodes differ from the served ones");
  return out;
}

/// Wave-level counts the report does not aggregate: chip capacity filled,
/// anneal quota lost to aborted waves, and spin updates swept.
struct WaveCounts {
  double fill_ratio = 0.0;
  double wasted_anneal_share = 0.0;
  double spin_updates = 0.0;
};

WaveCounts count_waves(serve::DecodeService& service, const TracedRep& traced) {
  const serve::ServiceConfig& cfg = service.config();
  anneal::Schedule warm = cfg.annealer.schedule;
  warm.reverse = true;
  warm.reverse_depth = cfg.warm_reverse_depth;
  const double cold_sweeps = static_cast<double>(cfg.annealer.schedule.betas().size());
  const double warm_sweeps = static_cast<double>(warm.betas().size());

  double occupied = 0.0, capacity = 0.0, wasted = 0.0, quota_total = 0.0;
  WaveCounts out;
  sched::DeviceSet& devices = *service.device_set();
  for (const serve::Wave& wave : traced.report.waves) {
    const double quota =
        static_cast<double>(wave.warm ? traced.warm_quota : cfg.num_anneals);
    quota_total += quota;
    if (wave.failed) {
      wasted += quota;
      continue;
    }
    occupied += static_cast<double>(wave.jobs.size());
    capacity += static_cast<double>(sched::clamp_wave_jobs(
        devices.capacity(wave.device, wave.shape), cfg.packing, cfg.max_wave_jobs));
    // Waves fill a prefix of the maximal tiling (ChimeraAnnealer::sample_batch).
    const auto slots = devices.cache(wave.device)->parallel(wave.shape);
    double qubits = 0.0;
    for (std::size_t s = 0; s < wave.jobs.size() && s < slots->size(); ++s)
      qubits += static_cast<double>((*slots)[s].num_physical());
    out.spin_updates += quota * (wave.warm ? warm_sweeps : cold_sweeps) * qubits;
  }
  out.fill_ratio = ratio(occupied, capacity);
  out.wasted_anneal_share = ratio(wasted, quota_total);
  return out;
}

std::vector<Metric> layer_metrics(serve::DecodeService& service,
                                  const bench::Workload& w, const TracedRep& t,
                                  const Replays& r, double untraced_jobs_per_s) {
  const double n = static_cast<double>(w.jobs);
  const serve::ServiceStats& stats = t.report.stats;
  const auto sweep = t.stage("anneal.batch_sweep");
  const auto embed = t.stage("chimera.embed");
  const auto unembed = t.stage("chimera.unembed");
  const auto update = t.stage("core.update_ml_fields");
  const double kernel_s =
      1e-9 * static_cast<double>(sweep.total_ns + embed.total_ns + unembed.total_ns);
  const WaveCounts waves = count_waves(service, t);
  double covered_s = 0.0;
  for (const Span& s : t.spans) covered_s += s.end_s - s.start_s;
  const double compiles =
      static_cast<double>(t.compile.full_compiles + t.compile.delta_compiles);
  const auto ms = [](std::uint64_t ns) { return 1e-6 * static_cast<double>(ns); };
  const auto count = [](std::uint64_t c) { return static_cast<double>(c); };

  return {
      {"serve.load_gen.us_per_job", 1e6 * t.span_s("serve.load_gen") / n, "us"},
      {"core.reduce.us_per_job",
       1e6 * ratio(r.uplink_reduce_s, static_cast<double>(r.uplink_jobs)), "us"},
      {"vpp.reduce.wall_share", r.downlink_jobs ? r.downlink_reduce_s / t.wall_s : 0.0,
       "fraction"},
      {"vpp.reduce.calls", static_cast<double>(r.downlink_jobs), "count"},
      {"core.update_ml_fields.wall_share", 1e-3 * ms(update.total_ns) / t.wall_s,
       "fraction"},
      {"core.update_ml_fields.calls", count(update.calls), "count"},
      {"serve.load_gen.delta_share",
       ratio(static_cast<double>(t.compile.delta_compiles), compiles), "fraction"},
      {"sched.submit.us_per_job", 1e6 * t.span_s("sched.submit") / n, "us"},
      {"sched.finish.ms", 1e3 * t.span_s("sched.finish"), "ms"},
      {"anneal.batch_sweep.ms", ms(sweep.total_ns), "ms"},
      {"anneal.batch_sweep.calls", count(sweep.calls), "count"},
      {"anneal.spin_updates", waves.spin_updates, "count"},
      {"anneal.ns_per_spin_update",
       ratio(static_cast<double>(sweep.total_ns), waves.spin_updates), "ns"},
      {"chimera.embed.ms", ms(embed.total_ns), "ms"},
      {"chimera.embed.calls", count(embed.calls), "count"},
      {"chimera.embed.us_per_call",
       1e-3 * ratio(static_cast<double>(embed.total_ns), count(embed.calls)), "us"},
      {"chimera.unembed.ms", ms(unembed.total_ns), "ms"},
      {"fault.classical_decode.wall_share", r.fallback_jobs ? r.fallback_s / t.wall_s : 0.0,
       "fraction"},
      {"fault.classical_decode.calls", static_cast<double>(r.fallback_jobs), "count"},
      {"serve.stats.fold_us_per_job", 1e6 * t.span_s("serve.stats.fold") / n, "us"},
      {"serve.run.unattributed_share", 1.0 - ratio(kernel_s, t.finish_cpu_s),
       "fraction"},
      {"sched.waves", static_cast<double>(stats.waves()), "count"},
      {"sched.occupancy", stats.mean_wave_occupancy(), "jobs/wave"},
      {"sched.fill_ratio", waves.fill_ratio, "fraction"},
      {"sched.total_anneals", static_cast<double>(stats.total_anneals()), "count"},
      {"sched.warm_waves", static_cast<double>(stats.warm_waves()), "count"},
      {"sched.retries", static_cast<double>(stats.retries()), "count"},
      {"sched.fallbacks", static_cast<double>(stats.fallbacks()), "count"},
      {"sched.failed_waves", static_cast<double>(stats.failed_waves()), "count"},
      {"sched.wasted_anneal_share", waves.wasted_anneal_share, "fraction"},
      {"serve.miss_rate", stats.miss_rate(), "fraction"},
      {"serve.latency_us_p50", stats.total().p50_us, "virtual_us"},
      {"serve.latency_us_p99", stats.total().p99_us, "virtual_us"},
      {"serve.ber", stats.ber(), "fraction"},
      {"trace.overhead", 1.0 - ratio(n / t.wall_s, untraced_jobs_per_s), "fraction"},
      {"bench.span_coverage", covered_s / t.wall_s, "fraction"},
  };
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + json_number(values[i]);
  return out + "]";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ",\n    " : "\n    ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "\n  }";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int usage(const std::string& message) {
  std::fprintf(stderr, "bench_e2e: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--reps N | --seconds S]\n"
               "                 [--trace 0|1] [--setups K] [--json PATH]\n");
  return 2;
}

std::optional<Options> parse(int argc, char** argv, std::string& error) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      error = "missing value after " + arg;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--reps") opt.reps = std::stoul(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--setups") opt.setups = std::stoul(value);
      else if (arg == "--json") opt.json_path = value;
      else if (arg == "--trace" && (value == "0" || value == "1")) opt.trace = value == "1";
      else {
        error = "bad argument " + arg + " " + value;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "bad number for " + arg + ": " + value;
      return std::nullopt;
    }
  }
  if (opt.workload.empty()) error = "--workload is required";
  else if (opt.setups == 0) error = "--setups must be at least 1";
  else if (opt.reps == 0 && !(opt.seconds > 0.0)) error = "--seconds must be positive";
  if (!error.empty()) return std::nullopt;
  return opt;
}

int run(const Options& opt) {
  const bench::Workload w = bench::make_workload(opt.workload);
  const std::uint64_t seed = opt.seed.value_or(w.default_seed);
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());

  serve::ServiceConfig cfg = w.service;
  cfg.num_threads = kLanes;  // the driver thread is lane 0
  cfg.seed = Rng(seed)();
  Checks checks;

  // 1. Timed reps, profiler off, with the set-ups spread among them.
  std::vector<double> setup_s;
  std::unique_ptr<serve::DecodeService> service;
  std::vector<TimedRep> reps;
  const Clock::time_point timed_start = Clock::now();
  const auto progress = [&] {
    return opt.reps > 0 ? static_cast<double>(reps.size()) / static_cast<double>(opt.reps)
                        : seconds_between(timed_start, Clock::now()) / opt.seconds;
  };
  const auto more_reps = [&] {
    return opt.reps > 0 ? reps.size() < opt.reps
                        : reps.size() < kMinTimedReps || progress() < 1.0;
  };
  const auto set_up = [&] {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<serve::DecodeService>(cfg);
    serve::LoadGenerator warmup(w.load, kWarmupSeed);
    service->run(warmup.open_loop(kWarmupJobs));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  while (more_reps()) {
    // Set-up k is due once k/K of the run has passed.
    while (setup_s.size() < opt.setups &&
           static_cast<double>(setup_s.size()) <= progress() * static_cast<double>(opt.setups))
      set_up();
    reps.push_back(timed_rep(*service, w, seed, reps.size(), checks));
    checks.require(reps.back().digest == reps.front().digest,
                   "rep " + std::to_string(reps.size() - 1) + ": digest differs from rep 0");
    checks.require(reps.back().hash == reps.front().hash,
                   "rep " + std::to_string(reps.size() - 1) +
                       ": timeline hash differs from rep 0");
  }
  while (setup_s.size() < opt.setups) set_up();
  const double rss_mb = peak_rss_mb();

  std::vector<double> jobs_per_s, cpu_us_per_job;
  std::size_t attempted = 0, failed = 0;
  for (const TimedRep& rep : reps) {
    jobs_per_s.push_back(static_cast<double>(w.jobs) / rep.wall_s);
    cpu_us_per_job.push_back(1e6 * rep.cpu_s / static_cast<double>(w.jobs));
    attempted += w.jobs;
    failed += rep.failed;
  }
  const std::vector<Metric> e2e = {
      {"jobs_per_s", quantile(jobs_per_s, 1.0 - kRepQuantile), "jobs/s"},
      {"cpu_us_per_job", quantile(cpu_us_per_job, kRepQuantile), "us"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };

  // 2. Traced rep and replays.
  std::vector<Metric> layers;
  std::vector<Span> spans;
  if (opt.trace) {
    const TracedRep traced = traced_rep(*service, w, seed);
    check_report(traced.report.jobs, traced.report.stats, w, "traced rep", checks);
    checks.require(traced.report.stats.digest() == reps.front().digest,
                   "traced rep: digest differs from the timed reps");
    checks.require(timeline_hash(traced.report.jobs) == reps.front().hash,
                   "traced rep: timeline hash differs from the timed reps");
    attempted += w.jobs;
    failed += traced.report.stats.failed();
    const Replays replays = replay_layers(w, seed, *service, traced.report.jobs, checks);
    layers = layer_metrics(*service, w, traced, replays, quantile(jobs_per_s, 0.5));
    for (const Metric& m : layers)
      if (m.name == "bench.span_coverage")
        checks.require(m.value >= kMinSpanCoverage,
                       "traced rep: spans cover only " + std::to_string(m.value) +
                           " of its wall time");
    spans = traced.spans;
  }

  std::printf("workload %s  seed %llu%s  jobs/rep %zu  reps %zu  lanes %zu\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              seed == w.default_seed ? " (default)" : "", w.jobs, reps.size(), kLanes);
  std::printf("timeline hash %s\n%s", reps.front().hash.c_str(),
              reps.front().digest.c_str());
  print_metrics("end to end:", e2e);
  if (opt.trace) print_metrics("per layer (traced rep):", layers);
  for (const std::string& f : checks.failures())
    std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("correct: %s\n", checks.ok() ? "yes" : "NO");

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\n  \"workload\": " << json_string(w.name)
        << ",\n  \"seed\": " << seed
        << ",\n  \"default_seed\": " << (seed == w.default_seed ? "true" : "false")
        << ",\n  \"jobs_per_rep\": " << w.jobs << ",\n  \"reps\": " << reps.size()
        << ",\n  \"context\": {\"lanes\": " << kLanes << ", \"hardware_threads\": "
        << hardware << ", \"cpu_model\": " << json_string(cpu_model())
        << ", \"compiler\": " << json_string(compiler())
        << ", \"build_type\": " << json_string(QUAMAX_E2E_BUILD_TYPE) << "}"
        << ",\n  \"correct\": " << (checks.ok() ? "true" : "false")
        << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < checks.failures().size(); ++i)
      out << (i ? ", " : "") << json_string(checks.failures()[i]);
    out << "],\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
        << ",\n  \"timeline_hash\": " << json_string(reps.front().hash)
        << ",\n  \"digest\": " << json_string(reps.front().digest)
        << ",\n  \"rep_jobs_per_s\": " << json_numbers(jobs_per_s)
        << ",\n  \"rep_cpu_us_per_job\": " << json_numbers(cpu_us_per_job)
        << ",\n  \"setup_s\": " << json_numbers(setup_s)
        << ",\n  \"end_to_end\": " << json_metrics(e2e)
        << ",\n  \"per_layer\": " << json_metrics(layers) << ",\n  \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i)
      out << (i ? ",\n    " : "\n    ") << "{\"name\": " << json_string(spans[i].name)
          << ", \"start_s\": " << json_number(spans[i].start_s)
          << ", \"end_s\": " << json_number(spans[i].end_s) << "}";
    out << "]\n}\n";
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", opt.json_path.c_str());
      return 2;
    }
  }
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "bench_e2e: this build has assertions on (no NDEBUG); its timings "
               "would not describe the serving path.  Rebuild with "
               "-DCMAKE_BUILD_TYPE=Release.\n");
  return 2;
#endif
  std::string error;
  const std::optional<Options> opt = parse(argc, argv, error);
  if (!opt) return usage(error);
  try {
    return run(*opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
