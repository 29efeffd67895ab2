// quamax::obs — tracing, metrics, and the determinism contract (ISSUE 8).
//
// The contracts under test:
//   * the TraceLog derived from a finished run (serve::trace_log) captures
//     a COMPLETE job lifecycle: every served job is
//     submitted exactly once and then dispatched or dropped exactly once,
//     dispatch events agree field-for-field with the JobRecords, and every
//     wave's program/anneal/readout spans tile [dispatch, completion]
//     exactly (the §7 latency decomposition);
//   * QuantileSketch keeps count/sum/min/max exact, answers p50/p95/p99
//     within the gated 1% relative error, and merges deterministically —
//     a sketch merged from shards equals the sketch of the whole stream;
//   * the digest and the derived trace are byte-identical across threads x
//     replicas per device count, and streaming through
//     Scheduler::submit/collect (a different collect cadence over the same
//     virtual clock) derives the identical event stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/fault/plan.hpp"
#include "quamax/obs/metrics.hpp"
#include "quamax/obs/sketch.hpp"
#include "quamax/obs/slo.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/obs/window.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/observe.hpp"
#include "quamax/serve/service.hpp"

namespace quamax {
namespace {

// ---------------------------------------------------------------------------
// QuantileSketch.

TEST(SketchTest, ExactMomentsAndEdgeCases) {
  obs::QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.count(), 0u);

  // Integer-valued samples: sums are exact in double, so mean must be too.
  const std::vector<double> values = {4.0, 1.0, 9.0, 0.0, 16.0, 2.0};
  for (const double v : values) sketch.add(v);
  EXPECT_FALSE(sketch.empty());
  EXPECT_EQ(sketch.count(), values.size());
  EXPECT_DOUBLE_EQ(sketch.mean(), 32.0 / 6.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 16.0);
  // Quantiles never leave the observed range.
  for (const double p : {0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    EXPECT_GE(sketch.quantile(p), 0.0);
    EXPECT_LE(sketch.quantile(p), 16.0);
  }

  obs::QuantileSketch lone;
  lone.add(42.5);
  for (const double p : {0.0, 50.0, 100.0})
    EXPECT_DOUBLE_EQ(lone.quantile(p), 42.5);

  // The all-zero stream (ServiceStats feeds queueing_us = 0 at light load;
  // serve_test pins its digest line to exact zeros).
  obs::QuantileSketch zeros;
  for (int i = 0; i < 10; ++i) zeros.add(0.0);
  EXPECT_DOUBLE_EQ(zeros.mean(), 0.0);
  EXPECT_DOUBLE_EQ(zeros.max(), 0.0);
  EXPECT_DOUBLE_EQ(zeros.quantile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(zeros.quantile(99.0), 0.0);
}

TEST(SketchTest, QuantilesWithinOnePercentOfStoredRecords) {
  // Latency-shaped samples spanning several octaves: a floor plus a
  // heavy-ish multiplicative tail, deterministic stream.
  Rng rng(0x0B5E);
  std::vector<double> values;
  obs::QuantileSketch sketch;
  for (int i = 0; i < 20000; ++i) {
    const double v = 40.0 + 900.0 * std::exp(2.0 * rng.normal());
    values.push_back(v);
    sketch.add(v);
  }
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = percentile(values, p);
    const double approx = sketch.quantile(p);
    EXPECT_LE(std::abs(approx - exact) / exact, 0.01)
        << "p" << p << ": sketch " << approx << " vs exact " << exact;
  }
}

TEST(SketchTest, MergeOfShardsEqualsWholeStream) {
  // Integer-valued samples again so shard-order summation is exact and the
  // merged sketch must match the whole-stream sketch bit for bit.
  Rng rng(0xFACE);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back(std::floor(rng.uniform(0.0, 1e6)));

  obs::QuantileSketch whole;
  for (const double v : values) whole.add(v);

  obs::QuantileSketch merged;
  for (std::size_t shard = 0; shard < 8; ++shard) {
    obs::QuantileSketch part;
    for (std::size_t i = shard; i < values.size(); i += 8)
      part.add(values[i]);
    merged.merge(part);
  }

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (const double p : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0})
    EXPECT_DOUBLE_EQ(merged.quantile(p), whole.quantile(p))
        << "merge is bucket-wise, so quantiles must agree exactly at p" << p;

  obs::QuantileSketch empty;
  merged.merge(empty);  // no-op
  EXPECT_EQ(merged.count(), whole.count());
}

// ---------------------------------------------------------------------------
// Trace log completeness.

serve::ServiceConfig fast_service(std::size_t threads = 1,
                                  std::size_t replicas = 8,
                                  std::size_t devices = 1) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = replicas;
  cfg.num_anneals = 20;
  cfg.num_threads = threads;
  cfg.num_devices = devices;
  cfg.packing = true;
  cfg.program_overhead_us = 10.0;
  return cfg;
}

/// The trace of a finished service run.
obs::TraceLog served_log(const serve::ServiceConfig& cfg,
                         const serve::ServiceReport& report) {
  return serve::trace_log(serve::scheduler_config(cfg), report.jobs,
                          report.waves);
}

serve::LoadConfig bpsk8_load(double jobs_per_ms, double deadline_us = 1000.0) {
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

TEST(TraceLogTest, LifecycleCompleteAndConsistentWithRecords) {
  const serve::ServiceConfig cfg = fast_service();
  serve::DecodeService service(cfg);
  serve::LoadGenerator gen(bpsk8_load(80.0), 0xA11CE);
  const serve::ServiceReport report = service.run(gen.open_loop(48));
  const obs::TraceLog log = served_log(cfg, report);

  // One submit per job, in admission (arrival) order.
  ASSERT_EQ(log.submits.size(), report.jobs.size());
  for (std::size_t i = 0; i + 1 < log.submits.size(); ++i)
    EXPECT_LE(log.submits[i].submit_us, log.submits[i + 1].submit_us);

  std::map<std::uint64_t, obs::JobDispatchEvent> dispatched;
  for (const auto& e : log.dispatches)
    EXPECT_TRUE(dispatched.emplace(e.job_id, e).second)
        << "job " << e.job_id << " dispatched twice";
  EXPECT_TRUE(log.drops.empty()) << "roomy deadline: nothing drops";
  ASSERT_EQ(dispatched.size(), report.jobs.size());

  // Dispatch events agree with the records the report keeps.
  for (const serve::JobRecord& rec : report.jobs) {
    const auto it = dispatched.find(rec.job_id);
    ASSERT_NE(it, dispatched.end());
    EXPECT_EQ(it->second.wave_id, rec.wave_id);
    EXPECT_EQ(it->second.dispatch_us, rec.dispatch_us);
    EXPECT_EQ(it->second.completion_us, rec.completion_us);
    const obs::JobSubmitEvent& sub =
        log.submits[rec.job_id];  // ids are dense submit indices
    EXPECT_EQ(sub.job_id, rec.job_id);
    EXPECT_EQ(sub.submit_us, rec.arrival_us);
    EXPECT_EQ(sub.deadline_us, rec.deadline_us);
  }

  // Wave spans tile [dispatch, completion] exactly and account for the
  // closed-form wave cost: overhead/2 + anneals * duration + overhead/2.
  ASSERT_EQ(log.waves.size(), report.waves.size());
  const double duration_us = cfg.annealer.schedule.duration_us();
  std::map<std::uint64_t, std::size_t> jobs_in_wave;
  for (const auto& e : log.dispatches) ++jobs_in_wave[e.wave_id];
  for (const obs::WaveEvent& w : log.waves) {
    EXPECT_EQ(w.policy, "fifo");
    EXPECT_EQ(w.num_jobs, jobs_in_wave[w.wave_id]);
    EXPECT_DOUBLE_EQ(w.program_end_us - w.dispatch_us,
                     cfg.program_overhead_us / 2.0);
    EXPECT_DOUBLE_EQ(w.completion_us - w.readout_start_us,
                     cfg.program_overhead_us / 2.0);
    EXPECT_DOUBLE_EQ(w.readout_start_us - w.program_end_us,
                     static_cast<double>(w.num_anneals) * duration_us);
    EXPECT_EQ(w.num_anneals, static_cast<int>(cfg.num_anneals));
  }
}

TEST(TraceLogTest, DropsEmitDropEventsNotDispatches) {
  serve::ServiceConfig cfg = fast_service();
  cfg.drop_late = true;
  serve::DecodeService service(cfg);
  // Saturating load with a deadline shorter than one wave's service time:
  // queued jobs expire before dispatch.
  serve::LoadGenerator gen(bpsk8_load(2000.0, /*deadline_us=*/25.0), 0xD401);
  const serve::ServiceReport report = service.run(gen.open_loop(64));
  const obs::TraceLog log = served_log(cfg, report);

  std::set<std::uint64_t> dropped_ids;
  for (const auto& e : log.drops) dropped_ids.insert(e.job_id);
  std::size_t dropped_records = 0;
  for (const serve::JobRecord& rec : report.jobs) {
    if (!rec.dropped) continue;
    ++dropped_records;
    EXPECT_TRUE(dropped_ids.count(rec.job_id))
        << "dropped job " << rec.job_id << " missing a drop event";
  }
  ASSERT_GT(dropped_records, 0u) << "workload failed to force any drop";
  EXPECT_EQ(dropped_ids.size(), dropped_records);
  EXPECT_EQ(log.dispatches.size() + dropped_records, report.jobs.size());
}

// ---------------------------------------------------------------------------
// The zero-drift contract.

/// The digest of one run, followed by its derived Chrome trace.
std::string run_digest(std::size_t threads, std::size_t replicas,
                       std::size_t devices) {
  const serve::ServiceConfig cfg = fast_service(threads, replicas, devices);
  serve::DecodeService service(cfg);
  serve::LoadGenerator gen(bpsk8_load(120.0), 0xB0B);
  const serve::ServiceReport report = service.run(gen.open_loop(40));
  const obs::TraceLog log = served_log(cfg, report);
  EXPECT_FALSE(log.dispatches.empty());
  std::ostringstream out;
  out << report.stats.digest();
  obs::write_chrome_trace(log, out);
  return out.str();
}

TEST(TraceLogTest, DigestBitIdenticalTracedOrNot) {
  for (const std::size_t devices : {std::size_t{1}, std::size_t{3}}) {
    const std::string baseline = run_digest(1, 1, devices);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      for (const std::size_t replicas : {std::size_t{1}, std::size_t{16}}) {
        EXPECT_EQ(run_digest(threads, replicas, devices), baseline)
            << "digest or trace drifted at threads=" << threads
            << " replicas=" << replicas << " devices=" << devices;
      }
    }
  }
}

TEST(TraceLogTest, AsyncClientEmitsIdenticalEventStream) {
  // The same workload through the batch service and streamed through a
  // Scheduler with an aggressive cadence (collect after every submit).
  // Both drive the same virtual clock, so the traces must match event for
  // event.
  serve::LoadGenerator gen(bpsk8_load(120.0), 0x57EA);
  const std::vector<serve::CellJob> jobs = gen.open_loop(32);

  const serve::ServiceConfig cfg = fast_service();
  serve::DecodeService service(cfg);
  const serve::ServiceReport report = service.run(jobs);
  const obs::TraceLog batch_log = served_log(cfg, report);

  sched::SchedConfig async_cfg;
  async_cfg.annealer = cfg.annealer;
  async_cfg.devices = sched::uniform_devices(cfg.annealer, 1);
  async_cfg.num_anneals = cfg.num_anneals;
  async_cfg.program_overhead_us = cfg.program_overhead_us;
  async_cfg.seed = cfg.seed;
  sched::Scheduler scheduler(async_cfg);
  std::size_t polled = 0;
  for (const serve::CellJob& job : jobs) {
    scheduler.submit(job);
    // cadence: collect after every submit
    polled += scheduler.collect(scheduler.now_us()).size();
  }
  scheduler.finish();
  polled += scheduler.collect(std::numeric_limits<double>::infinity()).size();
  EXPECT_EQ(polled, report.jobs.size());
  const obs::TraceLog async_log =
      serve::trace_log(async_cfg, scheduler.records(), scheduler.waves());

  ASSERT_EQ(async_log.submits.size(), batch_log.submits.size());
  ASSERT_EQ(async_log.dispatches.size(), batch_log.dispatches.size());
  ASSERT_EQ(async_log.waves.size(), batch_log.waves.size());
  for (std::size_t i = 0; i < batch_log.dispatches.size(); ++i) {
    EXPECT_EQ(async_log.dispatches[i].job_id,
              batch_log.dispatches[i].job_id);
    EXPECT_EQ(async_log.dispatches[i].dispatch_us,
              batch_log.dispatches[i].dispatch_us);
    EXPECT_EQ(async_log.dispatches[i].completion_us,
              batch_log.dispatches[i].completion_us);
  }
  for (std::size_t i = 0; i < batch_log.waves.size(); ++i) {
    EXPECT_EQ(async_log.waves[i].dispatch_us,
              batch_log.waves[i].dispatch_us);
    EXPECT_EQ(async_log.waves[i].completion_us,
              batch_log.waves[i].completion_us);
    EXPECT_EQ(async_log.waves[i].num_jobs, batch_log.waves[i].num_jobs);
  }
}

// ---------------------------------------------------------------------------
// Windowed telemetry, duty-cycle/energy accounting, and SLO alerts (obs v2).

/// Serializes every derived byte of a collector (windows, devices, totals,
/// SLO reports) — the bit-identity oracle for the tests below.
std::string windowed_digest(const obs::WindowedCollector& collector,
                            const std::vector<obs::SloReport>& slos = {}) {
  std::ostringstream out;
  obs::write_metrics_json(collector, slos, out);
  return out.str();
}

/// fast_service under a scripted mid-run outage with retries + classical
/// fallback: exercises every event kind the collector windows (retries,
/// failed waves, fallbacks, device down/up), and resolves every job so the
/// accounting invariants below are total.
serve::ServiceConfig storm_service(std::size_t threads = 1,
                                   std::size_t replicas = 8) {
  serve::ServiceConfig cfg = fast_service(threads, replicas);
  auto storm = std::make_shared<fault::FaultPlan>();
  storm->outages.push_back({0, 150.0, 650.0});
  cfg.fault = std::move(storm);
  cfg.max_retries = 1;
  cfg.retry_backoff_us = 10.0;
  cfg.fallback = fault::FallbackMode::kZf;
  return cfg;
}

obs::TraceLog trace_storm(std::size_t threads = 1, std::size_t replicas = 8,
                          std::size_t jobs = 48) {
  const serve::ServiceConfig cfg = storm_service(threads, replicas);
  serve::DecodeService service(cfg);
  serve::LoadGenerator gen(bpsk8_load(120.0, /*deadline_us=*/200.0), 0x57043);
  return served_log(cfg, service.run(gen.open_loop(jobs)));
}

TEST(WindowedCollectorTest, SeriesBitIdenticalAcrossThreadsAndReplicas) {
  const std::string baseline =
      windowed_digest(obs::WindowedCollector(trace_storm(), 1));
  EXPECT_NE(baseline.find("\"windows\":"), std::string::npos);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t replicas : {std::size_t{1}, std::size_t{16}}) {
      EXPECT_EQ(windowed_digest(
                    obs::WindowedCollector(trace_storm(threads, replicas), 1)),
                baseline)
          << "windowed series drifted at threads=" << threads
          << " replicas=" << replicas;
    }
  }
}

TEST(WindowedCollectorTest, SeriesBitIdenticalAcrossPollCadence) {
  serve::LoadGenerator gen(bpsk8_load(120.0), 0x57EA);
  const std::vector<serve::CellJob> jobs = gen.open_loop(32);

  const serve::ServiceConfig cfg = fast_service();
  const std::string baseline = windowed_digest(obs::WindowedCollector(
      served_log(cfg, serve::DecodeService(cfg).run(jobs)), 1));

  for (const std::size_t cadence : {std::size_t{1}, std::size_t{7}}) {
    sched::SchedConfig async_cfg;
    async_cfg.annealer = cfg.annealer;
    async_cfg.devices = sched::uniform_devices(cfg.annealer, 1);
    async_cfg.num_anneals = cfg.num_anneals;
    async_cfg.program_overhead_us = cfg.program_overhead_us;
    async_cfg.seed = cfg.seed;
    sched::Scheduler scheduler(async_cfg);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      scheduler.submit(jobs[i]);
      if ((i + 1) % cadence == 0) scheduler.collect(scheduler.now_us());
    }
    scheduler.finish();
    const obs::TraceLog async_log =
        serve::trace_log(async_cfg, scheduler.records(), scheduler.waves());
    EXPECT_EQ(windowed_digest(obs::WindowedCollector(async_log, 1)), baseline)
        << "windowed series drifted at poll cadence " << cadence;
  }
}

TEST(WindowedCollectorTest, SeriesIndependentOfEventOrder) {
  // A long run packs enough waves into each window that the floating-point
  // busy/energy sums depend on accumulation order: without the canonical
  // sort, the shuffled log below windows to different bytes.
  const obs::TraceLog log = trace_storm(1, 8, /*jobs=*/400);
  ASSERT_FALSE(log.retries.empty()) << "storm produced no retries";
  ASSERT_FALSE(log.fallbacks.empty()) << "storm produced no fallbacks";

  // The same event set in a shuffled emission order — the shape a sharded
  // or per-device collection would hand back.  The collector sorts the
  // waves and the job terminals before any floating-point sum, and every
  // other event only feeds order-free counts, so not one derived byte may
  // change.
  std::mt19937_64 rng(0x5E7);
  obs::TraceLog shuffled = log;
  const auto shuffle = [&](auto& events) {
    std::shuffle(events.begin(), events.end(), rng);
  };
  shuffle(shuffled.submits);
  shuffle(shuffled.dispatches);
  shuffle(shuffled.drops);
  shuffle(shuffled.waves);
  shuffle(shuffled.downs);
  shuffle(shuffled.retries);
  shuffle(shuffled.fallbacks);
  ASSERT_NE(shuffled.dispatches.front().job_id,
            log.dispatches.front().job_id)
      << "the shuffle left the emission order in place";

  EXPECT_EQ(windowed_digest(obs::WindowedCollector(shuffled, 1)),
            windowed_digest(obs::WindowedCollector(log, 1)));
}

TEST(WindowedCollectorTest, DutyCycleAndEnergyConserve) {
  const obs::TraceLog log = trace_storm();
  const obs::WindowedCollector collector(log, 1);
  const obs::WindowedTotals& totals = collector.totals();
  const double horizon = collector.horizon_us();

  // Windows tile [0, H] and counters conserve window-wise to the totals.
  ASSERT_FALSE(collector.windows().empty());
  EXPECT_EQ(collector.windows().front().start_us, 0.0);
  EXPECT_GE(collector.windows().back().end_us, horizon);
  std::int64_t submitted = 0, resolved = 0, bits = 0, retries = 0;
  double window_busy = 0.0, window_energy = 0.0;
  for (std::size_t i = 0; i < collector.windows().size(); ++i) {
    const obs::WindowStats& w = collector.windows()[i];
    EXPECT_EQ(w.index, i);
    if (i > 0) {
      EXPECT_EQ(w.start_us, collector.windows()[i - 1].end_us);
    }
    EXPECT_GE(w.queue_depth, 0);
    submitted += w.submitted;
    resolved += w.resolved;
    bits += w.bits;
    retries += w.retries;
    window_busy += w.busy_us;
    window_energy += w.energy_j;
  }
  EXPECT_EQ(submitted, totals.submitted);
  EXPECT_EQ(resolved, totals.resolved);
  EXPECT_EQ(bits, totals.bits);
  EXPECT_EQ(retries, totals.retries);
  EXPECT_EQ(collector.windows().back().queue_depth, 0) << "queue not drained";
  EXPECT_GT(totals.retries, 0) << "storm produced no retries";
  EXPECT_EQ(totals.submitted,
            totals.completed + totals.fallbacks + totals.dropped);

  // Per-device tiling: phases + outage + idle == horizon, attributed busy
  // time == the independently summed wave extents, energy conserves.
  ASSERT_EQ(collector.devices().size(), 1u);
  double device_busy = 0.0, device_energy = 0.0;
  for (const obs::DeviceUsage& d : collector.devices()) {
    EXPECT_NEAR(d.busy_us() + d.outage_us + d.idle_us, horizon,
                1e-9 * horizon);
    EXPECT_GE(d.idle_us, 0.0);
    EXPECT_GT(d.outage_us, 0.0) << "scripted outage not attributed";
    EXPECT_GT(d.aborted_us, 0.0) << "failed waves not attributed";
    device_busy += d.busy_us();
    device_energy += d.energy_j;
  }
  EXPECT_NEAR(device_busy, totals.wave_busy_us, 1e-9 * horizon);
  EXPECT_NEAR(window_busy, totals.wave_busy_us, 1e-9 * horizon);
  EXPECT_NEAR(device_energy, totals.energy_j, 1e-9 * totals.energy_j);
  EXPECT_NEAR(window_energy, totals.energy_j, 1e-9 * totals.energy_j);
  ASSERT_GT(totals.bits, 0);
  EXPECT_DOUBLE_EQ(totals.joules_per_bit,
                   totals.energy_j / static_cast<double>(totals.bits));
}

TEST(SloMonitorTest, SpecGrammarParsesAndRejects) {
  std::string error;
  const std::vector<obs::SloSpec> specs =
      obs::parse_slo_specs(" miss_rate<=0.05, p99<=2500, miss_rate<=0.1@6/2 ",
                           &error);
  ASSERT_EQ(specs.size(), 3u) << error;
  EXPECT_EQ(specs[0].kind, obs::SloSpec::Kind::kMissRate);
  EXPECT_DOUBLE_EQ(specs[0].threshold, 0.05);
  EXPECT_EQ(specs[0].long_windows, 4u);
  EXPECT_EQ(specs[0].short_windows, 1u);
  EXPECT_EQ(specs[1].kind, obs::SloSpec::Kind::kP99);
  EXPECT_DOUBLE_EQ(specs[1].threshold, 2500.0);
  EXPECT_EQ(specs[2].long_windows, 6u);
  EXPECT_EQ(specs[2].short_windows, 2u);
  EXPECT_EQ(specs[2].name, "miss_rate<=0.1@6/2");

  for (const char* bad : {"latency<=5", "miss_rate<0.05", "miss_rate<=-1",
                          "miss_rate<=0.05@1/2", "p99<=2500@4/0", "p99<=",
                          "miss_rate<=nan", "p99<=inf", "p99<=1e999"}) {
    error.clear();
    EXPECT_TRUE(obs::parse_slo_specs(bad, &error).empty()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(SloMonitorTest, StormAlertsAreDeterministicAndQuietRunIsClean) {
  const std::vector<obs::SloSpec> specs =
      obs::parse_slo_specs("miss_rate<=0.05");

  // The storm arm must alert, identically on every evaluation and at any
  // thread count; alerts carry the breaching window's exact bounds.
  const obs::WindowedCollector storm(trace_storm(), 1);
  const std::vector<obs::SloReport> first = obs::evaluate_slos(specs, storm);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_GE(first[0].alerts.size(), 1u) << "storm did not breach the SLO";
  EXPECT_EQ(first[0].breached_windows, first[0].alerts.size());
  for (const obs::AlertEvent& alert : first[0].alerts) {
    ASSERT_LT(alert.window, storm.windows().size());
    EXPECT_EQ(alert.start_us, storm.windows()[alert.window].start_us);
    EXPECT_EQ(alert.end_us, storm.windows()[alert.window].end_us);
    EXPECT_GT(alert.value, alert.threshold);
    EXPECT_DOUBLE_EQ(alert.burn, alert.value / alert.threshold);
  }
  EXPECT_EQ(windowed_digest(storm, obs::evaluate_slos(specs, storm)),
            windowed_digest(storm, first));
  const obs::WindowedCollector threaded(trace_storm(8, 16), 1);
  EXPECT_EQ(windowed_digest(threaded, obs::evaluate_slos(specs, threaded)),
            windowed_digest(storm, first));

  // The fault-free arm of the same workload stays alert-free.
  const serve::ServiceConfig quiet = fast_service();
  serve::LoadGenerator gen(bpsk8_load(120.0, /*deadline_us=*/200.0), 0x57043);
  const obs::TraceLog quiet_log = served_log(
      quiet, serve::DecodeService(quiet).run(gen.open_loop(48)));
  const std::vector<obs::SloReport> clean =
      obs::evaluate_slos(specs, obs::WindowedCollector(quiet_log, 1));
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean[0].alerts.empty()) << "fault-free arm raised alerts";
  EXPECT_EQ(clean[0].breached_windows, 0u);
}

}  // namespace
}  // namespace quamax
