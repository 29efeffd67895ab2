// quamax::fault — deterministic fault injection, retry/fallback serving, and
// degraded-mode guarantees (ISSUE 9).
//
// The contracts under test:
//   * FaultPlan validation and the plan-file parser reject malformed input
//     with actionable errors; storm_plan is a pure function of its arguments
//     and actually schedules the requested downtime fraction;
//   * device outage windows defer dispatch and abort in-flight waves: a
//     non-failed wave NEVER overlaps an outage window of its device, and an
//     aborted wave's members are retried (budget permitting) or degraded;
//   * the retry budget is exact: with anneal_failure_prob = 1 every job
//     burns max_retries + 1 attempts, then falls back (fallback configured)
//     or terminally fails (fallback none);
//   * a fallback record's bit_errors/num_bits equal a direct
//     fault::classical_decode call on the same job — the service adds
//     nothing to the classical chain;
//   * mid-run defect growth strands queued/arriving jobs whose shape no
//     longer embeds, and the fallback ladder serves them classically;
//   * the zero-fault path is BYTE-IDENTICAL to the no-plan service: digests
//     match across no plan / empty plan / far-future plan at any
//     --threads x --devices combination (the PR-8 bit-compat guarantee).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "quamax/chimera/graph.hpp"
#include "quamax/common/error.hpp"
#include "quamax/fault/fallback.hpp"
#include "quamax/fault/plan.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/observe.hpp"
#include "quamax/serve/service.hpp"

namespace quamax {
namespace {

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

serve::ServiceConfig fast_service(std::size_t threads = 1) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.num_anneals = 20;
  cfg.num_threads = threads;
  cfg.program_overhead_us = 10.0;
  return cfg;
}

/// FNV-1a fingerprint of a served fault timeline: every record's identity,
/// timing (%.17g), terminal flags, retries and fallback bit errors; every
/// wave's device, timing, failure and membership; and the fault ladder's
/// trace events (drops, fallbacks, retries, outage starts) in log order,
/// then the outage ends stable-sorted by end time.
/// Any drift in when or how a job ends moves the hash.
std::string timeline_hash(const serve::ServiceReport& report,
                          const obs::TraceLog& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const char* format, auto... args) {
    char buf[256];
    const int n = std::snprintf(buf, sizeof buf, format, args...);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ull;
    }
  };
  for (const serve::JobRecord& r : report.jobs) {
    mix("J%zu w%zu d%.17g c%.17g %d%d%d r%zu", r.job_id, r.wave_id,
        r.dispatch_us, r.completion_us, int{r.dropped}, int{r.fallback},
        int{r.failed}, r.retries);
    if (r.fallback) mix(" e%zu/%zu", r.bit_errors, r.num_bits);
  }
  for (const serve::Wave& w : report.waves) {
    mix("W%zu s%zu D%zu d%.17g c%.17g f%d %.17g:", w.id, w.shape, w.device,
        w.dispatch_us, w.completion_us, int{w.failed}, w.fail_us);
    for (const std::size_t seq : w.jobs) mix(" %zu", seq);
  }
  for (const obs::JobDropEvent& e : trace.drops)
    mix("X%llu %.17g %d", static_cast<unsigned long long>(e.job_id), e.drop_us,
        int{e.mid_flight});
  for (const obs::JobFallbackEvent& e : trace.fallbacks)
    mix("F%llu %.17g %d %zu", static_cast<unsigned long long>(e.job_id),
        e.fallback_us, int{e.mid_flight}, e.bit_errors);
  for (const obs::JobRetryEvent& e : trace.retries)
    mix("R%llu w%llu %.17g %.17g %d", static_cast<unsigned long long>(e.job_id),
        static_cast<unsigned long long>(e.wave_id), e.fail_us, e.ready_us,
        e.retry);
  for (const obs::DeviceDownEvent& e : trace.downs)
    mix("V%d %.17g %.17g", e.device, e.down_us, e.up_us);
  std::vector<obs::DeviceDownEvent> ups = trace.downs;
  std::stable_sort(ups.begin(), ups.end(), [](const auto& a, const auto& b) {
    return a.up_us < b.up_us;
  });
  for (const obs::DeviceDownEvent& e : ups) mix("U%d %.17g", e.device, e.up_us);
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

/// The ladder-pinning plan for two devices: overlapping plus adjacent
/// outages on device 0, a shape-8-preserving growth on device 0 and then
/// the same growth on device 1 — after which shape 16 (the downlink VPP
/// problems) embeds nowhere — plus anneal and readout failure injection.
std::shared_ptr<const fault::FaultPlan> ladder_plan() {
  const std::vector<chimera::Qubit> dead =
      sched::dead_row_fault_map(chimera::ChimeraGraph(), 4);
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->outages = {{0, 100.0, 220.0}, {0, 180.0, 300.0}, {0, 300.0, 360.0},
                   {1, 400.0, 470.0}};
  plan->growths = {{0, 450.0, dead}, {1, 520.0, dead}};
  plan->anneal_failure_prob = 0.2;
  plan->readout_failure_prob = 0.2;
  return plan;
}

/// Two-shape full-duplex mix: 8-variable uplink BPSK and 16-variable
/// downlink VPP jobs.
std::vector<serve::CellJob> ladder_jobs(double deadline_us) {
  serve::LoadConfig load = bpsk8_load(80.0, deadline_us);
  load.downlink_fraction = 0.5;
  serve::LoadGenerator gen(load, 0xFA0C);
  return gen.open_loop(60);
}

/// Every wave's anneal draw fails: the pure retry/fallback-ladder driver.
std::shared_ptr<const fault::FaultPlan> always_fail_plan() {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->anneal_failure_prob = 1.0;
  return plan;
}

// ---------------------------------------------------------------------------
// FaultPlan validation, parsing, and storm synthesis.

TEST(FaultPlanTest, ValidateRejectsMalformedPlans) {
  const auto rejects = [](fault::FaultPlan plan) {
    EXPECT_THROW(plan.validate(2), InvalidArgument);
  };
  fault::FaultPlan plan;
  plan.validate(2);  // the empty plan is fine

  plan.outages = {{2, 0.0, 10.0}};  // device out of range
  rejects(plan);
  plan.outages = {{0, 10.0, 10.0}};  // end must exceed start
  rejects(plan);
  plan.outages = {{0, -1.0, 10.0}};  // negative start
  rejects(plan);
  plan.outages.clear();

  plan.growths = {{2, 5.0, {1}}};  // device out of range
  rejects(plan);
  plan.growths = {{0, -5.0, {1}}};  // negative time
  rejects(plan);
  plan.growths = {{0, 5.0, {}}};  // no qubits listed
  rejects(plan);
  plan.growths.clear();

  plan.anneal_failure_prob = 1.5;
  rejects(plan);
  plan.anneal_failure_prob = 0.0;
  plan.readout_failure_prob = -0.1;
  rejects(plan);
  plan.readout_failure_prob = 1.0;
  plan.validate(2);  // boundary probability is legal
}

TEST(FaultPlanTest, LoadParsesDirectivesCommentsAndRejectsGarbage) {
  const std::string path = testing::TempDir() + "quamax_fault_plan_test.txt";
  {
    std::ofstream out(path);
    out << "# maintenance schedule\n"
        << "seed 42\n"
        << "outage 0 100 250.5  # chiller swap\n"
        << "\n"
        << "defects 1 300 5 6 7\n"
        << "annealfail 0.25\n"
        << "readoutfail 0.1\n";
  }
  const fault::FaultPlan plan = fault::load_fault_plan(path);
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].device, 0u);
  EXPECT_DOUBLE_EQ(plan.outages[0].start_us, 100.0);
  EXPECT_DOUBLE_EQ(plan.outages[0].end_us, 250.5);
  ASSERT_EQ(plan.growths.size(), 1u);
  EXPECT_EQ(plan.growths[0].device, 1u);
  EXPECT_DOUBLE_EQ(plan.growths[0].time_us, 300.0);
  EXPECT_EQ(plan.growths[0].qubits, (std::vector<chimera::Qubit>{5, 6, 7}));
  EXPECT_DOUBLE_EQ(plan.anneal_failure_prob, 0.25);
  EXPECT_DOUBLE_EQ(plan.readout_failure_prob, 0.1);
  EXPECT_FALSE(plan.empty());
  plan.validate(2);

  // Unknown directives fail with the file position in the message.
  {
    std::ofstream out(path);
    out << "seed 1\nfrobnicate 2 3\n";
  }
  try {
    fault::load_fault_plan(path);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& err) {
    EXPECT_NE(std::string(err.what()).find(":2:"), std::string::npos)
        << err.what();
  }
  // Truncated directives fail too, and so does any token a directive leaves
  // unread — trailing, glued onto a number, or breaking a qubit list.
  for (const char* line : {"outage 0 100", "outage 0 100 250 300",
                           "annealfail 0.25x", "defects 1 300 5 6 x7",
                           "seed 42 43"}) {
    {
      std::ofstream out(path);
      out << "readoutfail 0.1\n" << line << "\n";
    }
    try {
      fault::load_fault_plan(path);
      ADD_FAILURE() << "accepted '" << line << "'";
    } catch (const InvalidArgument& err) {
      EXPECT_NE(std::string(err.what()).find(":2:"), std::string::npos)
          << err.what();
    }
  }
  EXPECT_THROW(fault::load_fault_plan(path + ".does-not-exist"),
               InvalidArgument);
}

TEST(FaultPlanTest, StormPlanIsDeterministicAndSchedulesRequestedDowntime) {
  constexpr std::size_t kDevices = 3;
  constexpr double kHorizon = 50000.0;
  const fault::FaultPlan a =
      fault::storm_plan(kDevices, kHorizon, 0.25, 400.0, 0xBAD);
  const fault::FaultPlan b =
      fault::storm_plan(kDevices, kHorizon, 0.25, 400.0, 0xBAD);
  ASSERT_EQ(a.outages.size(), b.outages.size());
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].device, b.outages[i].device);
    EXPECT_DOUBLE_EQ(a.outages[i].start_us, b.outages[i].start_us);
    EXPECT_DOUBLE_EQ(a.outages[i].end_us, b.outages[i].end_us);
  }
  a.validate(kDevices);
  for (const fault::OutageWindow& w : a.outages) {
    EXPECT_LT(w.start_us, kHorizon);
    EXPECT_LE(w.end_us, kHorizon);  // clipped at the horizon
  }
  // The realized downtime fraction lands near the request (exponential
  // up/down cycles; wide tolerance, zero would mean the synthesis is broken).
  double down = 0.0;
  for (std::size_t d = 0; d < kDevices; ++d)
    down += fault::scheduled_downtime_us(a, d, kHorizon);
  const double fraction = down / (kDevices * kHorizon);
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.45);
  // A different seed reshuffles the storm.
  const fault::FaultPlan c =
      fault::storm_plan(kDevices, kHorizon, 0.25, 400.0, 0xF00D);
  ASSERT_FALSE(c.outages.empty());
  EXPECT_TRUE(a.outages.size() != c.outages.size() ||
              a.outages[0].start_us != c.outages[0].start_us);

  EXPECT_THROW(fault::storm_plan(0, kHorizon, 0.25, 400.0, 1),
               InvalidArgument);
  EXPECT_THROW(fault::storm_plan(1, kHorizon, 0.0, 400.0, 1), InvalidArgument);
  EXPECT_THROW(fault::storm_plan(1, kHorizon, 1.0, 400.0, 1), InvalidArgument);
  EXPECT_THROW(fault::storm_plan(1, -1.0, 0.25, 400.0, 1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Serving under faults.

TEST(FaultServeTest, ZeroFaultPlanIsByteIdenticalToNoPlan) {
  serve::LoadGenerator gen(bpsk8_load(60.0), 0xFA01);
  const std::vector<serve::CellJob> jobs = gen.open_loop(30);

  // A plan whose only event sits far past the workload: the fault machinery
  // is armed (events queue, per-wave failure pre-decision runs) but nothing
  // ever fires — the decode streams, timeline, and digest must not move.
  auto far_future = std::make_shared<fault::FaultPlan>();
  far_future->outages = {{0, 1.0e9, 1.0e9 + 100.0}};

  for (const std::size_t devices : {std::size_t{1}, std::size_t{2}}) {
    std::string reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (int variant = 0; variant < 3; ++variant) {
        serve::ServiceConfig cfg = fast_service(threads);
        cfg.num_devices = devices;
        if (variant == 1) {
          cfg.fault = std::make_shared<fault::FaultPlan>();  // empty plan
          cfg.max_retries = 5;  // retry knobs are inert without failures
          cfg.retry_backoff_us = 7.0;
        } else if (variant == 2) {
          cfg.fault = far_future;
        }
        const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);
        const std::string digest = report.stats.digest();
        if (reference.empty()) reference = digest;
        EXPECT_EQ(digest, reference)
            << "devices=" << devices << " threads=" << threads
            << " variant=" << variant;
        EXPECT_EQ(report.stats.retries(), 0u);
        EXPECT_EQ(report.stats.fallbacks(), 0u);
        EXPECT_EQ(report.stats.failed(), 0u);
        EXPECT_EQ(report.stats.failed_waves(), 0u);
        // The digest must not even mention the fault block.
        EXPECT_EQ(digest.find("retries="), std::string::npos);
      }
    }
  }
}

TEST(FaultServeTest, RetryBudgetIsExactThenFallback) {
  serve::LoadGenerator gen(bpsk8_load(60.0, 1.0e6), 0xFA02);
  const std::vector<serve::CellJob> jobs = gen.open_loop(12);

  serve::ServiceConfig cfg = fast_service();
  cfg.fault = always_fail_plan();
  cfg.max_retries = 2;
  cfg.retry_backoff_us = 5.0;
  cfg.fallback = fault::FallbackMode::kZf;
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (const serve::JobRecord& record : report.jobs) {
    // Every job burns exactly max_retries + 1 failed attempts, then the
    // classical ladder serves it (deadlines are huge — slack never vetoes).
    EXPECT_EQ(record.retries, cfg.max_retries + 1);
    EXPECT_TRUE(record.fallback);
    EXPECT_FALSE(record.failed);
    EXPECT_FALSE(record.dropped);
    EXPECT_FALSE(record.ground_state);
    EXPECT_GT(record.num_bits, 0u);
  }
  EXPECT_EQ(report.stats.fallbacks(), jobs.size());
  EXPECT_EQ(report.stats.failed(), 0u);
  EXPECT_EQ(report.stats.retries(), jobs.size() * (cfg.max_retries + 1));
  // No wave ever produced samples: only failed waves, no annealed bits.
  EXPECT_EQ(report.stats.waves(), 0u);
  EXPECT_GE(report.stats.failed_waves(), cfg.max_retries + 1);
  EXPECT_EQ(report.stats.total_bits(), 0u);
  EXPECT_GT(report.stats.fallback_bits(), 0u);

  // Bit-identical at any thread count, including the fault counters.
  serve::ServiceConfig threaded = cfg;
  threaded.num_threads = 4;
  EXPECT_EQ(serve::DecodeService(threaded).run(jobs).stats.digest(),
            report.stats.digest());
}

TEST(FaultServeTest, ExhaustedBudgetWithoutFallbackIsTerminalFailure) {
  serve::LoadGenerator gen(bpsk8_load(60.0, 1.0e6), 0xFA03);
  const std::vector<serve::CellJob> jobs = gen.open_loop(8);

  serve::ServiceConfig cfg = fast_service();
  cfg.fault = always_fail_plan();
  cfg.max_retries = 1;
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (const serve::JobRecord& record : report.jobs) {
    EXPECT_EQ(record.retries, cfg.max_retries + 1);
    EXPECT_TRUE(record.failed);
    EXPECT_FALSE(record.fallback);
    EXPECT_TRUE(record.missed_deadline());  // failed == missed by definition
    EXPECT_EQ(record.num_bits, 0u);
  }
  EXPECT_EQ(report.stats.failed(), jobs.size());
  EXPECT_EQ(report.stats.fallbacks(), 0u);
  EXPECT_DOUBLE_EQ(report.stats.miss_rate(), 1.0);
}

TEST(FaultServeTest, FallbackBerMatchesDirectClassicalDecode) {
  serve::LoadConfig load = bpsk8_load(60.0, 1.0e6);
  load.problem.snr_db = 4.0;      // noisy uplink: ZF and MMSE differ
  load.downlink_fraction = 0.5;   // exercise the precoding branch too
  serve::LoadGenerator gen(load, 0xFA04);
  const std::vector<serve::CellJob> jobs = gen.open_loop(16);
  std::map<std::size_t, const serve::CellJob*> by_id;
  for (const serve::CellJob& job : jobs) by_id[job.id] = &job;

  for (const fault::FallbackMode mode :
       {fault::FallbackMode::kZf, fault::FallbackMode::kMmse}) {
    serve::ServiceConfig cfg = fast_service();
    cfg.fault = always_fail_plan();
    cfg.fallback = mode;
    const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

    std::size_t uplinks = 0, downlinks = 0;
    for (const serve::JobRecord& record : report.jobs) {
      ASSERT_TRUE(record.fallback);
      (record.direction == serve::Direction::kUplink ? uplinks : downlinks)++;
      const fault::ClassicalDecode direct =
          fault::classical_decode(*by_id.at(record.job_id), mode);
      EXPECT_EQ(record.bit_errors, direct.bit_errors)
          << "job " << record.job_id;
      EXPECT_EQ(record.num_bits, direct.num_bits) << "job " << record.job_id;
    }
    EXPECT_GT(uplinks, 0u);
    EXPECT_GT(downlinks, 0u);
    // The split lands in the fallback aggregates, not the annealed BER.
    EXPECT_EQ(report.stats.total_bits(), 0u);
    EXPECT_EQ(report.stats.fallbacks(), jobs.size());
  }
  // classical_decode itself refuses the "none" mode.
  EXPECT_THROW(fault::classical_decode(jobs[0], fault::FallbackMode::kNone),
               InvalidArgument);
}

TEST(FaultServeTest, OutageWindowsDeferDispatchAndAbortInFlightWaves) {
  serve::LoadGenerator gen(bpsk8_load(100.0, 1.0e6), 0xFA05);
  const std::vector<serve::CellJob> jobs = gen.open_loop(20);

  auto plan = std::make_shared<fault::FaultPlan>();
  plan->outages = {{0, 200.0, 900.0}};
  serve::ServiceConfig cfg = fast_service();
  cfg.fault = plan;
  cfg.packing = false;   // one job per wave: the queue stays busy past t=200
  cfg.max_retries = 10;  // outage-aborted members always have budget
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  std::size_t failed_waves = 0, failed_members = 0;
  for (const serve::Wave& wave : report.waves) {
    if (wave.failed) {
      ++failed_waves;
      failed_members += wave.jobs.size();
      // An aborted wave dies exactly when the outage catches it.
      EXPECT_DOUBLE_EQ(wave.fail_us, std::max(wave.dispatch_us, 200.0));
      EXPECT_LE(wave.fail_us, wave.completion_us);
    } else {
      // A surviving wave NEVER overlaps the outage window of its device.
      EXPECT_TRUE(wave.completion_us <= 200.0 || wave.dispatch_us >= 900.0)
          << "wave " << wave.id << " [" << wave.dispatch_us << ", "
          << wave.completion_us << "]";
    }
  }
  EXPECT_GT(failed_waves, 0u);
  EXPECT_EQ(report.stats.failed_waves(), failed_waves);
  EXPECT_EQ(report.stats.retries(), failed_members);

  // Retries absorb every abort: all jobs are eventually annealed and served.
  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (const serve::JobRecord& record : report.jobs) {
    EXPECT_FALSE(record.failed);
    EXPECT_FALSE(record.fallback);
    EXPECT_FALSE(record.dropped);
    EXPECT_FALSE(record.missed_deadline());
    // The final (successful) attempt also avoided the window.
    EXPECT_TRUE(record.completion_us <= 200.0 || record.dispatch_us >= 900.0);
  }

  EXPECT_EQ(serve::DecodeService([&] {
              serve::ServiceConfig threaded = cfg;
              threaded.num_threads = 4;
              return threaded;
            }())
                .run(jobs)
                .stats.digest(),
            report.stats.digest());
}

// The timeline's outage start/end events steer dispatch, not only tracing:
// an idle device wakes at an outage start and is re-queued at the outage's
// end, which changes device tie-breaking.  Here device 0 goes idle at 30,
// wakes at the outage start (100) and is re-queued at 200, while device 1
// idles from 40; the job at 300 therefore goes to device 1.  Without the
// events device 0 would still sit at 30 and take it.
TEST(FaultServeTest, OutageEventsRequeueAnIdleDeviceAtTheWindowEnd) {
  serve::LoadGenerator gen(bpsk8_load(60.0, 1.0e6), 0xFA08);
  std::vector<serve::CellJob> jobs = gen.open_loop(3);
  const double arrivals[] = {0.0, 10.0, 300.0};
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].arrival_us = arrivals[i];

  auto plan = std::make_shared<fault::FaultPlan>();
  plan->outages = {{0, 100.0, 200.0}};
  serve::ServiceConfig cfg = fast_service();
  cfg.num_devices = 2;
  cfg.fault = plan;
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  ASSERT_EQ(report.waves.size(), 3u);
  EXPECT_EQ(report.waves[0].device, 0u);
  EXPECT_EQ(report.waves[1].device, 1u);
  EXPECT_EQ(report.waves[2].device, 1u);
  EXPECT_EQ(report.waves[2].dispatch_us, 300.0);
}

// A wave can abort at its own dispatch instant: device 1 forms it at 0 for
// a job arriving at 50, and its outage starts at 30.  Device 0 jumps to 50
// and takes the first job (one job per wave); device 1, still at 0, waves
// the second for 50 and loses it at 50.  The job is re-queued (backoff 0)
// and swept at 80, past its deadline.  The derived trace logs the retry
// and a queue drop, not a mid-flight end -- also were the sweep to shed the
// job at the abort instant itself, where its record's dispatch and
// completion equal the wave's.  Only the failed-wave ladder ends a job
// mid-flight, and the ladder never drops.
TEST(FaultServeTest, WaveAbortedAtItsDispatchRetriesThenDrops) {
  serve::LoadGenerator gen(bpsk8_load(60.0), 0xFA0D);
  std::vector<serve::CellJob> jobs = gen.open_loop(2);
  for (serve::CellJob& job : jobs) job.arrival_us = 50.0;
  jobs[0].deadline_us = 1000.0;
  jobs[1].deadline_us = 100.0;

  auto plan = std::make_shared<fault::FaultPlan>();
  plan->outages = {{1, 30.0, 80.0}};
  serve::ServiceConfig cfg = fast_service();
  cfg.num_devices = 2;
  cfg.fault = plan;
  cfg.max_retries = 1;
  cfg.drop_late = true;
  cfg.max_wave_jobs = 1;
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  ASSERT_EQ(report.waves.size(), 2u);
  const serve::Wave& aborted = report.waves[1];
  EXPECT_EQ(aborted.device, 1u);
  EXPECT_TRUE(aborted.failed);
  EXPECT_EQ(aborted.dispatch_us, 50.0);
  EXPECT_EQ(aborted.fail_us, 50.0);
  const serve::JobRecord& record = report.jobs[1];
  EXPECT_TRUE(record.dropped);
  EXPECT_EQ(record.wave_id, 1u);
  EXPECT_EQ(record.completion_us, 80.0);
  EXPECT_EQ(record.retries, 1u);

  const auto check = [&](const std::vector<serve::JobRecord>& records,
                         double drop_us) {
    const obs::TraceLog trace = serve::trace_log(serve::scheduler_config(cfg),
                                                 records, report.waves);
    ASSERT_EQ(trace.retries.size(), 1u);
    EXPECT_EQ(trace.retries[0].job_id, jobs[1].id);
    EXPECT_EQ(trace.retries[0].wave_id, 1u);
    EXPECT_EQ(trace.retries[0].fail_us, 50.0);
    EXPECT_EQ(trace.retries[0].ready_us, 50.0);
    EXPECT_EQ(trace.retries[0].retry, 1);
    ASSERT_EQ(trace.drops.size(), 1u);
    EXPECT_EQ(trace.drops[0].drop_us, drop_us);
    EXPECT_FALSE(trace.drops[0].mid_flight);
  };
  check(report.jobs, 80.0);
  std::vector<serve::JobRecord> swept_at_abort = report.jobs;
  swept_at_abort[1].dispatch_us = swept_at_abort[1].completion_us = 50.0;
  check(swept_at_abort, 50.0);

  // The same instants on a terminal failure are the ladder's mid-flight end.
  std::vector<serve::JobRecord> failed_mid_flight = swept_at_abort;
  failed_mid_flight[1].dropped = false;
  failed_mid_flight[1].failed = true;
  const obs::TraceLog trace = serve::trace_log(
      serve::scheduler_config(cfg), failed_mid_flight, report.waves);
  EXPECT_TRUE(trace.retries.empty());
  ASSERT_EQ(trace.drops.size(), 1u);
  EXPECT_TRUE(trace.drops[0].mid_flight);
}

TEST(FaultServeTest, DefectGrowthStrandsShapeAndFallbackServesIt) {
  serve::LoadGenerator gen(bpsk8_load(30.0), 0xFA06);
  const std::vector<serve::CellJob> jobs = gen.open_loop(30);

  // Stride-2 dead rows leave no two consecutive cell rows: shape 8 stops
  // embedding anywhere on the chip after the growth fires at t = 500.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->growths = {
      {0, 500.0, sched::dead_row_fault_map(chimera::ChimeraGraph(), 2)}};
  serve::ServiceConfig cfg = fast_service();
  cfg.fault = plan;
  cfg.fallback = fault::FallbackMode::kZf;
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  ASSERT_EQ(report.jobs.size(), jobs.size());
  std::size_t annealed = 0;
  for (const serve::JobRecord& record : report.jobs) {
    EXPECT_FALSE(record.failed);
    EXPECT_FALSE(record.dropped);
    if (!record.fallback) {
      ++annealed;
      // Only pre-growth waves anneal; anything in flight at t = 500 aborted
      // and everything later cannot embed.
      EXPECT_LE(record.completion_us, 500.0);
    }
  }
  EXPECT_GT(annealed, 0u);
  EXPECT_GT(report.stats.fallbacks(), 0u);
  EXPECT_EQ(annealed + report.stats.fallbacks(), jobs.size());
  // Without a plan the same growth topology would reject at submit; with
  // the plan every job is accounted for instead.
  EXPECT_EQ(report.stats.failed(), 0u);
}

TEST(FaultServeTest, JobStrandedByAGrowthBeforeItsArrivalEndsAtSubmit) {
  // The growth at 100 us strands shape 16 (8-user QPSK) on the only
  // device.  The job arriving at 200 us is unservable once submit() has
  // applied the fault timeline up to its arrival, so it ends right there
  // and a collect() at the new clock returns it.
  serve::LoadConfig load = bpsk8_load(30.0);
  load.problem.mod = wireless::Modulation::kQpsk;
  serve::CellJob job = serve::LoadGenerator(load, 0x57A4D).open_loop(1)[0];
  job.arrival_us = 200.0;
  job.deadline_us = 1200.0;
  ASSERT_EQ(job.shape(), 16u);
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->growths = {
      {0, 100.0, sched::dead_row_fault_map(chimera::ChimeraGraph(), 4)}};
  for (const fault::FallbackMode mode :
       {fault::FallbackMode::kZf, fault::FallbackMode::kNone}) {
    serve::ServiceConfig cfg = fast_service();
    cfg.fault = plan;
    cfg.fallback = mode;
    sched::Scheduler scheduler(serve::scheduler_config(cfg));
    const std::size_t seq = scheduler.submit(job);
    EXPECT_EQ(scheduler.collect(scheduler.now_us()),
              std::vector<std::size_t>{seq})
        << fault::to_string(mode);
    const serve::JobRecord& record = scheduler.records()[seq];
    EXPECT_EQ(record.completion_us, 200.0) << fault::to_string(mode);
    EXPECT_EQ(record.fallback, mode == fault::FallbackMode::kZf);
    EXPECT_EQ(record.failed, mode == fault::FallbackMode::kNone);
  }
}

TEST(FaultServeTest, JobStrandedByAGrowthAtItsArrivalEndsAtSubmit) {
  // As above with the growth at exactly the arrival instant: submit()
  // applies every growth at or before the arrival, so the job still ends
  // inside submit() and a collect() at the new clock returns it.
  serve::LoadConfig load = bpsk8_load(30.0);
  load.problem.mod = wireless::Modulation::kQpsk;
  serve::CellJob job = serve::LoadGenerator(load, 0x57A4D).open_loop(1)[0];
  job.arrival_us = 200.0;
  job.deadline_us = 1200.0;
  ASSERT_EQ(job.shape(), 16u);
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->growths = {
      {0, 200.0, sched::dead_row_fault_map(chimera::ChimeraGraph(), 4)}};
  for (const fault::FallbackMode mode :
       {fault::FallbackMode::kZf, fault::FallbackMode::kNone}) {
    serve::ServiceConfig cfg = fast_service();
    cfg.fault = plan;
    cfg.fallback = mode;
    sched::Scheduler scheduler(serve::scheduler_config(cfg));
    const std::size_t seq = scheduler.submit(job);
    EXPECT_EQ(scheduler.collect(scheduler.now_us()),
              std::vector<std::size_t>{seq})
        << fault::to_string(mode);
    const serve::JobRecord& record = scheduler.records()[seq];
    EXPECT_EQ(record.completion_us, 200.0) << fault::to_string(mode);
    EXPECT_EQ(record.fallback, mode == fault::FallbackMode::kZf);
    EXPECT_EQ(record.failed, mode == fault::FallbackMode::kNone);
  }
}

TEST(FaultServeTest, GrowthQubitOutsideTheChipIsRejectedBeforeDispatch) {
  // A growth far past the last job never fires, but its qubit id is still
  // checked against the chip before anything is served.
  const std::string path = testing::TempDir() + "quamax_bad_growth_plan.txt";
  {
    std::ofstream out(path);
    out << "outage 0 10 20\ndefects 0 1e9 99999\n";
  }
  serve::LoadGenerator gen(bpsk8_load(60.0), 0xFA07);
  serve::ServiceConfig cfg = fast_service();
  cfg.fault = std::make_shared<fault::FaultPlan>(fault::load_fault_plan(path));
  try {
    serve::DecodeService(cfg).run(gen.open_loop(8));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& err) {
    EXPECT_NE(std::string(err.what()).find("growth 0"), std::string::npos)
        << err.what();
  }
}

// The ladder's virtual-clock timeline, pinned by hash: outage union and
// adjacency, growth stranding shape 16, anneal/readout aborts, retries with
// backoff and the ZF fallback.  The hash was recorded before the fault
// timeline moved out of the scheduler; it must never need editing for a
// refactor.
TEST(FaultServeTest, LadderTimelineWithFallbackIsPinned) {
  const std::vector<serve::CellJob> jobs = ladder_jobs(1000.0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    serve::ServiceConfig cfg = fast_service(threads);
    cfg.num_devices = 2;
    cfg.fault = ladder_plan();
    cfg.max_retries = 2;
    cfg.retry_backoff_us = 5.0;
    cfg.fallback = fault::FallbackMode::kZf;
    const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);
    const obs::TraceLog trace = serve::trace_log(
        serve::scheduler_config(cfg), report.jobs, report.waves);
    EXPECT_GT(report.stats.retries(), 0u);
    EXPECT_GT(report.stats.fallbacks(), 0u);
    EXPECT_GT(report.stats.failed_waves(), 0u);
    EXPECT_EQ(report.stats.failed(), 0u);
    EXPECT_EQ(timeline_hash(report, trace), "731a704882ebe67a")
        << "threads=" << threads;
  }
}

// Same plan with no fallback and drop_late on: doomed jobs drop, exhausted
// and stranded jobs fail terminally.
TEST(FaultServeTest, LadderTimelineWithDropLateIsPinned) {
  const std::vector<serve::CellJob> jobs = ladder_jobs(90.0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    serve::ServiceConfig cfg = fast_service(threads);
    cfg.num_devices = 2;
    cfg.fault = ladder_plan();
    cfg.queue_policy = sched::QueuePolicy::kEdf;
    cfg.max_retries = 1;
    cfg.retry_backoff_us = 5.0;
    cfg.drop_late = true;
    const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);
    const obs::TraceLog trace = serve::trace_log(
        serve::scheduler_config(cfg), report.jobs, report.waves);
    EXPECT_GT(report.stats.retries(), 0u);
    EXPECT_GT(report.stats.drops(), 0u);
    EXPECT_GT(report.stats.failed(), 0u);
    EXPECT_EQ(report.stats.fallbacks(), 0u);
    EXPECT_EQ(timeline_hash(report, trace), "26f5e8afccfe2759")
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace quamax
