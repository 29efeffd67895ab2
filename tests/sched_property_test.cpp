// Spec-driven property harness for the scheduler (ISSUE 6, carried ROADMAP
// item): the async==batch contract must hold on EVERY schedule, not just
// the handful of hand-picked workloads in sched_test.cpp.
//
// Each trial derives a random scenario from its own counter stream —
// arrival process and rate, job count, full-duplex mix, queue policy,
// device pool (including defect-sharded devices that force shape routing),
// packing/capping/drop-late knobs, coherent arrivals with warm-start
// serving (ISSUE 7: half the trials draw LoadConfig::coherence > 0 and
// turn on warm_start with a random quota cut and reverse depth), and a
// random submit/collect cadence — then checks, against a batch
// DecodeService run of the same workload:
//
//   * per-sequence records are bit-identical (field by field);
//   * every job completes exactly once, collect(now) never delivers early
//     (completion_us <= the clock at delivery), and completions arrive
//     ordered by (completion time, sequence);
//   * the async run's wave log equals the batch run's wave log.
//
// The trial parameters are drawn ONCE per trial id, so a failure reproduces
// from its seed alone.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/fault/plan.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"

namespace quamax {
namespace {

struct Scenario {
  serve::LoadConfig load;
  serve::ServiceConfig service;
  std::size_t num_jobs = 0;
  std::size_t poll_modulus = 1;  ///< poll after every k-th submit
  bool poll_randomly = false;    ///< instead: coin-flip per submit
};

/// Scenario `trial` — a pure function of the trial id.
Scenario draw_scenario(std::size_t trial) {
  Rng rng = Rng::for_stream(0x5C8ED, trial);
  Scenario s;

  // Workload: arrival process, rate, mix, deadlines.
  s.load.arrivals = rng.coin() ? serve::ArrivalKind::kPoisson
                               : serve::ArrivalKind::kSubframe;
  s.load.offered_load_jobs_per_ms = rng.uniform(5.0, 120.0);
  s.load.subframe_period_us = rng.uniform(100.0, 600.0);
  s.load.users = 2 + rng.uniform_index(7);
  s.load.deadline_us = rng.uniform(150.0, 1500.0);
  s.load.problem.users = 8;
  s.load.problem.mod = wireless::Modulation::kBpsk;
  s.load.problem.kind = wireless::ChannelKind::kRandomPhase;
  s.load.problem.snr_db = std::nullopt;
  const double mixes[] = {0.0, 0.3, 1.0};
  s.load.downlink_fraction = mixes[rng.uniform_index(3)];
  s.load.downlink.users = 4;
  s.load.downlink.antennas = 4;
  s.load.downlink.mod = wireless::Modulation::kQpsk;
  s.load.downlink.snr_db = 14.0;
  s.load.downlink_deadline_us = rng.uniform(100.0, 900.0);
  s.num_jobs = 12 + rng.uniform_index(24);

  // Service: devices, policy, packing, admission.
  s.service.annealer.schedule.anneal_time_us = 1.0;
  s.service.annealer.schedule.pause_time_us = 0.0;
  s.service.annealer.batch_replicas = 1 + rng.uniform_index(8);
  s.service.num_anneals = 4 + rng.uniform_index(12);
  s.service.num_threads = 1 + rng.uniform_index(4);
  s.service.packing = rng.coin();
  s.service.max_wave_jobs = rng.coin() ? 0 : 1 + rng.uniform_index(4);
  s.service.drop_late = rng.coin();
  s.service.program_overhead_us = rng.uniform(0.0, 25.0);
  const std::size_t num_devices = 1 + rng.uniform_index(3);
  s.service.device_specs =
      sched::uniform_devices(s.service.annealer, num_devices);
  if (num_devices > 1 && rng.coin()) {
    // Shard one device: stride-4 dead rows keep shape 8 but reject shape
    // 16, forcing the shape-aware routing paths in mixed-direction trials.
    s.service.device_specs[num_devices - 1].disabled =
        sched::dead_row_fault_map(chimera::ChimeraGraph(), 4);
  }

  // Poll cadence.
  s.poll_randomly = rng.coin();
  s.poll_modulus = 1 + rng.uniform_index(7);

  // Coherent warm-start episodes (ISSUE 7).  Drawn after the base scenario
  // so the stream up to here reproduces the pre-warm-start trials
  // bit-for-bit.
  if (rng.coin()) {
    s.load.coherence = rng.uniform(0.5, 0.95);
    s.service.warm_start = true;
    s.service.warm_num_anneals = 1 + rng.uniform_index(s.service.num_anneals);
    s.service.warm_reverse_depth = rng.uniform(0.5, 0.9);
  }

  // Fault episodes (ISSUE 9).  Drawn LAST — the same bit-compat rule: every
  // pre-fault trial reproduces unchanged, and the async==batch contract is
  // now exercised under outages, injected wave failures, defect growth, and
  // the retry/fallback ladder at every cadence x policy x device count.
  if (rng.coin()) {
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->seed = 0xFA0 + trial;
    const std::size_t windows = rng.uniform_index(3);  // 0-2 outage windows
    for (std::size_t w = 0; w < windows; ++w) {
      fault::OutageWindow window;
      window.device = rng.uniform_index(num_devices);
      window.start_us = rng.uniform(0.0, 2000.0);
      window.end_us = window.start_us + rng.uniform(50.0, 800.0);
      plan->outages.push_back(window);
    }
    if (rng.coin()) plan->anneal_failure_prob = rng.uniform(0.05, 0.4);
    if (rng.coin()) plan->readout_failure_prob = rng.uniform(0.05, 0.3);
    if (num_devices > 1 && rng.coin()) {
      // Mid-run defect growth on the last device (the one the sharding
      // branch above may already have degraded): a full dead row exercises
      // cache invalidation without necessarily killing every shape.
      fault::DefectGrowth growth;
      growth.device = num_devices - 1;
      growth.time_us = rng.uniform(100.0, 1500.0);
      growth.qubits = sched::dead_row_fault_map(
          chimera::ChimeraGraph(), 7 + rng.uniform_index(5));
      plan->growths.push_back(growth);
    }
    s.service.fault = plan;
    s.service.max_retries = rng.uniform_index(3);
    s.service.retry_backoff_us = rng.uniform(0.0, 40.0);
    const fault::FallbackMode fallbacks[] = {fault::FallbackMode::kNone,
                                             fault::FallbackMode::kZf,
                                             fault::FallbackMode::kMmse};
    s.service.fallback = fallbacks[rng.uniform_index(3)];
  }
  return s;
}

sched::SchedConfig sched_config_of(const Scenario& s) {
  sched::SchedConfig cfg;
  cfg.annealer = s.service.annealer;
  cfg.devices = s.service.device_specs;
  cfg.policy = s.service.queue_policy;
  cfg.num_anneals = s.service.num_anneals;
  cfg.program_overhead_us = s.service.program_overhead_us;
  cfg.packing = s.service.packing;
  cfg.max_wave_jobs = s.service.max_wave_jobs;
  cfg.drop_late = s.service.drop_late;
  cfg.num_threads = s.service.num_threads;
  cfg.seed = s.service.seed;
  cfg.warm_start = s.service.warm_start;
  cfg.warm_reverse_depth = s.service.warm_reverse_depth;
  cfg.warm_num_anneals = s.service.warm_num_anneals;
  cfg.fault = s.service.fault;
  cfg.max_retries = s.service.max_retries;
  cfg.retry_backoff_us = s.service.retry_backoff_us;
  cfg.fallback = s.service.fallback;
  return cfg;
}

bool records_equal(const serve::JobRecord& a, const serve::JobRecord& b) {
  return a.job_id == b.job_id && a.user == b.user &&
         a.direction == b.direction && a.wave_id == b.wave_id &&
         a.arrival_us == b.arrival_us && a.dispatch_us == b.dispatch_us &&
         a.completion_us == b.completion_us && a.deadline_us == b.deadline_us &&
         a.dropped == b.dropped && a.retries == b.retries &&
         a.fallback == b.fallback && a.failed == b.failed &&
         a.bit_errors == b.bit_errors && a.num_bits == b.num_bits &&
         a.ground_state == b.ground_state;
}

bool waves_equal(const serve::Wave& a, const serve::Wave& b) {
  return a.id == b.id && a.shape == b.shape && a.jobs == b.jobs &&
         a.dispatch_us == b.dispatch_us && a.completion_us == b.completion_us &&
         a.device == b.device && a.warm == b.warm && a.seeds == b.seeds &&
         a.failed == b.failed && a.fail_us == b.fail_us;
}

void run_trial(std::size_t trial, sched::QueuePolicy policy) {
  Scenario s = draw_scenario(trial);
  s.service.queue_policy = policy;
  const std::uint64_t workload_seed = 0x10AD + trial;

  // Reference: the batch service run of the exact same workload.
  serve::LoadGenerator batch_gen(s.load, workload_seed);
  const serve::ServiceReport batch =
      serve::DecodeService(s.service).run(batch_gen.open_loop(s.num_jobs));

  // Async: stream the workload through a Scheduler at the drawn cadence.
  serve::LoadGenerator async_gen(s.load, workload_seed);
  std::vector<serve::CellJob> jobs = async_gen.open_loop(s.num_jobs);
  Rng cadence = Rng::for_stream(0xCADE, trial);

  sched::Scheduler scheduler(sched_config_of(s));
  std::map<std::size_t, serve::JobRecord> delivered;
  std::vector<std::pair<double, std::size_t>> delivery_order;
  const auto collect = [&](double clock_us) {
    for (const std::size_t seq : scheduler.collect(clock_us)) {
      const serve::JobRecord& record = scheduler.records()[seq];
      EXPECT_TRUE(delivered.emplace(seq, record).second)
          << "trial " << trial << ": seq " << seq << " delivered twice";
      EXPECT_LE(record.completion_us, clock_us)
          << "trial " << trial << ": completion delivered before it was due";
      delivery_order.emplace_back(record.completion_us, seq);
    }
  };

  std::size_t submitted = 0;
  for (serve::CellJob& job : jobs) {
    scheduler.submit(std::move(job));
    ++submitted;
    const bool poll_now = s.poll_randomly
                              ? cadence.coin()
                              : (submitted % s.poll_modulus == 0);
    if (poll_now) collect(scheduler.now_us());
  }
  scheduler.finish();
  collect(std::numeric_limits<double>::infinity());

  // Exactly-once, ordered, and bit-identical to the batch run.
  ASSERT_EQ(delivered.size(), batch.jobs.size()) << "trial " << trial;
  for (const auto& [seq, record] : delivered)
    EXPECT_TRUE(records_equal(record, batch.jobs[seq]))
        << "trial " << trial << ": seq " << seq
        << " diverged from the batch run";
  for (std::size_t i = 1; i < delivery_order.size(); ++i)
    EXPECT_LE(delivery_order[i - 1], delivery_order[i])
        << "trial " << trial << ": completions out of (time, seq) order";

  const std::vector<serve::Wave>& async_waves = scheduler.waves();
  ASSERT_EQ(async_waves.size(), batch.waves.size()) << "trial " << trial;
  for (std::size_t w = 0; w < async_waves.size(); ++w)
    EXPECT_TRUE(waves_equal(async_waves[w], batch.waves[w]))
        << "trial " << trial << ": wave " << w << " diverged";
}

TEST(SchedPropertyTest, AsyncEqualsBatchOnRandomSchedulesFifo) {
  for (std::size_t trial = 0; trial < 4; ++trial)
    run_trial(trial, sched::QueuePolicy::kFifo);
}

TEST(SchedPropertyTest, AsyncEqualsBatchOnRandomSchedulesEdf) {
  for (std::size_t trial = 4; trial < 8; ++trial)
    run_trial(trial, sched::QueuePolicy::kEdf);
}

TEST(SchedPropertyTest, AsyncEqualsBatchOnRandomSchedulesSlack) {
  for (std::size_t trial = 8; trial < 12; ++trial)
    run_trial(trial, sched::QueuePolicy::kSlack);
}

}  // namespace
}  // namespace quamax
