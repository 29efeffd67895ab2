// quamax::sched — async scheduler, device sharding, and queue policies.
//
// The contracts under test (ISSUE 5):
//   * streaming a workload through Scheduler::submit/collect produces
//     records identical to the batch DecodeService run of the same
//     workload, and identical for ANY submit/collect interleaving;
//   * ServiceReport digests are bit-identical across --threads/--replicas
//     for every queue-policy x device-count combination;
//   * EDF dispatches by (deadline, submission seq); slack defers doomed
//     jobs behind feasible ones; FIFO preserves the PR-3 arrival order;
//   * shape-aware routing: a wave only lands on a device whose defect map
//     can embed its shape, and unroutable shapes are rejected at submit;
//   * DeviceSet keys embedding caches by topology: identical devices share
//     one cache, defect-distinct devices get their own.
//   * the served bytes — decode fields and the wave log — are pinned by
//     hash on cold, warm, downlink and fault-ladder workloads, at any lane
//     count and collect() cadence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "quamax/fault/plan.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/sched/policy.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
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

serve::ServiceConfig fast_service(std::size_t threads = 1,
                                  std::size_t replicas = 8) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = replicas;
  cfg.num_anneals = 20;
  cfg.num_threads = threads;
  cfg.program_overhead_us = 10.0;
  return cfg;
}

sched::SchedConfig fast_sched(std::size_t threads = 1) {
  const serve::ServiceConfig service = fast_service(threads);
  sched::SchedConfig cfg;
  cfg.annealer = service.annealer;
  cfg.num_anneals = service.num_anneals;
  cfg.program_overhead_us = service.program_overhead_us;
  cfg.num_threads = threads;
  cfg.seed = service.seed;
  return cfg;
}

/// Stride-4 dead rows: shape 16 (4 cell rows on the shore-4 chip) cannot
/// embed while shape 8 (2 rows) keeps half its tiling.
std::vector<chimera::Qubit> dead_row_map() {
  return sched::dead_row_fault_map(chimera::ChimeraGraph(), 4);
}

bool records_equal(const serve::JobRecord& a, const serve::JobRecord& b) {
  return a.job_id == b.job_id && a.user == b.user &&
         a.direction == b.direction && a.wave_id == b.wave_id &&
         a.arrival_us == b.arrival_us && a.dispatch_us == b.dispatch_us &&
         a.completion_us == b.completion_us && a.deadline_us == b.deadline_us &&
         a.dropped == b.dropped && a.bit_errors == b.bit_errors &&
         a.num_bits == b.num_bits && a.ground_state == b.ground_state;
}

constexpr double kEndOfStream = std::numeric_limits<double>::infinity();

TEST(SchedStreamTest, DrainMatchesBatchService) {
  serve::LoadGenerator gen(bpsk8_load(80.0), 0xA51);
  const std::vector<serve::CellJob> jobs = gen.open_loop(40);

  const serve::ServiceReport batch =
      serve::DecodeService(fast_service()).run(jobs);

  sched::Scheduler scheduler(fast_sched());
  for (const serve::CellJob& job : jobs) scheduler.submit(job);
  scheduler.finish();
  const std::vector<std::size_t> done = scheduler.collect(kEndOfStream);
  const std::vector<serve::JobRecord>& records = scheduler.records();

  ASSERT_EQ(done.size(), batch.jobs.size());
  // collect() orders by (completion, seq); per-seq records must match the
  // batch report's per-index records exactly.
  for (const std::size_t seq : done)
    EXPECT_TRUE(records_equal(records[seq], batch.jobs[seq])) << "seq " << seq;
  // Completion order is sorted by completion time.
  for (std::size_t i = 1; i < done.size(); ++i)
    EXPECT_LE(records[done[i - 1]].completion_us,
              records[done[i]].completion_us);
}

TEST(SchedStreamTest, CollectStreamsEachCompletionExactlyOnceAnyCadence) {
  serve::LoadGenerator gen(bpsk8_load(60.0), 0xA52);
  const std::vector<serve::CellJob> jobs = gen.open_loop(30);

  // Reference: drain only.
  sched::Scheduler lazy(fast_sched());
  for (const serve::CellJob& job : jobs) lazy.submit(job);
  lazy.finish();
  std::map<std::size_t, serve::JobRecord> reference;
  for (const std::size_t seq : lazy.collect(kEndOfStream))
    reference[seq] = lazy.records()[seq];

  // Eager driver: collect up to "now" after every submit.
  sched::Scheduler eager(fast_sched());
  std::map<std::size_t, serve::JobRecord> seen;
  const auto absorb = [&](const std::vector<std::size_t>& done) {
    for (const std::size_t seq : done) {
      EXPECT_EQ(seen.count(seq), 0u) << "duplicate completion";
      seen[seq] = eager.records()[seq];
    }
  };
  for (const serve::CellJob& job : jobs) {
    const double now = job.arrival_us;
    eager.submit(job);
    absorb(eager.collect(eager.now_us()));
    // collect(now) may only surface jobs completed by the clock.
    for (const auto& [seq, record] : seen)
      EXPECT_LE(record.completion_us, now);
  }
  eager.finish();
  absorb(eager.collect(kEndOfStream));

  ASSERT_EQ(seen.size(), reference.size());
  for (const auto& [seq, record] : reference)
    EXPECT_TRUE(records_equal(seen.at(seq), record)) << "seq " << seq;
}

TEST(SchedTest, ReportBitIdenticalAcrossThreadsReplicasForPolicyAndDevices) {
  serve::LoadGenerator gen(bpsk8_load(120.0, 400.0), 0xA53);
  const std::vector<serve::CellJob> jobs = gen.open_loop(36);

  for (const sched::QueuePolicy policy :
       {sched::QueuePolicy::kFifo, sched::QueuePolicy::kEdf,
        sched::QueuePolicy::kSlack}) {
    for (const std::size_t devices : {std::size_t{1}, std::size_t{2}}) {
      serve::ServiceConfig cfg = fast_service(1, 8);
      cfg.queue_policy = policy;
      cfg.num_devices = devices;
      const serve::ServiceReport baseline = serve::DecodeService(cfg).run(jobs);
      for (const auto& [threads, replicas] :
           std::vector<std::pair<std::size_t, std::size_t>>{{4, 8}, {2, 1}}) {
        serve::ServiceConfig other_cfg = fast_service(threads, replicas);
        other_cfg.queue_policy = policy;
        other_cfg.num_devices = devices;
        const serve::ServiceReport other =
            serve::DecodeService(other_cfg).run(jobs);
        EXPECT_EQ(baseline.stats.digest(), other.stats.digest())
            << sched::to_string(policy) << " devices=" << devices
            << " threads=" << threads << " replicas=" << replicas;
        ASSERT_EQ(baseline.jobs.size(), other.jobs.size());
        for (std::size_t j = 0; j < baseline.jobs.size(); ++j)
          EXPECT_TRUE(records_equal(baseline.jobs[j], other.jobs[j]));
      }
    }
  }
}

TEST(SchedTest, EdfDispatchesByDeadlineFifoByArrival) {
  // Six same-arrival jobs with descending deadlines on one unpacked device:
  // FIFO serves submission order, EDF the exact reverse.
  serve::LoadGenerator gen(bpsk8_load(10.0), 0xA54);
  std::vector<serve::CellJob> jobs;
  for (std::size_t k = 0; k < 6; ++k) {
    serve::CellJob job = gen.job(k, k % 8, 0.0);
    job.deadline_us = 1000.0 - 100.0 * static_cast<double>(k);
    jobs.push_back(std::move(job));
  }

  for (const bool edf : {false, true}) {
    serve::ServiceConfig cfg = fast_service();
    cfg.packing = false;
    cfg.queue_policy = edf ? sched::QueuePolicy::kEdf : sched::QueuePolicy::kFifo;
    const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);
    ASSERT_EQ(report.jobs.size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) {
      // Wave w dispatches at w * 30 us; EDF reverses the order.
      const std::size_t rank = edf ? 5 - k : k;
      EXPECT_DOUBLE_EQ(report.jobs[k].dispatch_us,
                       30.0 * static_cast<double>(rank))
          << (edf ? "edf" : "fifo") << " job " << k;
    }
  }
}

TEST(SchedTest, SlackDefersDoomedJobsEdfDoesNot) {
  // Job 0: earliest deadline but already unmeetable (budget < one service
  // time).  EDF still serves it first; slack defers it behind every
  // feasible job, so the feasible ones all meet their deadlines.
  // Job k (k >= 1) can make its deadline only from service slot k-1; the
  // doomed job's 30 us head start under EDF pushes each one slot too late.
  serve::LoadGenerator gen(bpsk8_load(10.0), 0xA55);
  std::vector<serve::CellJob> jobs;
  for (std::size_t k = 0; k < 4; ++k) {
    serve::CellJob job = gen.job(k, k % 8, 0.0);
    job.deadline_us = (k == 0) ? 20.0 : 10.0 + 30.0 * static_cast<double>(k);
    jobs.push_back(std::move(job));
  }

  serve::ServiceConfig edf_cfg = fast_service();
  edf_cfg.packing = false;
  edf_cfg.queue_policy = sched::QueuePolicy::kEdf;
  const serve::ServiceReport edf = serve::DecodeService(edf_cfg).run(jobs);
  EXPECT_DOUBLE_EQ(edf.jobs[0].dispatch_us, 0.0);  // doomed job served first
  // Its 30 us of service push every feasible job one slot too late.
  EXPECT_EQ(edf.stats.misses(), 4u);

  serve::ServiceConfig slack_cfg = edf_cfg;
  slack_cfg.queue_policy = sched::QueuePolicy::kSlack;
  const serve::ServiceReport slack = serve::DecodeService(slack_cfg).run(jobs);
  EXPECT_DOUBLE_EQ(slack.jobs[0].dispatch_us, 90.0);  // deferred to the back
  EXPECT_EQ(slack.stats.misses(), 1u);  // only the born-doomed job misses
  for (std::size_t k = 1; k < 4; ++k)
    EXPECT_FALSE(slack.jobs[k].missed_deadline()) << "job " << k;
}

TEST(SchedTest, ShapeAwareRoutingKeepsWavesOnEmbeddableDevices) {
  // Device 0 pristine, device 1 dead-row defective: shape 16 (QPSK) must
  // never land on device 1, shape 8 may use both.
  auto qpsk = bpsk8_load(100.0, 3000.0);
  qpsk.problem.mod = wireless::Modulation::kQpsk;
  serve::LoadGenerator bpsk_gen(bpsk8_load(100.0, 3000.0), 0xA56);
  serve::LoadGenerator qpsk_gen(qpsk, 0xA57);
  std::vector<serve::CellJob> jobs = bpsk_gen.open_loop(24);
  for (serve::CellJob& job : qpsk_gen.open_loop(24)) {
    job.id += 24;
    jobs.push_back(std::move(job));
  }

  serve::ServiceConfig cfg = fast_service();
  cfg.device_specs = {sched::DeviceSpec{},
                      sched::DeviceSpec{.disabled = dead_row_map()}};
  cfg.max_wave_jobs = 4;  // force enough waves that both devices get work
  const serve::ServiceReport report = serve::DecodeService(cfg).run(jobs);

  ASSERT_EQ(report.jobs.size(), 48u);
  std::set<std::size_t> devices_used;
  for (const serve::Wave& wave : report.waves) {
    devices_used.insert(wave.device);
    if (wave.shape == 16) {
      EXPECT_EQ(wave.device, 0u) << "wave " << wave.id;
    }
  }
  EXPECT_EQ(devices_used.size(), 2u) << "the defective device never served";
  // Decode quality holds on the defective chip too (noise-free BPSK).
  for (const serve::JobRecord& rec : report.jobs)
    EXPECT_EQ(rec.bit_errors, 0u) << "job " << rec.job_id;
}

TEST(SchedTest, SubmitRejectsShapeNoDeviceCanEmbed) {
  auto qpsk = bpsk8_load(10.0);
  qpsk.problem.mod = wireless::Modulation::kQpsk;
  serve::LoadGenerator gen(qpsk, 0xA58);

  sched::SchedConfig cfg = fast_sched();
  cfg.devices = {sched::DeviceSpec{.disabled = dead_row_map()}};
  sched::Scheduler scheduler(cfg);
  EXPECT_THROW(scheduler.submit(gen.job(0, 0, 0.0)), CapacityError);
}

TEST(SchedTest, SubmitRequiresMonotoneArrivals) {
  serve::LoadGenerator gen(bpsk8_load(10.0), 0xA59);
  sched::Scheduler scheduler(fast_sched());
  scheduler.submit(gen.job(0, 0, 100.0));
  EXPECT_THROW(scheduler.submit(gen.job(1, 1, 50.0)), InvalidArgument);
}

/// FNV-1a fingerprint of everything a scheduler serves: every JobRecord
/// field — the decode fields (bit_errors, num_bits, ground_state) included —
/// and the whole wave log (membership, warm seeds, timing, failures).
std::string served_hash(const sched::Scheduler& scheduler) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const char* format, auto... args) {
    char buf[256];
    const int n = std::snprintf(buf, sizeof buf, format, args...);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ull;
    }
  };
  for (const serve::JobRecord& r : scheduler.records())
    mix("J%zu u%zu %d w%zu a%.17g d%.17g c%.17g l%.17g %d%d%d r%zu "
        "e%zu/%zu g%d",
        r.job_id, r.user, static_cast<int>(r.direction), r.wave_id,
        r.arrival_us, r.dispatch_us, r.completion_us, r.deadline_us,
        int{r.dropped}, int{r.fallback}, int{r.failed}, r.retries,
        r.bit_errors, r.num_bits, int{r.ground_state});
  for (const serve::Wave& w : scheduler.waves()) {
    mix("W%zu s%zu D%zu d%.17g c%.17g m%d f%d %.17g:", w.id, w.shape, w.device,
        w.dispatch_us, w.completion_us, int{w.warm}, int{w.failed}, w.fail_us);
    for (const std::size_t seq : w.jobs) mix(" %zu", seq);
    for (const std::size_t seq : w.seeds) mix(" <%zu", seq);
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

/// Serves `jobs` through one Scheduler, run to completion.  With
/// `collect_every` > 0 the driver streams: collect(now) after every
/// `collect_every` submits, then finish() and collect(+inf); every job must
/// be delivered exactly once either way.
std::unique_ptr<sched::Scheduler> serve_all(
    const sched::SchedConfig& cfg, const std::vector<serve::CellJob>& jobs,
    std::size_t collect_every = 0) {
  auto scheduler = std::make_unique<sched::Scheduler>(cfg);
  std::vector<std::size_t> delivered;
  const auto take = [&delivered](const std::vector<std::size_t>& seqs) {
    delivered.insert(delivered.end(), seqs.begin(), seqs.end());
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    scheduler->submit(jobs[i]);
    if (collect_every > 0 && (i + 1) % collect_every == 0)
      take(scheduler->collect(scheduler->now_us()));
  }
  scheduler->finish();
  take(scheduler->collect(kEndOfStream));
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered.size(), jobs.size());
  for (std::size_t seq = 0; seq < delivered.size(); ++seq)
    EXPECT_EQ(delivered[seq], seq);
  return scheduler;
}

// Pins the served decode bytes — not just the timeline — on four workloads
// that together reach every decode path: cold packed waves on two devices,
// warm (reverse-annealed) waves at a cut quota, downlink VPP, and the fault
// ladder (defect growth mid-run, failed waves, retries, ZF fallback).  Each
// runs at 1 and 3 lanes; the warm workload also streams with a collect()
// every 3 submits.  Every run must reproduce the same hash.
TEST(SchedTest, DecodeRecordsArePinned) {
  // Checks every run of one workload against `expected` and returns the
  // one-lane drain-only run for workload-specific assertions.
  const auto check = [](const char* what, sched::SchedConfig cfg,
                        const std::vector<serve::CellJob>& jobs,
                        const char* expected, std::size_t collect_every = 0) {
    std::unique_ptr<sched::Scheduler> first;
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
      cfg.num_threads = lanes;
      std::unique_ptr<sched::Scheduler> run = serve_all(cfg, jobs);
      EXPECT_EQ(served_hash(*run), expected) << what << " lanes=" << lanes;
      if (collect_every > 0) {
        EXPECT_EQ(served_hash(*serve_all(cfg, jobs, collect_every)), expected)
            << what << " streamed lanes=" << lanes;
      }
      if (first == nullptr) first = std::move(run);
    }
    return first;
  };
  // How many waves / records of a finished run satisfy `predicate`.
  const auto waves_where = [](const sched::Scheduler& run, auto predicate) {
    return std::count_if(run.waves().begin(), run.waves().end(), predicate);
  };
  const auto records_where = [](const sched::Scheduler& run, auto predicate) {
    return std::count_if(run.records().begin(), run.records().end(),
                         predicate);
  };

  {
    serve::LoadConfig load = bpsk8_load(150.0, 3000.0);
    load.problem.mod = wireless::Modulation::kQpsk;
    load.problem.kind = wireless::ChannelKind::kRayleigh;
    load.problem.snr_db = 8.0;
    serve::LoadGenerator gen(load, 0xDEC1);
    sched::SchedConfig cfg = fast_sched();
    cfg.devices = sched::uniform_devices(cfg.annealer, 2);
    const auto run =
        check("cold qpsk", cfg, gen.open_loop(32), "00a64f28d6ada6ac");
    EXPECT_GT(waves_where(*run, [](const serve::Wave& w) {
                return w.device == 1;
              }), 0);
    EXPECT_GT(records_where(*run, [](const serve::JobRecord& r) {
                return r.bit_errors > 0;
              }), 0);
  }
  {
    serve::LoadConfig load;
    load.arrivals = serve::ArrivalKind::kSubframe;
    load.subframe_period_us = 200.0;
    load.users = 3;
    load.deadline_us = 1200.0;
    load.problem.users = 8;
    load.problem.mod = wireless::Modulation::kBpsk;
    load.problem.kind = wireless::ChannelKind::kRayleigh;
    load.problem.snr_db = 4.0;
    load.coherence = 0.9;
    serve::LoadGenerator gen(load, 0xDEC2);
    sched::SchedConfig cfg = fast_sched();
    cfg.num_anneals = 16;
    cfg.warm_start = true;
    cfg.warm_num_anneals = 4;
    const auto run = check("warm", cfg, gen.open_loop(36), "6b40a0a3db9d7e3f",
                           /*collect_every=*/3);
    EXPECT_GE(waves_where(*run, [](const serve::Wave& w) { return w.warm; }),
              1);
  }
  {
    serve::LoadConfig load = bpsk8_load(100.0, 3000.0);
    load.downlink_fraction = 0.5;
    serve::LoadGenerator gen(load, 0xDEC3);
    const auto run =
        check("duplex", fast_sched(), gen.open_loop(32), "ae6d09f0c825b737");
    EXPECT_GT(records_where(*run, [](const serve::JobRecord& r) {
                return r.direction == serve::Direction::kDownlink;
              }), 0);
  }
  {
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->outages = {{0, 100.0, 220.0}, {0, 180.0, 300.0}, {1, 400.0, 470.0}};
    plan->growths = {{0, 450.0, dead_row_map()}, {1, 520.0, dead_row_map()}};
    plan->anneal_failure_prob = 0.2;
    plan->readout_failure_prob = 0.2;
    serve::LoadConfig load = bpsk8_load(80.0);
    load.downlink_fraction = 0.5;
    serve::LoadGenerator gen(load, 0xFA0C);
    sched::SchedConfig cfg = fast_sched();
    cfg.devices = sched::uniform_devices(cfg.annealer, 2);
    cfg.fault = plan;
    cfg.max_retries = 2;
    cfg.retry_backoff_us = 5.0;
    cfg.fallback = fault::FallbackMode::kZf;
    const auto run =
        check("fault ladder", cfg, gen.open_loop(60), "22bd96b5b83a573d");
    EXPECT_GT(waves_where(*run, [](const serve::Wave& w) { return w.failed; }),
              0);
    EXPECT_GT(records_where(*run, [](const serve::JobRecord& r) {
                return r.fallback;
              }), 0);
    EXPECT_GT(records_where(*run, [](const serve::JobRecord& r) {
                return r.retries > 0;
              }), 0);
  }
}

TEST(DeviceSetTest, TopologyKeyedCachesSharedOnlyWhenIdentical) {
  anneal::AnnealerConfig base;
  // Three devices: two identical pristine chips, one defective.
  std::vector<sched::DeviceSpec> specs(3);
  specs[2].disabled = dead_row_map();
  sched::DeviceSet set(base, specs);

  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.cache(0), set.cache(1)) << "identical topologies must share";
  EXPECT_NE(set.cache(0), set.cache(2)) << "defect-distinct must not share";
  EXPECT_TRUE(set.graph(0).same_topology(set.graph(1)));
  EXPECT_FALSE(set.graph(0).same_topology(set.graph(2)));

  // The defect map kills shape 16 entirely and halves shape 8's tiling.
  EXPECT_GT(set.capacity(0, 16), 0u);
  EXPECT_EQ(set.capacity(2, 16), 0u);
  EXPECT_FALSE(set.fits(2, 16));
  EXPECT_GT(set.capacity(2, 8), 0u);
  EXPECT_LT(set.capacity(2, 8), set.capacity(0, 8));
  EXPECT_EQ(set.max_capacity(16), set.capacity(0, 16));
}

TEST(DeviceSetTest, WorkerConfigCarriesDeviceDefects) {
  // An annealer built on a device's cache anneals on that device's chip,
  // defects included, although the base config describes a pristine chip.
  const anneal::AnnealerConfig base;
  std::vector<sched::DeviceSpec> specs(2);
  specs[1].defects = 17;
  specs[1].defect_seed = 0xD1;
  sched::DeviceSet set(base, specs);

  const anneal::ChimeraAnnealer device1(base, set.cache(1));
  EXPECT_TRUE(device1.graph().same_topology(set.graph(1)));
  EXPECT_EQ(device1.graph().num_working_qubits(), 2048u - 17u);
  // The same chip as the config fields describe it directly.
  anneal::AnnealerConfig direct = base;
  direct.chip_defects = 17;
  direct.chip_seed = 0xD1;
  EXPECT_TRUE(anneal::ChimeraAnnealer(direct).graph().same_topology(device1.graph()));
  const anneal::ChimeraAnnealer device0(base, set.cache(0));
  EXPECT_FALSE(device0.graph().same_topology(set.graph(1)));
}

TEST(DeviceSetTest, RejectsBadDeviceSpecs) {
  // Both chip checks of chimera::make_chip reach the pool and the service:
  // a fault id outside the chip, and random defects off the shore-4 chip.
  const anneal::AnnealerConfig base;
  std::vector<sched::DeviceSpec> outside(2);
  outside[1].disabled = {2048};  // C16 qubit ids are 0..2047
  EXPECT_THROW(sched::DeviceSet(base, outside), InvalidArgument);
  serve::ServiceConfig service = fast_service();
  service.device_specs = outside;
  EXPECT_THROW(serve::DecodeService{service}, InvalidArgument);

  anneal::AnnealerConfig next_gen = base;
  next_gen.chip_size = 13;
  next_gen.chip_shore = 12;
  std::vector<sched::DeviceSpec> random(1);
  random[0].defects = 5;
  EXPECT_THROW(sched::DeviceSet(next_gen, random), InvalidArgument);
  service = fast_service();
  service.annealer.chip_size = 13;
  service.annealer.chip_shore = 12;
  EXPECT_NO_THROW(serve::DecodeService{service}) << "pristine next-gen pool";
  service.device_specs = random;
  EXPECT_THROW(serve::DecodeService{service}, InvalidArgument);
}

}  // namespace
}  // namespace quamax
