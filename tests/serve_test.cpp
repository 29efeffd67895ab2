// quamax::serve — wave packing and service determinism.
//
// The contracts under test (ISSUE 3):
//   * live wave packing never exceeds the wave capacity, never mixes shapes
//     in a wave, lists members in sequence order, and serves every job
//     exactly once;
//   * the service preserves the job -> solution mapping across waves (each
//     job's decoded bits match ITS OWN transmitted bits, which differ from
//     its wave-mates');
//   * ServiceStats are bit-identical across --threads 1 vs N and across
//     replica block sizes (virtual-clock latencies + counter-derived decode
//     streams);
//   * wave packing lifts achieved throughput by >= 2x at saturating load;
//   * deadline accounting: zero misses at trivial load, drops under
//     drop_late admission;
//   * the observed-run harness (serve::RunObserver) traces only when asked,
//     windows each run once, and reports every failed write.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "quamax/common/error.hpp"
#include "quamax/obs/profile.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/observe.hpp"
#include "quamax/serve/service.hpp"

namespace quamax {
namespace {

serve::ServiceConfig fast_service(bool packing, std::size_t threads = 1,
                                  std::size_t replicas = 8) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = replicas;
  cfg.num_anneals = 20;
  cfg.num_threads = threads;
  cfg.packing = packing;
  cfg.program_overhead_us = 10.0;
  return cfg;
}

serve::LoadConfig bpsk8_load(double jobs_per_ms, double deadline_us = 1000.0) {
  serve::LoadConfig cfg;
  cfg.offered_load_jobs_per_ms = jobs_per_ms;
  cfg.deadline_us = deadline_us;
  cfg.users = 8;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRandomPhase;
  cfg.problem.snr_db = std::nullopt;  // noise-free: tx config IS the ground state
  return cfg;
}

TEST(ServeTest, LivePackingIsShapePureCappedAndExhaustive) {
  // Interleave two shapes (8- and 12-user BPSK), released 2 us apart so the
  // FIFO queue backs up and waves fill; capacities differ per shape.
  auto load12 = bpsk8_load(1.0);
  load12.problem.users = 12;
  serve::LoadGenerator gen8(bpsk8_load(1.0), 0xFAC8);
  serve::LoadGenerator gen12(load12, 0xFAC12);
  const std::vector<std::size_t> users = {8, 12, 8, 8, 12, 8, 12, 12, 8, 8,
                                          12, 8, 12, 8, 8, 8, 12, 12, 8, 12};
  std::vector<serve::CellJob> jobs;
  for (std::size_t j = 0; j < users.size(); ++j)
    jobs.push_back((users[j] == 8 ? gen8 : gen12).job(j, j % 8, 2.0 * j));

  serve::DecodeService service(fast_service(/*packing=*/true));
  ASSERT_EQ(service.config().queue_policy, sched::QueuePolicy::kFifo);
  const serve::ServiceReport report = service.run(jobs);

  // Arrivals are already sorted, so sequence number == index into `jobs`.
  std::set<std::size_t> served;
  std::set<std::size_t> packed_shapes;
  for (const serve::Wave& wave : report.waves) {
    ASSERT_FALSE(wave.jobs.empty());
    EXPECT_LE(wave.jobs.size(), service.wave_capacity(wave.shape));
    if (wave.jobs.size() > 1) packed_shapes.insert(wave.shape);
    for (std::size_t idx = 0; idx + 1 < wave.jobs.size(); ++idx)
      EXPECT_LT(wave.jobs[idx], wave.jobs[idx + 1]) << "sequence order broken";
    for (const std::size_t j : wave.jobs) {
      EXPECT_EQ(jobs[j].shape(), wave.shape) << "mixed shapes in one wave";
      EXPECT_TRUE(served.insert(j).second) << "job " << j << " served twice";
    }
  }
  EXPECT_EQ(served.size(), jobs.size());
  EXPECT_EQ(packed_shapes, (std::set<std::size_t>{8, 12}))
      << "both shapes must form multi-job waves";
}

TEST(ServeTest, WaveCapacityFollowsPackingConfig) {
  auto cfg = fast_service(/*packing=*/true);
  serve::DecodeService chip_cap(cfg);
  ASSERT_GE(chip_cap.wave_capacity(8), 2u)
      << "8-var problems must pack at least 2 per wave on the 2000Q chip";
  EXPECT_EQ(chip_cap.wave_capacity(8), chip_cap.embedding_cache()->capacity(8));
  cfg.max_wave_jobs = 3;
  EXPECT_EQ(serve::DecodeService(cfg).wave_capacity(8), 3u);
  EXPECT_EQ(serve::DecodeService(fast_service(false)).wave_capacity(8), 1u);
}

TEST(ServeTest, PreservesJobSolutionMappingAcrossWaves) {
  // 24 distinct noise-free instances: each job's transmitted bits are its
  // own; a scrambled job->solution mapping would show up as ~50% BER on
  // jobs whose wave-mates carry different payloads.
  serve::LoadGenerator gen(bpsk8_load(50.0), 0xA11CE);
  std::vector<serve::CellJob> jobs = gen.open_loop(24);

  serve::DecodeService service(fast_service(/*packing=*/true));
  const serve::ServiceReport report = service.run(std::move(jobs));

  ASSERT_EQ(report.jobs.size(), 24u);
  EXPECT_GT(report.waves.size(), 0u);
  EXPECT_LT(report.waves.size(), 24u) << "packing never formed a multi-job wave";

  std::map<std::size_t, std::size_t> wave_of;  // job id -> wave
  for (const serve::Wave& wave : report.waves)
    for (const std::size_t idx : wave.jobs) wave_of[idx] = wave.id;

  std::size_t exact = 0;
  for (std::size_t idx = 0; idx < report.jobs.size(); ++idx) {
    const serve::JobRecord& rec = report.jobs[idx];
    EXPECT_EQ(rec.num_bits, 8u);
    EXPECT_EQ(wave_of.at(idx), rec.wave_id);
    if (rec.bit_errors == 0) ++exact;
    EXPECT_EQ(rec.ground_state, rec.bit_errors == 0)
        << "noise-free: reaching the ground state IFF decoding exactly";
  }
  // Noise-free 8-user BPSK with collective moves decodes essentially always;
  // anything below all-but-one exact would indicate cross-job leakage.
  EXPECT_GE(exact, 23u);
}

TEST(ServeTest, StatsBitIdenticalAcrossThreadsAndReplicas) {
  serve::LoadGenerator base_gen(bpsk8_load(80.0), 0xD7E);
  const std::vector<serve::CellJob> jobs = base_gen.open_loop(40);

  const serve::ServiceReport baseline =
      serve::DecodeService(fast_service(true, 1, 8)).run(jobs);
  for (const auto& [threads, replicas] :
       std::vector<std::pair<std::size_t, std::size_t>>{{4, 8}, {4, 1}, {2, 16}}) {
    const serve::ServiceReport other =
        serve::DecodeService(fast_service(true, threads, replicas)).run(jobs);
    EXPECT_EQ(baseline.stats.digest(), other.stats.digest())
        << "threads=" << threads << " replicas=" << replicas;
    ASSERT_EQ(baseline.jobs.size(), other.jobs.size());
    for (std::size_t j = 0; j < baseline.jobs.size(); ++j) {
      EXPECT_EQ(baseline.jobs[j].completion_us, other.jobs[j].completion_us);
      EXPECT_EQ(baseline.jobs[j].bit_errors, other.jobs[j].bit_errors);
      EXPECT_EQ(baseline.jobs[j].ground_state, other.jobs[j].ground_state);
    }
  }
}

TEST(ServeTest, ThresholdModeReportBitIdenticalAcrossThreadsAndReplicas) {
  // The serve workload the float32 threshold kernel targets (ICE off,
  // shared coefficients): the full report must stay bit-identical across
  // threads x replicas under AcceptMode::kThreshold32 too — the v2
  // determinism contract, end to end through the service.
  serve::LoadGenerator base_gen(bpsk8_load(80.0), 0xD7F);
  const std::vector<serve::CellJob> jobs = base_gen.open_loop(30);

  serve::ServiceConfig cfg = fast_service(true, 1, 8);
  cfg.annealer.accept_mode = anneal::AcceptMode::kThreshold32;
  const serve::ServiceReport baseline = serve::DecodeService(cfg).run(jobs);
  EXPECT_EQ(baseline.jobs.size(), 30u);

  for (const auto& [threads, replicas] :
       std::vector<std::pair<std::size_t, std::size_t>>{{4, 8}, {2, 1}}) {
    serve::ServiceConfig other_cfg = fast_service(true, threads, replicas);
    other_cfg.annealer.accept_mode = anneal::AcceptMode::kThreshold32;
    const serve::ServiceReport other = serve::DecodeService(other_cfg).run(jobs);
    EXPECT_EQ(baseline.stats.digest(), other.stats.digest())
        << "threads=" << threads << " replicas=" << replicas;
    ASSERT_EQ(baseline.jobs.size(), other.jobs.size());
    for (std::size_t j = 0; j < baseline.jobs.size(); ++j)
      EXPECT_EQ(baseline.jobs[j].bit_errors, other.jobs[j].bit_errors);
  }
  // (That the knob truly switches the kernel is covered at the annealer
  // level by accept_mode_test's ModesProduceDistinctSampleStreams — at this
  // trivial load every mode decodes perfectly, so aggregate digests agree.)
}

TEST(ServeTest, PackingAtLeastDoublesThroughputAtSaturation) {
  // 150 jobs/ms offered against a ~33 jobs/ms unpacked service rate: the
  // unpacked baseline saturates while packing rides the arrival rate.
  serve::LoadGenerator gen(bpsk8_load(150.0), 0xFEED);
  const std::vector<serve::CellJob> jobs = gen.open_loop(400);

  const serve::ServiceReport packed =
      serve::DecodeService(fast_service(true)).run(jobs);
  const serve::ServiceReport unpacked =
      serve::DecodeService(fast_service(false)).run(jobs);

  EXPECT_EQ(unpacked.stats.mean_wave_occupancy(), 1.0);
  EXPECT_GT(packed.stats.mean_wave_occupancy(), 2.0);
  EXPECT_GE(packed.stats.achieved_jobs_per_ms(),
            2.0 * unpacked.stats.achieved_jobs_per_ms());
  // At this overload the unpacked queue grows without bound: misses pile up
  // while the packed service still meets every deadline.
  EXPECT_EQ(packed.stats.misses(), 0u);
  EXPECT_GT(unpacked.stats.miss_rate(), 0.5);
}

TEST(ServeTest, TrivialLoadMeetsEveryDeadline) {
  serve::LoadGenerator gen(bpsk8_load(1.0), 0x70AD);
  serve::DecodeService service(fast_service(true));
  const serve::ServiceReport report = service.run(gen.open_loop(30));
  EXPECT_EQ(report.stats.misses(), 0u);
  EXPECT_EQ(report.stats.drops(), 0u);
  EXPECT_DOUBLE_EQ(report.stats.miss_rate(), 0.0);
  // An idle service dispatches on arrival: queueing stays at zero.
  EXPECT_EQ(report.stats.queueing().max_us, 0.0);
}

TEST(ServeTest, DropLateAdmissionShedsDoomedJobs) {
  // Tight deadlines at overload: admission must shed, and dropped jobs must
  // never appear in a wave.
  serve::LoadGenerator gen(bpsk8_load(200.0, /*deadline_us=*/60.0), 0xD20B);
  auto cfg = fast_service(false);
  cfg.drop_late = true;
  const serve::ServiceReport report =
      serve::DecodeService(cfg).run(gen.open_loop(120));

  EXPECT_GT(report.stats.drops(), 0u);
  EXPECT_GE(report.stats.misses(), report.stats.drops());
  std::set<std::size_t> in_waves;
  for (const serve::Wave& wave : report.waves)
    in_waves.insert(wave.jobs.begin(), wave.jobs.end());
  for (std::size_t idx = 0; idx < report.jobs.size(); ++idx) {
    if (!report.jobs[idx].dropped) continue;
    EXPECT_EQ(in_waves.count(idx), 0u) << "dropped job was decoded";
    EXPECT_TRUE(report.jobs[idx].missed_deadline());
    EXPECT_EQ(report.jobs[idx].num_bits, 0u);
  }
}

TEST(ServeTest, MultiDeviceDispatchIsCausal) {
  // Two devices, two different-shape jobs arriving together at t = 100: the
  // device that jumps to the arrival admits BOTH, and the second (still
  // free at t = 0) picks up the leftover job — it must idle until the job's
  // arrival, never dispatch into its past.
  auto load12 = bpsk8_load(1.0);
  load12.problem.users = 12;
  serve::LoadGenerator gen8(bpsk8_load(1.0), 0xCA05A1);
  serve::LoadGenerator gen12(load12, 0xCA05A2);
  std::vector<serve::CellJob> jobs;
  jobs.push_back(gen8.job(0, 0, 100.0));
  jobs.push_back(gen12.job(1, 1, 100.0));

  auto cfg = fast_service(true);
  cfg.num_devices = 2;
  const serve::ServiceReport report = serve::DecodeService(cfg).run(std::move(jobs));

  ASSERT_EQ(report.jobs.size(), 2u);
  ASSERT_EQ(report.waves.size(), 2u) << "different shapes cannot share a wave";
  for (const serve::JobRecord& rec : report.jobs) {
    EXPECT_GE(rec.dispatch_us, rec.arrival_us) << "acausal dispatch";
    EXPECT_DOUBLE_EQ(rec.dispatch_us, 100.0);
    EXPECT_GE(rec.queueing_us(), 0.0);
    EXPECT_EQ(rec.bit_errors, 0u);
  }
  // With two devices both waves run concurrently, not back to back.
  EXPECT_DOUBLE_EQ(report.waves[0].completion_us, report.waves[1].completion_us);
}

TEST(ServeTest, DropLateSweepsHeterogeneousDeadlines) {
  // Mixed HARQ classes: every odd job's budget (20 us) is below the wave
  // service time (30 us), so it is doomed on arrival even though the head
  // of the queue (an even job with a generous budget) is safe.  The
  // admission sweep must shed exactly the odd jobs.
  serve::LoadGenerator gen(bpsk8_load(100.0), 0x8E7);
  std::vector<serve::CellJob> jobs = gen.open_loop(40);
  for (std::size_t k = 1; k < jobs.size(); k += 2)
    jobs[k].deadline_us = jobs[k].arrival_us + 20.0;

  auto cfg = fast_service(false);
  cfg.drop_late = true;
  const serve::ServiceReport report = serve::DecodeService(cfg).run(std::move(jobs));

  ASSERT_EQ(report.jobs.size(), 40u);
  EXPECT_EQ(report.stats.drops(), 20u);
  for (const serve::JobRecord& rec : report.jobs)
    EXPECT_EQ(rec.dropped, rec.deadline_us - rec.arrival_us < 30.0)
        << "job " << rec.job_id;
}

TEST(LoadGeneratorTest, DeterministicAndWellFormed) {
  const auto cfg = bpsk8_load(10.0);
  serve::LoadGenerator a(cfg, 0x9E4);
  serve::LoadGenerator b(cfg, 0x9E4);
  const auto jobs_a = a.open_loop(50);
  const auto jobs_b = b.open_loop(50);
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  double prev = -1.0;
  for (std::size_t k = 0; k < jobs_a.size(); ++k) {
    EXPECT_EQ(jobs_a[k].id, k);
    EXPECT_EQ(jobs_a[k].user, k % cfg.users);
    EXPECT_EQ(jobs_a[k].arrival_us, jobs_b[k].arrival_us);
    EXPECT_EQ(jobs_a[k].uplink().use.tx_bits, jobs_b[k].uplink().use.tx_bits);
    EXPECT_EQ(jobs_a[k].shape(), 8u);
    EXPECT_GT(jobs_a[k].arrival_us, prev);
    EXPECT_DOUBLE_EQ(jobs_a[k].deadline_us, jobs_a[k].arrival_us + cfg.deadline_us);
    prev = jobs_a[k].arrival_us;
  }
}

TEST(LoadGeneratorTest, SubframeArrivalsAreFrameAligned) {
  auto cfg = bpsk8_load(1.0);
  cfg.arrivals = serve::ArrivalKind::kSubframe;
  cfg.subframe_period_us = 500.0;
  cfg.users = 4;
  serve::LoadGenerator gen(cfg, 0x5F);
  const auto jobs = gen.open_loop(12);
  for (std::size_t k = 0; k < jobs.size(); ++k)
    EXPECT_DOUBLE_EQ(jobs[k].arrival_us,
                     static_cast<double>(k / 4) * 500.0);
}

serve::LoadConfig fullduplex_load(double jobs_per_ms) {
  serve::LoadConfig cfg = bpsk8_load(jobs_per_ms);
  cfg.downlink_fraction = 0.4;
  cfg.downlink.users = 4;
  cfg.downlink.antennas = 4;
  cfg.downlink.mod = wireless::Modulation::kQpsk;
  cfg.downlink.snr_db = 14.0;
  cfg.downlink_deadline_us = 600.0;
  return cfg;
}

TEST(FullDuplexTest, MixedDirectionsServeThroughOneScheduler) {
  serve::LoadGenerator gen(fullduplex_load(20.0), 0xFDFD);
  serve::DecodeService service(fast_service(/*packing=*/true));
  const serve::ServiceReport report = service.run(gen.open_loop(40));

  ASSERT_EQ(report.jobs.size(), 40u);
  const serve::ServiceStats::DirectionStats& up = report.stats.uplink();
  const serve::ServiceStats::DirectionStats& down = report.stats.downlink();
  EXPECT_GT(up.jobs, 0u);
  EXPECT_GT(down.jobs, 0u);
  EXPECT_EQ(up.jobs + down.jobs, 40u);
  // Uplink shape 8 and downlink shape 16 never share a wave.
  for (const serve::Wave& wave : report.waves)
    EXPECT_TRUE(wave.shape == 8u || wave.shape == 16u);
  // Downlink records carry the VPP payload size (4 users x 2 QPSK bits).
  for (const serve::JobRecord& rec : report.jobs) {
    if (rec.direction == serve::Direction::kDownlink && !rec.dropped) {
      EXPECT_EQ(rec.num_bits, 8u);
    }
  }
}

TEST(FullDuplexTest, ReportBitIdenticalAcrossThreadsReplicasDevices) {
  for (const std::size_t devices : {std::size_t{1}, std::size_t{3}}) {
    serve::LoadGenerator gen_a(fullduplex_load(30.0), 0xF00D);
    serve::LoadGenerator gen_b(fullduplex_load(30.0), 0xF00D);
    auto cfg_a = fast_service(/*packing=*/true, /*threads=*/1, /*replicas=*/1);
    cfg_a.num_devices = devices;
    auto cfg_b = fast_service(/*packing=*/true, /*threads=*/4, /*replicas=*/16);
    cfg_b.num_devices = devices;
    const serve::ServiceReport a =
        serve::DecodeService(cfg_a).run(gen_a.open_loop(48));
    const serve::ServiceReport b =
        serve::DecodeService(cfg_b).run(gen_b.open_loop(48));
    EXPECT_EQ(a.stats.digest(), b.stats.digest()) << "devices=" << devices;
  }
}

serve::LoadConfig coherent_bpsk_load(double coherence) {
  serve::LoadConfig cfg;
  cfg.arrivals = serve::ArrivalKind::kSubframe;
  cfg.subframe_period_us = 200.0;
  cfg.users = 3;
  cfg.deadline_us = 1200.0;
  cfg.problem.users = 8;
  cfg.problem.mod = wireless::Modulation::kBpsk;
  cfg.problem.kind = wireless::ChannelKind::kRayleigh;
  cfg.problem.snr_db = 12.0;
  cfg.coherence = coherence;
  return cfg;
}

TEST(CoherentServeTest, WarmStartHoldsStatisticalParityWithColdStart) {
  // ISSUE 7 parity check: a warm-start run at a 4x anneal-quota cut must
  // decode the same coherent workload with BER and miss rate within
  // tolerance of the full-quota cold run.  (Bit-identity is NOT expected —
  // warm waves draw different streams — only statistical equivalence.)
  serve::ServiceConfig cold_cfg = fast_service(/*packing=*/true, 2, 4);
  cold_cfg.num_anneals = 16;
  serve::ServiceConfig warm_cfg = cold_cfg;
  warm_cfg.warm_start = true;
  warm_cfg.warm_num_anneals = 4;

  serve::LoadGenerator cold_gen(coherent_bpsk_load(0.9), 0xC0DE);
  serve::LoadGenerator warm_gen(coherent_bpsk_load(0.9), 0xC0DE);
  const serve::ServiceReport cold =
      serve::DecodeService(cold_cfg).run(cold_gen.open_loop(60));
  const serve::ServiceReport warm =
      serve::DecodeService(warm_cfg).run(warm_gen.open_loop(60));

  EXPECT_GT(warm.stats.warm_waves(), 0u);
  EXPECT_LT(warm.stats.total_anneals(), cold.stats.total_anneals());
  EXPECT_LE(warm.stats.ber(), cold.stats.ber() + 0.05);
  EXPECT_LE(std::abs(warm.stats.miss_rate() - cold.stats.miss_rate()), 0.05);
}

TEST(CoherentServeTest, ZeroCoherenceIsBitIdenticalToTheIncoherentPath) {
  // Regression for the determinism contract: adding the coherence machinery
  // must not perturb the coherence=0 workload.  A config that never names
  // the knob and one that sets it to 0 are the SAME config (the new RNG
  // keys are drawn last and never used), so their reports must match
  // bit-for-bit — and turning coherence on must only change instance
  // content, never the arrival/deadline/direction timeline.
  const auto cfg = bpsk8_load(20.0);
  serve::LoadGenerator plain_gen(cfg, 0x1D);
  auto zeroed = cfg;
  zeroed.coherence = 0.0;
  serve::LoadGenerator zero_gen(zeroed, 0x1D);
  const serve::ServiceReport plain =
      serve::DecodeService(fast_service(true)).run(plain_gen.open_loop(40));
  const serve::ServiceReport zero =
      serve::DecodeService(fast_service(true)).run(zero_gen.open_loop(40));
  EXPECT_EQ(plain.stats.digest(), zero.stats.digest());

  auto coherent = cfg;
  coherent.coherence = 0.8;
  serve::LoadGenerator a(cfg, 0x1D);
  serve::LoadGenerator b(coherent, 0x1D);
  const auto jobs_a = a.open_loop(30);
  const auto jobs_b = b.open_loop(30);
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  for (std::size_t k = 0; k < jobs_a.size(); ++k) {
    EXPECT_EQ(jobs_a[k].arrival_us, jobs_b[k].arrival_us);
    EXPECT_EQ(jobs_a[k].deadline_us, jobs_b[k].deadline_us);
    EXPECT_EQ(jobs_a[k].user, jobs_b[k].user);
    EXPECT_EQ(jobs_a[k].shape(), jobs_b[k].shape());
  }
}

TEST(LoadGeneratorTest, TraceChannelsProduceServableJobs) {
  auto cfg = bpsk8_load(5.0);
  cfg.trace_channels = true;
  cfg.trace_pick = 8;
  cfg.trace_mod = wireless::Modulation::kBpsk;
  serve::LoadGenerator gen(cfg, 0x7124CE);
  const auto jobs = gen.open_loop(10);
  for (const auto& job : jobs) {
    EXPECT_EQ(job.shape(), 8u);
    EXPECT_EQ(job.uplink().use.h.rows(), 8u);
    EXPECT_GE(job.uplink().use.snr_db, 25.0);
    EXPECT_LE(job.uplink().use.snr_db, 35.0);
  }
  // Trace instances are cached by id: re-requesting an id is a pure lookup.
  const serve::CellJob again = gen.job(3, 3 % cfg.users, 123.0);
  EXPECT_EQ(again.uplink().use.tx_bits, jobs[3].uplink().use.tx_bits);
}

// ---- serve::RunObserver ----------------------------------------------------

/// A RunObserver built from `args` (the program name is prepended).
struct ObservedArgs {
  std::vector<std::string> args;
  std::vector<char*> argv;
  explicit ObservedArgs(std::vector<std::string> a) : args(std::move(a)) {
    args.insert(args.begin(), "serve_test");
    for (std::string& arg : args) argv.push_back(arg.data());
  }
  serve::RunObserver observer() {
    return serve::RunObserver(static_cast<int>(argv.size()), argv.data());
  }
};

void serve_tiny_run(serve::RunObserver& observer, std::size_t jobs = 16) {
  const serve::ServiceConfig cfg = fast_service(true);
  serve::LoadGenerator generator(bpsk8_load(50.0), 0x0B5);
  observer.observe(cfg,
                   serve::DecodeService(cfg).run(generator.open_loop(jobs)));
}

int observe_tiny_run(std::vector<std::string> args) {
  ObservedArgs parsed(std::move(args));
  serve::RunObserver observer = parsed.observer();
  serve_tiny_run(observer);
  return observer.finish();
}

TEST(RunObserverTest, FinishReportsEveryFailedWrite) {
  const std::string unwritable = "/nonexistent-quamax-dir/out.json";
  EXPECT_EQ(observe_tiny_run({"--trace", unwritable}), 1);
  EXPECT_EQ(observe_tiny_run({"--metrics", unwritable}), 1);
  EXPECT_EQ(observe_tiny_run({"--slo", "miss_rate<=0.05", "--metrics", unwritable}), 1);
  EXPECT_EQ(observe_tiny_run({"--prof-json", unwritable}), 1);
  obs::Profiler::instance().set_enabled(false);
}

TEST(RunObserverTest, WritesExactlyTheRequestedFiles) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "quamax_observer_files";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string trace = (dir / "trace.json").string();
  const std::string metrics = (dir / "metrics.json").string();
  const std::string profile = (dir / "profile.json").string();
  EXPECT_EQ(observe_tiny_run({"--trace=" + trace, "--metrics", metrics,
                              "--prof-json", profile}),
            0);
  obs::Profiler::instance().set_enabled(false);
  std::set<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    written.insert(entry.path().string());
  EXPECT_EQ(written, (std::set<std::string>{trace, metrics, profile}));

  // Each file holds its own document: the Chrome trace, the metrics JSON,
  // the profiler's stage table with its counter spellings.
  const auto read = [](const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read(trace).rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(read(metrics).find("\"schema\":\"quamax-metrics-v1\""),
            std::string::npos);
  const std::string prof = read(profile);
  EXPECT_EQ(prof.rfind("{\"stages\":[", 0), 0u);
  for (const char* key :
       {"\"stage\":\"anneal.batch_sweep\"", "\"calls\":", "\"total_ns\":",
        "\"lanes\":", "\"quamax_prof_anneal_batch_sweep_calls\":"})
    EXPECT_NE(prof.find(key), std::string::npos) << key;
  std::filesystem::remove_all(dir);
}

TEST(RunObserverTest, UnobservedRunsKeepNothing) {
  ObservedArgs parsed({});
  serve::RunObserver observer = parsed.observer();
  serve_tiny_run(observer);
  EXPECT_THROW(observer.view(), InvalidArgument);
  EXPECT_EQ(observer.finish(), 0);
}

TEST(RunObserverTest, AlertsAreInjectedOncePerRun) {
  // An SLO every run breaks, so the view carries alerts; the trace file
  // carries each alert exactly once.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "quamax_observer_alerts";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string trace = (dir / "trace.json").string();
  ObservedArgs parsed({"--slo", "p99<=0.001", "--trace", trace});
  serve::RunObserver observer = parsed.observer();
  serve_tiny_run(observer);
  std::size_t alerts = 0;
  for (const auto& report : observer.view().slos) alerts += report.alerts.size();
  ASSERT_GT(alerts, 0u);
  EXPECT_EQ(&observer.view(), &observer.view());
  EXPECT_EQ(observer.finish(), 0);
  std::ifstream in(trace);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::size_t written = 0;
  for (std::size_t at = text.find("\"slo-alert "); at != std::string::npos;
       at = text.find("\"slo-alert ", at + 1))
    ++written;
  EXPECT_EQ(written, alerts);
  std::filesystem::remove_all(dir);

  // A new observed run starts from a fresh log and a fresh view.
  serve_tiny_run(observer, 8);
  EXPECT_EQ(observer.view().collector.totals().submitted, 8);
}

}  // namespace
}  // namespace quamax
