// Warm-start incremental annealing: the determinism / parity test layer
// for the coherent serving path.
//
// Contracts under test:
//
//   * the load generator's coherent reductions — a full core::reduce_ml on
//     a chain's first job of each block, core::update_ml_fields on a copy
//     of it afterwards — are BIT-IDENTICAL to reducing every job from
//     scratch: fields, couplings, and offset, across all four modulations
//     (the delta contract);
//   * cold-start bit-compatibility: with coherence=0 a warm_start=true
//     service is a no-op — reports equal the warm_start=false run field by
//     field (no job ever has a predecessor, so no stream is perturbed);
//   * warm-start bit-identity: on a coherent workload the full report is
//     unchanged across --threads x --replicas combinations at a fixed
//     device count (warm waves decode from counter-derived streams keyed
//     by wave id, seeds travel by sequence number).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "quamax/common/error.hpp"
#include "quamax/common/rng.hpp"
#include "quamax/core/reduction.hpp"
#include "quamax/linalg/matrix.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/wireless/channel.hpp"

namespace quamax {
namespace {

void expect_problems_identical(const core::MlProblem& a,
                               const core::MlProblem& b) {
  ASSERT_EQ(a.num_vars(), b.num_vars());
  EXPECT_EQ(a.mod, b.mod);
  EXPECT_EQ(a.nt, b.nt);
  for (std::size_t i = 0; i < a.num_vars(); ++i)
    EXPECT_EQ(a.ising.field(i), b.ising.field(i)) << "field " << i;
  ASSERT_EQ(a.ising.couplings().size(), b.ising.couplings().size());
  for (std::size_t k = 0; k < a.ising.couplings().size(); ++k) {
    EXPECT_EQ(a.ising.couplings()[k].i, b.ising.couplings()[k].i) << "edge " << k;
    EXPECT_EQ(a.ising.couplings()[k].j, b.ising.couplings()[k].j) << "edge " << k;
    EXPECT_EQ(a.ising.couplings()[k].g, b.ising.couplings()[k].g) << "edge " << k;
  }
  EXPECT_EQ(a.ising.offset(), b.ising.offset());
}

TEST(WarmStartDeltaTest, CoherentUplinkProblemsEqualFullReduceBitForBit) {
  const wireless::Modulation mods[] = {
      wireless::Modulation::kBpsk, wireless::Modulation::kQpsk,
      wireless::Modulation::kQam16, wireless::Modulation::kQam64};
  for (const wireless::Modulation mod : mods) {
    serve::LoadConfig load;
    load.arrivals = serve::ArrivalKind::kSubframe;
    load.users = 3;
    load.problem.users = 3;
    load.problem.mod = mod;
    load.problem.kind = wireless::ChannelKind::kRayleigh;
    load.problem.snr_db = 10.0;
    load.coherence = 0.75;  // blocks of 4 subframes
    load.downlink_fraction = 0.25;
    serve::LoadGenerator gen(load, /*seed=*/0xDE17A);
    ASSERT_EQ(gen.coherence_block(), 4u);

    const std::vector<serve::CellJob> jobs = gen.open_loop(48);
    std::size_t uplink = 0;
    std::size_t generated = 0;
    for (const serve::CellJob& job : jobs) {
      if (job.downlink()) continue;
      ++uplink;
      // Coherent instances are materialized in id order, downlink ids
      // included, up to the last uplink id requested.
      generated = job.id + 1;
      const sim::Instance& inst = job.uplink();
      expect_problems_identical(
          inst.problem, core::reduce_ml(inst.use.h, inst.use.y, mod));
    }
    ASSERT_GT(uplink, 0u);
    ASSERT_LT(uplink, jobs.size()) << "the mix must hold downlink jobs";

    // Every generated id took exactly one compile path, and both paths ran.
    const anneal::WarmStartStats& stats = gen.compile_stats();
    EXPECT_EQ(stats.full_compiles + stats.delta_compiles, generated);
    EXPECT_GT(stats.full_compiles, 0u);
    EXPECT_GT(stats.delta_compiles, 0u);
  }
}

TEST(WarmStartDeltaTest, UpdateMlFieldsMatchesFullReduceDirectly) {
  // The core-layer primitive on its own.  update_ml_fields reruns the exact
  // arithmetic of the MATCHING reducer (core::reduce_ml: closed form for
  // BPSK/QPSK/16-QAM, the generic norm-expansion path for 64-QAM) —
  // bit-equality only holds against that reducer, which is the contract
  // the load generator relies on.
  const wireless::Modulation mods[] = {
      wireless::Modulation::kBpsk, wireless::Modulation::kQpsk,
      wireless::Modulation::kQam16, wireless::Modulation::kQam64};
  for (const wireless::Modulation mod : mods) {
    Rng rng = Rng::for_stream(0xF1E1D, static_cast<std::uint64_t>(mod));
    const std::size_t n = 3;
    const linalg::CMat h = wireless::rayleigh_channel(n, n, rng);
    linalg::CVec y1(n), y2(n);
    for (auto& v : y1) v = linalg::cplx{rng.normal(), rng.normal()};
    for (auto& v : y2) v = linalg::cplx{rng.normal(), rng.normal()};

    core::MlProblem updated = core::reduce_ml(h, y1, mod);
    core::update_ml_fields(updated, h, y2);
    expect_problems_identical(updated, core::reduce_ml(h, y2, mod));
    // Repeated application keeps converging on the same coefficients.
    core::update_ml_fields(updated, h, y1);
    expect_problems_identical(updated, core::reduce_ml(h, y1, mod));
  }
}

// ---------------------------------------------------------------------------
// Serving-path determinism.

serve::LoadConfig coherent_load(double coherence) {
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

serve::ServiceConfig warm_service(bool warm, std::size_t threads,
                                  std::size_t replicas,
                                  std::size_t devices = 1) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.annealer.batch_replicas = replicas;
  cfg.num_anneals = 16;
  cfg.num_devices = devices;
  cfg.num_threads = threads;
  cfg.program_overhead_us = 10.0;
  cfg.warm_start = warm;
  cfg.warm_num_anneals = warm ? 4 : 0;
  return cfg;
}

bool records_equal(const serve::JobRecord& a, const serve::JobRecord& b) {
  return a.job_id == b.job_id && a.user == b.user &&
         a.direction == b.direction && a.wave_id == b.wave_id &&
         a.arrival_us == b.arrival_us && a.dispatch_us == b.dispatch_us &&
         a.completion_us == b.completion_us && a.deadline_us == b.deadline_us &&
         a.dropped == b.dropped && a.bit_errors == b.bit_errors &&
         a.num_bits == b.num_bits && a.ground_state == b.ground_state;
}

void expect_reports_identical(const serve::ServiceReport& a,
                              const serve::ServiceReport& b,
                              const char* what) {
  EXPECT_EQ(a.stats.digest(), b.stats.digest()) << what;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << what;
  for (std::size_t j = 0; j < a.jobs.size(); ++j)
    EXPECT_TRUE(records_equal(a.jobs[j], b.jobs[j]))
        << what << ": job " << j << " diverged";
  ASSERT_EQ(a.waves.size(), b.waves.size()) << what;
  for (std::size_t w = 0; w < a.waves.size(); ++w) {
    EXPECT_EQ(a.waves[w].warm, b.waves[w].warm) << what << ": wave " << w;
    EXPECT_EQ(a.waves[w].seeds, b.waves[w].seeds) << what << ": wave " << w;
    EXPECT_EQ(a.waves[w].dispatch_us, b.waves[w].dispatch_us)
        << what << ": wave " << w;
    EXPECT_EQ(a.waves[w].completion_us, b.waves[w].completion_us)
        << what << ": wave " << w;
  }
}

serve::ServiceReport run_warm(const serve::LoadConfig& load,
                              const serve::ServiceConfig& service,
                              std::size_t num_jobs) {
  serve::LoadGenerator gen(load, /*seed=*/0x7E57);
  return serve::DecodeService(service).run(gen.open_loop(num_jobs));
}

TEST(WarmStartServeTest, ColdStartBitCompatibleWithHistory) {
  // coherence = 0: no job has a predecessor, so warm_start=true must be a
  // pure no-op — same records, same waves, same digest as warm_start=false.
  serve::LoadConfig load = coherent_load(0.0);
  const serve::ServiceReport off = run_warm(load, warm_service(false, 2, 4), 24);
  const serve::ServiceReport on = run_warm(load, warm_service(true, 2, 4), 24);
  expect_reports_identical(off, on, "warm flag on incoherent load");
  EXPECT_EQ(on.stats.warm_waves(), 0u);
  for (const serve::Wave& wave : on.waves) EXPECT_FALSE(wave.warm);
}

TEST(WarmStartServeTest, WarmReportBitIdenticalAcrossThreadsAndReplicas) {
  const serve::LoadConfig load = coherent_load(0.9);
  const std::size_t num_jobs = 36;
  for (const std::size_t devices : {std::size_t{1}, std::size_t{2}}) {
    const serve::ServiceReport baseline =
        run_warm(load, warm_service(true, 1, 1, devices), num_jobs);
    // The warm path must actually engage: a coherent subframe workload at
    // this period leaves every non-boundary subframe a completed
    // predecessor.
    EXPECT_GT(baseline.stats.warm_waves(), 0u) << "devices=" << devices;
    EXPECT_GT(baseline.stats.warm_jobs(), 0u) << "devices=" << devices;

    const std::size_t combos[][2] = {{4, 3}, {2, 8}};
    for (const auto& combo : combos) {
      const serve::ServiceReport report = run_warm(
          load, warm_service(true, combo[0], combo[1], devices), num_jobs);
      expect_reports_identical(baseline, report, "threads x replicas");
    }
  }
}

TEST(WarmStartServeTest, WarmQuotaCutShowsInAnnealAccounting) {
  const serve::LoadConfig load = coherent_load(0.9);
  const serve::ServiceReport cold = run_warm(load, warm_service(false, 2, 4), 36);
  const serve::ServiceReport warm = run_warm(load, warm_service(true, 2, 4), 36);
  // Every warm wave is charged warm_num_anneals (4) instead of 16: the
  // aggregate anneal quota must drop, and the stats must say by how much.
  EXPECT_EQ(cold.stats.warm_waves(), 0u);
  EXPECT_GT(warm.stats.warm_waves(), 0u);
  EXPECT_LT(warm.stats.total_anneals(), cold.stats.total_anneals());
  const std::size_t expected = cold.stats.total_anneals() -
                               warm.stats.warm_waves() * (16u - 4u);
  EXPECT_EQ(warm.stats.total_anneals(), expected);
}

TEST(WarmStartServeTest, CoherentGenerationUsesDeltaCompiles) {
  serve::LoadGenerator gen(coherent_load(0.9), 0x7E57);
  const std::vector<serve::CellJob> jobs = gen.open_loop(30);
  EXPECT_EQ(jobs.size(), 30u);
  // rho = 0.9 => block length 10: chains recompile on block boundaries only.
  EXPECT_EQ(gen.coherence_block(), 10u);
  EXPECT_GT(gen.compile_stats().delta_compiles, 0u);
  EXPECT_GT(gen.compile_stats().full_compiles, 0u);
  EXPECT_EQ(gen.compile_stats().full_compiles +
                gen.compile_stats().delta_compiles,
            30u);

  // Predecessor structure: none in the first subframe, id - users after.
  EXPECT_FALSE(gen.predecessor(0).has_value());
  EXPECT_FALSE(gen.predecessor(2).has_value());
  ASSERT_TRUE(gen.predecessor(3).has_value());
  EXPECT_EQ(*gen.predecessor(3), 0u);
  ASSERT_TRUE(gen.predecessor(17).has_value());
  EXPECT_EQ(*gen.predecessor(17), 14u);
}

TEST(WarmStartServeTest, CoherentInstancesSlideOutOfTheRetentionWindow) {
  serve::LoadConfig load = coherent_load(0.5);
  load.users = 1;
  load.problem.users = 2;
  serve::LoadGenerator gen(load, 0x7E57);
  const linalg::CVec first = gen.job(1, 0, 0.0).uplink().use.y;
  gen.job(serve::LoadGenerator::kTraceWindow, 0, 0.0);
  // The window keeps the kTraceWindow most recent ids: id 1 is still the
  // instance drawn first, and id 0 slid out and is refused, not redrawn.
  EXPECT_EQ(gen.job(1, 0, 0.0).uplink().use.y, first);
  EXPECT_THROW(gen.job(0, 0, 0.0), InvalidArgument);
}

}  // namespace
}  // namespace quamax
