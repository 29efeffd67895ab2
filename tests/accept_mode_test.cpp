// AcceptMode::kThreshold32 — the v2 branch-free acceptance contract:
//
//   * the threshold mode is bit-identical at any replica blocking: an
//     anneal_batch(R) replica equals the scalar threshold anneal with the
//     matched stream, for shared and per-replica (ICE) coefficients, with
//     collective groups, and with warm starts — so annealer samples cannot
//     depend on --replicas or --threads;
//   * annealer-level invariance across batch_replicas x num_threads, end to
//     end through embedding and unembedding;
//   * statistical parity with kExact: the threshold rule realizes the SAME
//     acceptance probabilities, so ground-state rate, expected BER, and TTB
//     agree within sampling tolerance (they are different sample streams,
//     so the comparison is statistical, not bitwise);
//   * the modes really differ (threshold is not secretly running exact).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/sim/runner.hpp"

namespace quamax {
namespace {

using anneal::AcceptMode;

/// The branch-free threshold rule under test (the serving default).
constexpr AcceptMode kThr = AcceptMode::kThreshold32;

/// Dense random Ising problem of `n` spins (deterministic in `seed`).
qubo::IsingModel random_clique(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  qubo::IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m.add_coupling(i, j, rng.normal());
  return m;
}

std::vector<double> short_betas() {
  anneal::Schedule s;
  s.anneal_time_us = 2.0;
  return s.betas();
}

std::vector<Rng> streams(std::uint64_t key, std::size_t count) {
  std::vector<Rng> out;
  out.reserve(count);
  for (std::size_t r = 0; r < count; ++r) out.push_back(Rng::for_stream(key, r));
  return out;
}

TEST(AcceptModeTest, ThresholdBatchMatchesScalarAtAnyReplicaCount) {
  const qubo::IsingModel problem = random_clique(24, 0xAC01);
  const anneal::SaEngine engine(problem);
  const std::vector<double> betas = short_betas();

  for (const std::size_t R : {1ul, 2ul, 8ul, 11ul}) {
    std::vector<Rng> batch_rngs = streams(0x5EED, R);
    const auto batched = engine.anneal_batch(betas, batch_rngs, nullptr, kThr);
    ASSERT_EQ(batched.size(), R);
    for (std::size_t r = 0; r < R; ++r) {
      Rng scalar_rng = Rng::for_stream(0x5EED, r);
      EXPECT_EQ(batched[r], engine.anneal(betas, scalar_rng, nullptr, kThr))
          << "replica " << r << " of " << R;
      // The replica's generator must land in the scalar call's final state.
      EXPECT_EQ(batch_rngs[r](), scalar_rng())
          << "replica " << r << " left its rng elsewhere";
    }
  }
}

TEST(AcceptModeTest, ThresholdBatchMatchesScalarWithCollectiveGroups) {
  const qubo::IsingModel problem = random_clique(18, 0xAC02);
  anneal::SaEngine engine(problem);
  engine.set_groups({{0, 1, 2}, {3, 4, 5, 6}, {7, 8}, {9, 10, 11, 12, 13}});
  const std::vector<double> betas = short_betas();

  const std::size_t R = 7;
  std::vector<Rng> batch_rngs = streams(0xC0DE, R);
  const auto batched = engine.anneal_batch(betas, batch_rngs, nullptr, kThr);
  for (std::size_t r = 0; r < R; ++r) {
    Rng scalar_rng = Rng::for_stream(0xC0DE, r);
    EXPECT_EQ(batched[r], engine.anneal(betas, scalar_rng, nullptr, kThr))
        << "replica " << r;
  }
}

TEST(AcceptModeTest, ThresholdSharedFastPathMatchesReplicatedBlocks) {
  // anneal_batch reads the flat float32 images of the base arrays;
  // anneal_batch_with on R verbatim copies must coincide
  // bit-for-bit, with and without collective groups.
  const qubo::IsingModel problem = random_clique(20, 0xAC03);
  for (const bool grouped : {false, true}) {
    anneal::SaEngine engine(problem);
    if (grouped) engine.set_groups({{0, 1, 2, 3}, {4, 5, 6}, {12, 13}});
    const std::vector<double> betas = short_betas();

    const std::size_t R = 6;
    const std::size_t nf = engine.base_fields().size();
    const std::size_t nc = engine.base_couplings().size();
    std::vector<double> fields(R * nf);
    std::vector<double> couplings(R * nc);
    for (std::size_t r = 0; r < R; ++r) {
      std::copy(engine.base_fields().begin(), engine.base_fields().end(),
                fields.begin() + static_cast<std::ptrdiff_t>(r * nf));
      std::copy(engine.base_couplings().begin(), engine.base_couplings().end(),
                couplings.begin() + static_cast<std::ptrdiff_t>(r * nc));
    }

    std::vector<Rng> shared_rngs = streams(0xFA57, R);
    std::vector<Rng> block_rngs = streams(0xFA57, R);
    EXPECT_EQ(engine.anneal_batch(betas, shared_rngs, nullptr, kThr),
              engine.anneal_batch_with(betas, fields, couplings, block_rngs,
                                       nullptr, kThr))
        << "grouped=" << grouped;
  }
}

TEST(AcceptModeTest, ThresholdBatchMatchesScalarWithWarmStart) {
  const qubo::IsingModel problem = random_clique(12, 0xAC04);
  const anneal::SaEngine engine(problem);
  const std::vector<double> betas = short_betas();
  const qubo::SpinVec initial(12, 1);

  const std::size_t R = 5;
  std::vector<Rng> batch_rngs = streams(0x7A57, R);
  const auto batched = engine.anneal_batch(betas, batch_rngs, &initial, kThr);
  for (std::size_t r = 0; r < R; ++r) {
    Rng scalar_rng = Rng::for_stream(0x7A57, r);
    EXPECT_EQ(batched[r], engine.anneal(betas, scalar_rng, &initial, kThr))
        << "replica " << r;
  }
}

TEST(AcceptModeTest, ModesProduceDistinctSampleStreams) {
  // Guard against silently running exact under a threshold flag: with
  // matched streams the modes must diverge somewhere over many anneals.
  const qubo::IsingModel problem = random_clique(16, 0xAC05);
  const anneal::SaEngine engine(problem);
  const std::vector<double> betas = short_betas();
  std::vector<Rng> a = streams(0xD1FF, 16);
  std::vector<Rng> b = streams(0xD1FF, 16);
  EXPECT_NE(engine.anneal_batch(betas, a, nullptr, AcceptMode::kExact),
            engine.anneal_batch(betas, b, nullptr, kThr));
}

TEST(AcceptModeTest, ChimeraSamplesInvariantUnderThreadsAndReplicas) {
  // End to end through embedding, collective moves, and majority-vote
  // unembedding: sample `a` must not depend on the replica blocking or the
  // thread count in the threshold mode.  This is the v2 determinism
  // contract the serve layer and every bench rely on.
  const qubo::IsingModel problem = random_clique(10, 0xAC06);
  std::vector<std::vector<qubo::SpinVec>> runs;
  for (const auto& [threads, replicas] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 8}, {4, 8}, {2, 64}}) {
    anneal::AnnealerConfig config;
    config.num_threads = threads;
    config.batch_replicas = replicas;
    config.accept_mode = kThr;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{17};
    runs.push_back(annealer.sample(problem, 50, rng));
  }
  for (std::size_t v = 1; v < runs.size(); ++v)
    EXPECT_EQ(runs[v], runs[0]) << "threads/replicas variant " << v;
}

TEST(AcceptModeTest, ThresholdIceBlocksInvariantUnderReplicas) {
  // ICE on (per-replica coefficient blocks, the interleaved kernel): the
  // threshold mode must stay invariant under replica blocking there too.
  const qubo::IsingModel problem = random_clique(10, 0xAC07);
  std::vector<std::vector<qubo::SpinVec>> runs;
  for (const std::size_t replicas : {1ul, 8ul}) {
    anneal::AnnealerConfig config;
    config.batch_replicas = replicas;
    config.accept_mode = kThr;
    config.ice.enabled = true;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{23};
    runs.push_back(annealer.sample(problem, 30, rng));
  }
  EXPECT_EQ(runs[1], runs[0]);
}

// ---------------------------------------------------------------------------
// Statistical parity: the threshold rule realizes the same acceptance
// probabilities as the exact rule, so solution-quality statistics must agree
// within sampling tolerance.  All runs are seeded, so these are
// deterministic regression checks, not flaky sampling tests; the tolerances
// are several standard errors wide while remaining far tighter than any
// systematic acceptance bug (always/never accepting uphill moves shifts
// these numbers by orders of magnitude).
// ---------------------------------------------------------------------------

double ground_state_rate(const qubo::IsingModel& problem, AcceptMode mode,
                         std::size_t num_anneals) {
  const qubo::GroundState ground = qubo::brute_force_ground_state(problem);
  anneal::LogicalAnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;
  config.batch_replicas = 8;
  config.accept_mode = mode;
  anneal::LogicalAnnealer annealer(config);
  Rng rng{0x9A12};
  const auto samples = annealer.sample(problem, num_anneals, rng);
  std::size_t hits = 0;
  for (const auto& s : samples)
    if (problem.energy(s) <= ground.energy + 1e-9) ++hits;
  return static_cast<double>(hits) / static_cast<double>(num_anneals);
}

TEST(AcceptModeParityTest, GroundStateRateMatchesExact) {
  const qubo::IsingModel problem = random_clique(14, 0xAC08);
  const std::size_t num_anneals = 600;
  const double p_exact = ground_state_rate(problem, AcceptMode::kExact, num_anneals);
  const double p_thr = ground_state_rate(problem, kThr, num_anneals);
  // The rate must be informative (not saturated) for the comparison to mean
  // anything.
  EXPECT_GT(p_exact, 0.15);
  EXPECT_LT(p_exact, 0.995);
  EXPECT_NEAR(p_thr, p_exact, 0.12);
}

sim::RunOutcome decode_outcome(const sim::Instance& inst, AcceptMode mode,
                               std::size_t num_anneals) {
  anneal::AnnealerConfig config;
  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  config.embed.jf = 0.5;
  config.accept_mode = mode;
  anneal::ChimeraAnnealer annealer(config);
  Rng rng{0xBE12};
  return sim::run_instance(inst, annealer, num_anneals, rng);
}

TEST(AcceptModeParityTest, DetectorBerAndTtbMatchExact) {
  // A fig9-style decode (noise-free QPSK at the easy end): Eq. 9 expected
  // BER and the TTB(1e-6) figure must agree across accept modes within
  // sampling tolerance — the §5 curves are mode-independent up to noise.
  Rng inst_rng{0xAC09};
  const sim::Instance inst = sim::make_instance(
      {.users = 6, .mod = wireless::Modulation::kQpsk, .kind = {}, .snr_db = {}},
      inst_rng);
  const std::size_t num_anneals = 400;
  const sim::RunOutcome exact = decode_outcome(inst, AcceptMode::kExact, num_anneals);
  const sim::RunOutcome thr = decode_outcome(inst, kThr, num_anneals);

  // Per-anneal BER at a mid-curve anneal budget (where differences show).
  const double ber_exact = exact.stats.expected_ber(20);
  EXPECT_GT(ber_exact, 0.0);
  EXPECT_NEAR(thr.stats.expected_ber(20), ber_exact, 0.05);

  // P0 parity on the embedded pipeline.
  EXPECT_NEAR(thr.stats.p0(), exact.stats.p0(), 0.12);

  // TTB(1e-6): reached by both modes, and within a small factor (TTB is a
  // nonlinear function of the sampled distribution, so compare in ratio).
  const auto ttb_exact = sim::outcome_ttb_us(exact, 1e-6, 1 << 20);
  const auto ttb_thr = sim::outcome_ttb_us(thr, 1e-6, 1 << 20);
  ASSERT_TRUE(ttb_exact.has_value());
  ASSERT_TRUE(ttb_thr.has_value());
  EXPECT_LT(std::abs(std::log(*ttb_thr / *ttb_exact)), std::log(3.0));
}

TEST(AcceptModeParityTest, BrokenChainDiagnosticsStayComparable) {
  // The chain-breaking failure mode (small |J_F|) must not be masked or
  // amplified by the threshold rule: broken-chain fractions stay in the
  // same regime.
  const qubo::IsingModel problem = random_clique(12, 0xAC0A);
  double broken[2] = {0.0, 0.0};
  int k = 0;
  for (const AcceptMode mode : {AcceptMode::kExact, kThr}) {
    anneal::AnnealerConfig config;
    config.embed.jf = 0.2;  // weak chains: breaking is common
    config.accept_mode = mode;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{31};
    annealer.sample(problem, 80, rng);
    broken[k++] = annealer.last_broken_chain_fraction();
  }
  EXPECT_GT(broken[0], 0.0);
  EXPECT_GT(broken[1], 0.0);
  EXPECT_NEAR(broken[1], broken[0], 0.15);
}

}  // namespace
}  // namespace quamax
