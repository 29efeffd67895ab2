// Annealer stack tests: schedule construction (T_a, pause), ICE statistics,
// SA engine correctness on solvable problems, and the embedded Chimera
// pipeline end to end (sample -> unembed -> logical configurations).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "quamax/anneal/annealer.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::anneal {
namespace {

TEST(ScheduleTest, SweepCountsFollowTimes) {
  Schedule s;
  s.anneal_time_us = 2.0;
  s.sweeps_per_us = 10.0;
  EXPECT_EQ(s.betas().size(), 20u);

  s.pause_time_us = 3.0;
  EXPECT_EQ(s.betas().size(), 50u);
  EXPECT_DOUBLE_EQ(s.duration_us(), 5.0);
}

TEST(ScheduleTest, BetasRampMonotonicallyWithPlateauAtPause) {
  Schedule s;
  s.anneal_time_us = 10.0;
  s.sweeps_per_us = 10.0;
  s.pause_time_us = 2.0;
  s.pause_position = 0.5;
  const std::vector<double> betas = s.betas();
  ASSERT_EQ(betas.size(), 120u);
  // Non-decreasing throughout.
  for (std::size_t i = 1; i < betas.size(); ++i) EXPECT_GE(betas[i], betas[i - 1]);
  // A constant run of pause length exists at the pause point.
  std::size_t longest_plateau = 1, run = 1;
  for (std::size_t i = 1; i < betas.size(); ++i) {
    run = (betas[i] == betas[i - 1]) ? run + 1 : 1;
    longest_plateau = std::max(longest_plateau, run);
  }
  EXPECT_GE(longest_plateau, 20u);
  // Endpoints.
  EXPECT_NEAR(betas.front(), s.beta_initial, 1e-12);
  EXPECT_NEAR(betas.back(), s.beta_final, 1e-9);
}

TEST(ScheduleTest, ValidationCatchesNonsense) {
  Schedule s;
  s.anneal_time_us = 0.0;
  EXPECT_THROW(s.validate(), InvalidArgument);
  s = Schedule{};
  s.pause_position = 1.0;
  EXPECT_THROW(s.validate(), InvalidArgument);
  s = Schedule{};
  s.beta_final = 0.01;  // below beta_initial
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(IceTest, PerturbationStatisticsMatchConfig) {
  IceConfig ice;
  Rng rng{1};
  const std::vector<double> base(20000, 0.5);
  std::vector<double> out;
  ice.perturb_couplings(base, out, rng);
  double mean = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) mean += out[i] - base[i];
  mean /= static_cast<double>(out.size());
  EXPECT_NEAR(mean, ice.coupling_bias, 3e-3);

  double var = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double d = out[i] - base[i] - ice.coupling_bias;
    var += d * d;
  }
  EXPECT_NEAR(std::sqrt(var / static_cast<double>(out.size())),
              ice.coupling_sigma, 2e-3);
}

TEST(IceTest, SuppressBiasZeroesTheMeanOnly) {
  IceConfig ice;
  ice.suppress_bias = true;
  Rng rng{2};
  const std::vector<double> base(20000, 0.0);
  std::vector<double> out;
  ice.perturb_fields(base, out, rng);
  double mean = 0.0;
  for (double v : out) mean += v;
  EXPECT_NEAR(mean / static_cast<double>(out.size()), 0.0, 3e-3);
}

TEST(IceTest, DisabledIsIdentity) {
  IceConfig ice;
  ice.enabled = false;
  Rng rng{3};
  const std::vector<double> base{1.0, -2.0, 0.25};
  std::vector<double> out;
  ice.perturb_fields(base, out, rng);
  EXPECT_EQ(out, base);
}

qubo::IsingModel ferromagnetic_ring(std::size_t n) {
  qubo::IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.add_coupling(i, (i + 1) % n, -1.0);
  return m;
}

TEST(SaEngineTest, SolvesFerromagneticRing) {
  const auto m = ferromagnetic_ring(24);
  const SaEngine engine(m);
  Schedule s;
  s.anneal_time_us = 4.0;
  const std::vector<double> betas = s.betas();
  Rng rng{10};
  // Best of a small batch: single-anneal P0 here is ~0.9, batch is ~1.
  double best = 1e300;
  for (int a = 0; a < 10; ++a)
    best = std::min(best, m.energy(engine.anneal(betas, rng)));
  EXPECT_NEAR(best, -24.0, 1e-12);
}

TEST(SaEngineTest, FindsGroundStateOfRandomSmallProblems) {
  Rng rng{20};
  for (int trial = 0; trial < 5; ++trial) {
    qubo::IsingModel m(10);
    for (std::size_t i = 0; i < 10; ++i) m.field(i) = rng.normal();
    for (std::size_t i = 0; i < 10; ++i)
      for (std::size_t j = i + 1; j < 10; ++j) m.add_coupling(i, j, rng.normal());
    const qubo::GroundState gs = qubo::brute_force_ground_state(m);

    const SaEngine engine(m);
    Schedule s;
    s.anneal_time_us = 2.0;
    const std::vector<double> betas = s.betas();
    double best = 1e300;
    for (int a = 0; a < 50; ++a)
      best = std::min(best, m.energy(engine.anneal(betas, rng)));
    EXPECT_NEAR(best, gs.energy, 1e-9) << "trial " << trial;
  }
}

TEST(SaEngineTest, RespectsSuppliedCoefficientArrays) {
  // Flip the sign of the ring couplings via the override arrays: the engine
  // must now find the ANTIferromagnetic ground state.
  const auto m = ferromagnetic_ring(8);
  const SaEngine engine(m);
  std::vector<double> couplings(engine.base_couplings());
  for (double& g : couplings) g = +1.0;  // antiferromagnetic now
  Schedule s;
  s.anneal_time_us = 4.0;
  const std::vector<double> betas = s.betas();
  Rng rng{30};
  // Even ring: the alternating state satisfies every antiferromagnetic bond,
  // i.e. sum of s_i s_{i+1} over the override couplings reaches -8.
  double best = 1e300;
  for (int a = 0; a < 10; ++a) {
    const qubo::SpinVec spins =
        engine.anneal_with(betas, engine.base_fields(), couplings, rng);
    double e = 0.0;
    for (std::size_t i = 0; i < 8; ++i) e += spins[i] * spins[(i + 1) % 8];
    best = std::min(best, e);
  }
  EXPECT_EQ(best, -8.0);
}

TEST(SaEngineTest, MismatchedArraysThrow) {
  const auto m = ferromagnetic_ring(4);
  const SaEngine engine(m);
  Rng rng{1};
  EXPECT_THROW(
      engine.anneal_with({1.0}, std::vector<double>(3), engine.base_couplings(), rng),
      InvalidArgument);
  EXPECT_THROW(
      engine.anneal_with({1.0}, engine.base_fields(), std::vector<double>(1), rng),
      InvalidArgument);
}

qubo::IsingModel random_clique(std::size_t n, Rng& rng) {
  qubo::IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m.add_coupling(i, j, rng.normal());
  return m;
}

TEST(ChimeraAnnealerTest, SamplesReachLogicalGroundStateOnSmallProblem) {
  Rng rng{40};
  const qubo::IsingModel problem = random_clique(8, rng);
  const qubo::GroundState gs = qubo::brute_force_ground_state(problem);

  AnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;
  ChimeraAnnealer annealer(config);
  const auto samples = annealer.sample(problem, 200, rng);
  ASSERT_EQ(samples.size(), 200u);

  double best = 1e300;
  for (const auto& s : samples) {
    ASSERT_EQ(s.size(), 8u);
    best = std::min(best, problem.energy(s));
  }
  EXPECT_NEAR(best, gs.energy, 1e-9);
  EXPECT_LE(annealer.last_broken_chain_fraction(), 0.5);
}

TEST(ChimeraAnnealerTest, TinyJfBreaksChains) {
  // |J_F| far below the coupling scale cannot hold chains together.
  Rng rng{50};
  const qubo::IsingModel problem = random_clique(16, rng);

  AnnealerConfig weak;
  weak.embed.jf = 0.05;
  weak.ice.enabled = false;
  ChimeraAnnealer annealer_weak(weak);
  annealer_weak.sample(problem, 50, rng);

  AnnealerConfig strong;
  strong.embed.jf = 4.0;
  strong.ice.enabled = false;
  ChimeraAnnealer annealer_strong(strong);
  annealer_strong.sample(problem, 50, rng);

  EXPECT_GT(annealer_weak.last_broken_chain_fraction(),
            annealer_strong.last_broken_chain_fraction());
}

TEST(ChimeraAnnealerTest, GaugeAveragingControlsIceBias) {
  AnnealerConfig config;
  // Standard range + gauge averaging: bias suppressed (can only be observed
  // through statistics; here we check the configuration plumbing by running
  // with zero sigma so ONLY the bias could change results).
  config.ice.field_sigma = 0.0;
  config.ice.coupling_sigma = 0.0;
  config.schedule.anneal_time_us = 1.0;

  // A 2-spin logical problem whose ground state is sensitive to a coupling
  // bias of -0.015 * jf-scale... simpler: assert sample() runs under both
  // range settings and returns the right shapes.
  qubo::IsingModel problem(4);
  problem.add_coupling(0, 1, 1.0);
  problem.add_coupling(2, 3, -1.0);
  problem.field(0) = 0.4;

  Rng rng{60};
  ChimeraAnnealer std_range(config);
  const auto a = std_range.sample(problem, 10, rng);
  config.embed.improved_range = true;
  ChimeraAnnealer imp_range(config);
  const auto b = imp_range.sample(problem, 10, rng);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(b.size(), 10u);
}

TEST(ChimeraAnnealerTest, SetConfigKeepsChipButUpdatesParameters) {
  AnnealerConfig config;
  ChimeraAnnealer annealer(config);
  AnnealerConfig updated = config;
  updated.embed.jf = 9.0;
  updated.schedule.pause_time_us = 1.0;
  annealer.set_config(updated);
  EXPECT_DOUBLE_EQ(annealer.config().embed.jf, 9.0);
  EXPECT_DOUBLE_EQ(annealer.anneal_duration_us(), 2.0);

  updated.chip_size = 8;
  EXPECT_THROW(annealer.set_config(updated), InvalidArgument);

  // The lane pool is built once, from the constructor's num_threads.
  updated = annealer.config();
  updated.num_threads = 4;
  EXPECT_THROW(annealer.set_config(updated), InvalidArgument);
  EXPECT_EQ(annealer.config().num_threads, 1u);
}

TEST(ChimeraAnnealerTest, RejectsBadChip) {
  // chimera::make_chip's two checks: a fault id outside the chip, and
  // random defects on a chip whose shore is not 4.
  AnnealerConfig outside;
  outside.chip_disabled = {2048};  // C16 qubit ids are 0..2047
  EXPECT_THROW(ChimeraAnnealer{outside}, InvalidArgument);

  AnnealerConfig next_gen;
  next_gen.chip_size = 13;
  next_gen.chip_shore = 12;
  EXPECT_NO_THROW(ChimeraAnnealer{next_gen});
  next_gen.chip_defects = 5;
  EXPECT_THROW(ChimeraAnnealer{next_gen}, InvalidArgument);
}

TEST(ChimeraAnnealerTest, SampleBatchRejectsNullProblems) {
  // A null pointer in any slot is named as such, before any problem is read.
  Rng rng{70};
  const qubo::IsingModel p = random_clique(8, rng);
  ChimeraAnnealer annealer{AnnealerConfig{}};
  for (const std::vector<const qubo::IsingModel*>& problems :
       {std::vector<const qubo::IsingModel*>{nullptr, &p},
        std::vector<const qubo::IsingModel*>{&p, nullptr}}) {
    try {
      annealer.sample_batch(problems, 5, rng);
      ADD_FAILURE() << "sample_batch accepted a null problem";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("null"), std::string::npos) << e.what();
    }
  }
}

TEST(ChimeraAnnealerTest, SampleEachFailsWholeOnUnembeddableProblem) {
  // A 70-spin clique needs 18 cell rows; C16 has 16.  One such problem among
  // valid ones fails the whole call with CapacityError at any lane count,
  // and the annealer serves its next call as a fresh one would.
  Rng gen{80};
  std::vector<qubo::IsingModel> models;
  for (int i = 0; i < 5; ++i) models.push_back(random_clique(8, gen));
  models.push_back(random_clique(70, gen));
  std::vector<const qubo::IsingModel*> valid;
  for (std::size_t i = 0; i + 1 < models.size(); ++i) valid.push_back(&models[i]);
  std::vector<const qubo::IsingModel*> with_bad = valid;
  with_bad.insert(with_bad.begin() + 2, &models.back());

  for (const std::size_t threads : {1ul, 3ul}) {
    AnnealerConfig config;
    config.num_threads = threads;
    ChimeraAnnealer annealer(config);
    Rng rng{81};
    EXPECT_THROW(annealer.sample_each(with_bad, 10, rng), CapacityError)
        << threads << " lanes";

    ChimeraAnnealer fresh(config);
    Rng a{82}, b{82};
    EXPECT_EQ(annealer.sample_each(valid, 10, a), fresh.sample_each(valid, 10, b))
        << threads << " lanes";
  }
}

TEST(ChimeraAnnealerTest, SampleEachHonoursInitialState) {
  // sample_each runs each problem through sample()'s own path, so a reverse
  // schedule starts every problem from the set_initial_state seed: problem p
  // equals sample() with that seed on stream p of a one-lane annealer,
  // broken-chain fraction included, at any lane count.
  Rng gen{84};
  std::vector<qubo::IsingModel> models;
  for (int i = 0; i < 3; ++i) models.push_back(random_clique(12, gen));
  const std::vector<const qubo::IsingModel*> problems{&models[0], &models[1],
                                                      &models[2]};
  qubo::SpinVec seed(12);
  for (auto& s : seed) s = gen.coin() ? 1 : -1;

  AnnealerConfig config;
  config.schedule.anneal_time_us = 1.0;
  config.schedule.reverse = true;
  config.schedule.reverse_depth = 0.6;
  config.embed.jf = 0.3;  // weak enough that some chains break
  ChimeraAnnealer solo(config);
  solo.set_initial_state(seed);

  Rng probe{85};
  const std::uint64_t key = probe();
  for (const std::size_t threads : {1ul, 3ul}) {
    config.num_threads = threads;
    ChimeraAnnealer annealer(config);
    annealer.set_initial_state(seed);
    Rng rng{85};
    std::vector<double> broken;
    const auto each = annealer.sample_each(problems, 16, rng, &broken);
    ASSERT_EQ(each.size(), problems.size());
    ASSERT_EQ(broken.size(), problems.size());
    double broken_total = 0.0;
    for (std::size_t p = 0; p < problems.size(); ++p) {
      Rng stream = Rng::for_stream(key, p);
      EXPECT_EQ(each[p], solo.sample(*problems[p], 16, stream))
          << threads << " lanes, problem " << p;
      EXPECT_EQ(broken[p], solo.last_broken_chain_fraction())
          << threads << " lanes, problem " << p;
      broken_total += broken[p];
    }
    EXPECT_GT(broken_total, 0.0) << "the fractions must really be compared";
  }
}

TEST(ChimeraAnnealerTest, ParallelizationFactorMatchesFormula) {
  ChimeraAnnealer annealer{AnnealerConfig{}};
  EXPECT_NEAR(annealer.parallelization_factor(16), 2048.0 / (16 * 5), 1e-12);
}

TEST(ChimeraAnnealerTest, DiscardBrokenChainsMayReturnFewerSamples) {
  Rng rng{90};
  const qubo::IsingModel problem = random_clique(16, rng);
  AnnealerConfig config;
  config.embed.jf = 0.1;  // chains will break
  config.discard_broken_chain_samples = true;
  ChimeraAnnealer annealer(config);
  const auto samples = annealer.sample(problem, 100, rng);
  EXPECT_LT(samples.size(), 100u);
  // Whatever survived came from intact chains only.
  for (const auto& s : samples) EXPECT_EQ(s.size(), 16u);
}

TEST(ChimeraAnnealerTest, CollectiveMovesOffStillProducesValidSamples) {
  Rng rng{91};
  const qubo::IsingModel problem = random_clique(8, rng);
  AnnealerConfig config;
  config.chain_collective_moves = false;
  ChimeraAnnealer annealer(config);
  const auto samples = annealer.sample(problem, 20, rng);
  ASSERT_EQ(samples.size(), 20u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.size(), 8u);
    for (const auto spin : s) EXPECT_TRUE(spin == 1 || spin == -1);
  }
}

/// FNV-1a over everything one sample() call returns: the sample count, each
/// logical configuration, last_broken_chain_fraction() and the caller's
/// next RNG draw (which pins how many draws sample() consumed).
std::string sample_hash(ChimeraAnnealer& annealer,
                        const qubo::IsingModel& problem,
                        std::size_t num_anneals, std::uint64_t seed) {
  Rng rng{seed};
  const std::vector<qubo::SpinVec> samples =
      annealer.sample(problem, num_anneals, rng);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const char* format, auto... args) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, format, args...);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ull;
    }
  };
  mix("n%zu", samples.size());
  for (const qubo::SpinVec& s : samples) {
    mix("|");
    for (const auto spin : s) mix(spin > 0 ? "+" : "-");
  }
  mix("b%.17g r%llu", annealer.last_broken_chain_fraction(),
      static_cast<unsigned long long>(rng()));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// sample() values pinned by hash across the single-problem configurations
// the figure benches reach: ICE on/off, both accept modes, a reverse anneal,
// the two ablations and a defective chip whose clique placement is not the
// wave tiling's slot 0.  The hashes were recorded before sample() became a
// one-slot call of the wave path; they must never need editing for a
// refactor.
TEST(ChimeraAnnealerTest, SampleOutputsArePinned) {
  Rng setup{123};
  const qubo::IsingModel problem = random_clique(12, setup);
  qubo::SpinVec seed(12);
  for (auto& s : seed) s = setup.coin() ? 1 : -1;

  AnnealerConfig base;
  base.schedule.anneal_time_us = 1.0;
  base.embed.jf = 0.3;  // weak enough that some chains break

  struct Case {
    const char* name;
    std::function<void(AnnealerConfig&)> edit;
    const char* hash;
  };
  const std::vector<Case> cases = {
      {"ice_exact", [](AnnealerConfig&) {}, "2c57041a7381afca"},
      {"no_ice", [](AnnealerConfig& c) { c.ice.enabled = false; },
       "80889292252a1fc5"},
      {"threshold32",
       [](AnnealerConfig& c) { c.accept_mode = AcceptMode::kThreshold32; },
       "3567c173d3c98fda"},
      {"no_ice_threshold32",
       [](AnnealerConfig& c) {
         c.ice.enabled = false;
         c.accept_mode = AcceptMode::kThreshold32;
       },
       "f615ceecb3958a99"},
      {"improved_range",
       [](AnnealerConfig& c) { c.embed.improved_range = true; },
       "4a9138f80cae438a"},
      {"reverse",
       [](AnnealerConfig& c) {
         c.schedule.reverse = true;
         c.schedule.reverse_depth = 0.6;
       },
       "aec304cfcae24526"},
      {"discard_broken",
       [](AnnealerConfig& c) { c.discard_broken_chain_samples = true; },
       "1d241937c206e2a7"},
      {"no_collective",
       [](AnnealerConfig& c) { c.chain_collective_moves = false; },
       "4c259b720afa1501"},
      // The embedded model is index-compact, so a shifted placement samples
      // exactly like the defect-free one.
      {"defects",
       [](AnnealerConfig& c) {
         c.chip_defects = 40;
         c.chip_seed = 1;
       },
       "2c57041a7381afca"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    AnnealerConfig config = base;
    c.edit(config);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      config.num_threads = threads;
      config.batch_replicas = threads == 1 ? 8 : 5;
      ChimeraAnnealer annealer(config);
      if (config.schedule.reverse) annealer.set_initial_state(seed);
      if (config.chip_defects > 0) {
        // The defect-aware offset search lands off the tiling's slot 0.
        const auto clique = annealer.embedding_cache()->clique(12);
        const auto slots = annealer.embedding_cache()->parallel(12);
        ASSERT_NE(clique->chains, slots->front().chains);
      }
      const std::string hash = sample_hash(annealer, problem, 24, 77);
      EXPECT_EQ(hash, c.hash) << "threads=" << threads;
    }
  }
}

TEST(LogicalAnnealerTest, SolvesSmallCliquesWithoutEmbedding) {
  Rng rng{70};
  const qubo::IsingModel problem = random_clique(12, rng);
  const qubo::GroundState gs = qubo::brute_force_ground_state(problem);

  LogicalAnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;
  LogicalAnnealer annealer(config);
  const auto samples = annealer.sample(problem, 100, rng);
  double best = 1e300;
  for (const auto& s : samples) best = std::min(best, problem.energy(s));
  EXPECT_NEAR(best, gs.energy, 1e-9);
}

TEST(BruteForceSamplerTest, AlwaysReturnsGroundState) {
  Rng rng{80};
  const qubo::IsingModel problem = random_clique(6, rng);
  const qubo::GroundState gs = qubo::brute_force_ground_state(problem);
  BruteForceSampler oracle;
  for (const auto& s : oracle.sample(problem, 3, rng))
    EXPECT_NEAR(problem.energy(s), gs.energy, 1e-12);
}

}  // namespace
}  // namespace quamax::anneal
