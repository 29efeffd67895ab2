// Replica-path equivalence: the batched multi-replica SA kernel must be a
// pure throughput optimization.  anneal_batch(R) with fixed per-replica RNG
// streams must reproduce the EXACT spins of R scalar anneal() calls —
// including with collective-move groups and per-replica ICE coefficients —
// the annealers must be bit-identical at any batch_replicas setting, and
// sample_each's problems, which share one annealer's embedding cache, must
// return the same samples as fresh annealers.

#include <gtest/gtest.h>

#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/thread_pool.hpp"

namespace quamax {
namespace {

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

TEST(BatchReplicaTest, BatchMatchesScalarAnneals) {
  const qubo::IsingModel problem = random_clique(24, 0xB001);
  const anneal::SaEngine engine(problem);
  const std::vector<double> betas = short_betas();

  for (const std::size_t R : {1ul, 2ul, 8ul, 11ul}) {
    std::vector<Rng> batch_rngs = streams(0x5EED, R);
    const auto batched = engine.anneal_batch(betas, batch_rngs);
    ASSERT_EQ(batched.size(), R);
    for (std::size_t r = 0; r < R; ++r) {
      Rng scalar_rng = Rng::for_stream(0x5EED, r);
      EXPECT_EQ(batched[r], engine.anneal(betas, scalar_rng))
          << "replica " << r << " of " << R << " diverged";
      // The replica's generator must land in the scalar call's final state.
      EXPECT_EQ(batch_rngs[r](), scalar_rng()) << "replica " << r << " of " << R
                                               << " left its rng elsewhere";
    }
  }
}

TEST(BatchReplicaTest, BatchMatchesScalarWithCollectiveGroups) {
  // Chain groups over a clique-like problem: the collective pass draws its
  // own accepts/tie-breaks, which must stay in per-replica lockstep too.
  const qubo::IsingModel problem = random_clique(18, 0xB002);
  anneal::SaEngine engine(problem);
  engine.set_groups({{0, 1, 2}, {3, 4, 5, 6}, {7, 8}, {9, 10, 11, 12, 13}});
  const std::vector<double> betas = short_betas();

  const std::size_t R = 7;
  std::vector<Rng> batch_rngs = streams(0xC0DE, R);
  const auto batched = engine.anneal_batch(betas, batch_rngs);
  for (std::size_t r = 0; r < R; ++r) {
    Rng scalar_rng = Rng::for_stream(0xC0DE, r);
    EXPECT_EQ(batched[r], engine.anneal(betas, scalar_rng)) << "replica " << r;
  }
}

TEST(BatchReplicaTest, BatchMatchesScalarWithIceCoefficients) {
  // Per-replica coefficient blocks (the ICE path): replica r's block must
  // behave exactly like a scalar anneal_with on that block.
  const qubo::IsingModel problem = random_clique(16, 0xB003);
  const anneal::SaEngine engine(problem);
  const std::vector<double> betas = short_betas();
  const anneal::IceConfig ice;

  const std::size_t R = 6;
  const std::size_t nf = engine.base_fields().size();
  const std::size_t nc = engine.base_couplings().size();
  std::vector<double> fields(R * nf);
  std::vector<double> couplings(R * nc);
  std::vector<Rng> batch_rngs = streams(0x1CE, R);
  // Draw each replica's ICE realization from its own stream, as the
  // annealer does, BEFORE the anneal consumes the stream.
  std::vector<double> f1, c1;
  for (std::size_t r = 0; r < R; ++r) {
    ice.perturb_fields(engine.base_fields(), f1, batch_rngs[r]);
    ice.perturb_couplings(engine.base_couplings(), c1, batch_rngs[r]);
    std::copy(f1.begin(), f1.end(), fields.begin() + static_cast<std::ptrdiff_t>(r * nf));
    std::copy(c1.begin(), c1.end(), couplings.begin() + static_cast<std::ptrdiff_t>(r * nc));
  }
  const auto batched = engine.anneal_batch_with(betas, fields, couplings, batch_rngs);

  for (std::size_t r = 0; r < R; ++r) {
    Rng scalar_rng = Rng::for_stream(0x1CE, r);
    std::vector<double> fr, cr;
    ice.perturb_fields(engine.base_fields(), fr, scalar_rng);
    ice.perturb_couplings(engine.base_couplings(), cr, scalar_rng);
    EXPECT_EQ(batched[r], engine.anneal_with(betas, fr, cr, scalar_rng))
        << "replica " << r;
  }
}

TEST(BatchReplicaTest, SharedCoefficientFastPathMatchesReplicatedBlocks) {
  // anneal_batch hands the kernel the base arrays at a replica stride of 0
  // (the ICE-off input); it must be bit-identical to
  // anneal_batch_with on R verbatim copies of those arrays — with and
  // without collective groups, which read coefficients too.
  const qubo::IsingModel problem = random_clique(20, 0xB005);
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
    EXPECT_EQ(engine.anneal_batch(betas, shared_rngs),
              engine.anneal_batch_with(betas, fields, couplings, block_rngs))
        << "grouped=" << grouped;
  }
}

TEST(BatchReplicaTest, BatchMatchesScalarWithWarmStart) {
  const qubo::IsingModel problem = random_clique(12, 0xB004);
  const anneal::SaEngine engine(problem);
  const std::vector<double> betas = short_betas();
  const qubo::SpinVec initial(12, 1);

  const std::size_t R = 5;
  std::vector<Rng> batch_rngs = streams(0x7A57, R);
  const auto batched = engine.anneal_batch(betas, batch_rngs, &initial);
  for (std::size_t r = 0; r < R; ++r) {
    Rng scalar_rng = Rng::for_stream(0x7A57, r);
    EXPECT_EQ(batched[r], engine.anneal(betas, scalar_rng, &initial))
        << "replica " << r;
  }
}

TEST(BatchReplicaTest, MismatchedBatchArraysThrow) {
  const qubo::IsingModel problem = random_clique(8, 0xB005);
  const anneal::SaEngine engine(problem);
  const std::vector<double> betas{1.0};
  std::vector<Rng> rngs = streams(1, 2);
  EXPECT_THROW(engine.anneal_batch_with(
                   betas, std::vector<double>(engine.base_fields().size()),
                   std::vector<double>(2 * engine.base_couplings().size()), rngs),
               InvalidArgument);
  EXPECT_THROW(engine.anneal_batch_with(
                   betas, std::vector<double>(2 * engine.base_fields().size()),
                   std::vector<double>(1), rngs),
               InvalidArgument);
  std::vector<Rng> empty;
  EXPECT_THROW(engine.anneal_batch(betas, empty), InvalidArgument);
}

TEST(BatchReplicaTest, ChimeraSamplesInvariantUnderBatchReplicas) {
  // End to end through embedding, ICE, collective moves, and majority-vote
  // unembedding: sample `a` must not depend on how anneals are blocked.
  const qubo::IsingModel problem = random_clique(10, 0xB006);
  std::vector<std::vector<qubo::SpinVec>> runs;
  std::vector<double> broken;
  for (const std::size_t replicas : {1ul, 4ul, 8ul, 64ul}) {
    anneal::AnnealerConfig config;
    config.batch_replicas = replicas;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{17};
    runs.push_back(annealer.sample(problem, 50, rng));
    broken.push_back(annealer.last_broken_chain_fraction());
  }
  for (std::size_t v = 1; v < runs.size(); ++v) {
    EXPECT_EQ(runs[v], runs[0]) << "batch_replicas variant " << v;
    EXPECT_EQ(broken[v], broken[0]) << "batch_replicas variant " << v;
  }
}

TEST(BatchReplicaTest, ChimeraWaveBatchInvariantUnderBatchReplicas) {
  const qubo::IsingModel p0 = random_clique(8, 0xB007);
  const qubo::IsingModel p1 = random_clique(8, 0xB008);
  const qubo::IsingModel p2 = random_clique(8, 0xB009);
  const std::vector<const qubo::IsingModel*> problems{&p0, &p1, &p2};
  std::vector<std::vector<std::vector<qubo::SpinVec>>> runs;
  for (const std::size_t replicas : {1ul, 8ul}) {
    anneal::AnnealerConfig config;
    config.batch_replicas = replicas;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{23};
    runs.push_back(annealer.sample_batch(problems, 20, rng));
  }
  EXPECT_EQ(runs[1], runs[0]);
}

TEST(BatchReplicaTest, LogicalSamplesInvariantUnderBatchReplicas) {
  const qubo::IsingModel problem = random_clique(20, 0xB00A);
  std::vector<std::vector<qubo::SpinVec>> runs;
  for (const std::size_t replicas : {1ul, 8ul, 13ul}) {
    anneal::LogicalAnnealerConfig config;
    config.batch_replicas = replicas;
    anneal::LogicalAnnealer annealer(config);
    Rng rng{29};
    runs.push_back(annealer.sample(problem, 40, rng));
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
}

TEST(BatchReplicaTest, RunBlocksHandsOutRunStreams) {
  // run_stream_blocks(begin, streams) must hand out exactly the per-index
  // streams Rng::for_stream(key, a), advance the caller rng by exactly one
  // draw, and cover every index once.
  core::ThreadPool pool(2);
  Rng rng{101};
  std::vector<std::uint64_t> first_draw(23, 0);
  std::vector<int> hits(23, 0);
  core::run_stream_blocks(&pool, 23, 5, rng, [&](std::size_t begin, std::vector<Rng>& st) {
    for (std::size_t j = 0; j < st.size(); ++j) {
      first_draw[begin + j] = st[j]();
      ++hits[begin + j];
    }
  });
  const std::uint64_t caller_next = rng();

  Rng probe{101};
  const std::uint64_t key = probe();
  EXPECT_EQ(probe(), caller_next);
  for (std::size_t a = 0; a < 23; ++a) {
    EXPECT_EQ(hits[a], 1) << "index " << a;
    Rng expect = Rng::for_stream(key, a);
    EXPECT_EQ(first_draw[a], expect()) << "index " << a;
  }
}

TEST(BatchReplicaTest, SampleEachMatchesFreshAnnealers) {
  // The shared embedding cache must be invisible in the results:
  // sample_each runs equal a fresh annealer per problem drawn with stream
  // p, including when several problems share a shape and so one compiled
  // placement, and the broken-chain fractions match too.
  const qubo::IsingModel p0 = random_clique(9, 0xB00B);
  const qubo::IsingModel p1 = random_clique(9, 0xB00C);
  const qubo::IsingModel p2 = random_clique(12, 0xB00D);
  const qubo::IsingModel p3 = random_clique(9, 0xB00E);
  const std::vector<const qubo::IsingModel*> problems{&p0, &p1, &p2, &p3};
  anneal::AnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;

  Rng probe{4242};
  const std::uint64_t key = probe();
  for (const std::size_t threads : {1ul, 3ul}) {
    config.num_threads = threads;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{4242};
    std::vector<double> broken;
    const auto cached = annealer.sample_each(problems, 15, rng, &broken);
    ASSERT_EQ(cached.size(), problems.size());
    ASSERT_EQ(broken.size(), problems.size());
    for (std::size_t p = 0; p < problems.size(); ++p) {
      Rng stream = Rng::for_stream(key, p);
      anneal::ChimeraAnnealer fresh(config);
      EXPECT_EQ(cached[p], fresh.sample(*problems[p], 15, stream))
          << "threads " << threads << " problem " << p;
      EXPECT_EQ(broken[p], fresh.last_broken_chain_fraction())
          << "threads " << threads << " problem " << p;
    }
  }
}

}  // namespace
}  // namespace quamax
