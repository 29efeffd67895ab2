// Tests for the deterministic multi-threaded anneal fan-out (core::ThreadPool
// and the samplers built on run_stream_blocks): output must be a pure
// function of the seed — bit-identical at any thread count — and the
// fan-out must actually run its lanes at the same time.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/thread_pool.hpp"

namespace quamax {
namespace {

/// Dense random Ising problem of `n` spins (deterministic in `seed`).
qubo::IsingModel random_problem(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  qubo::IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      m.add_coupling(i, j, rng.uniform(-1.0, 1.0));
  return m;
}

std::vector<qubo::SpinVec> logical_samples(const qubo::IsingModel& problem,
                                           std::size_t num_anneals,
                                           std::size_t num_threads,
                                           std::uint64_t seed) {
  anneal::LogicalAnnealerConfig config;
  config.num_threads = num_threads;
  anneal::LogicalAnnealer annealer(config);
  Rng rng{seed};
  return annealer.sample(problem, num_anneals, rng);
}

TEST(ParallelSamplerTest, LogicalSamplesBitIdenticalAcrossThreadCounts) {
  const qubo::IsingModel problem = random_problem(64, 0xA11CE);
  const auto serial = logical_samples(problem, 200, 1, 99);
  for (const std::size_t threads : {2ul, 8ul}) {
    const auto parallel = logical_samples(problem, 200, threads, 99);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t a = 0; a < serial.size(); ++a)
      EXPECT_EQ(parallel[a], serial[a]) << "anneal " << a << " diverged at "
                                        << threads << " threads";
  }
}

TEST(ParallelSamplerTest, ChimeraSamplesBitIdenticalAcrossThreadCounts) {
  // The full pipeline: per-anneal ICE realizations, SA on the embedded
  // problem, and majority-vote tie-breaks all draw from per-anneal streams.
  const qubo::IsingModel problem = random_problem(12, 0xC41);
  std::vector<std::vector<qubo::SpinVec>> runs;
  std::vector<double> broken;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    anneal::AnnealerConfig config;
    config.num_threads = threads;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{7};
    runs.push_back(annealer.sample(problem, 60, rng));
    broken.push_back(annealer.last_broken_chain_fraction());
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
  EXPECT_EQ(broken[1], broken[0]);
  EXPECT_EQ(broken[2], broken[0]);
}

TEST(ParallelSamplerTest, MultiProblemBatchBitIdenticalAcrossThreadCounts) {
  const qubo::IsingModel p0 = random_problem(8, 1);
  const qubo::IsingModel p1 = random_problem(8, 2);
  const qubo::IsingModel p2 = random_problem(8, 3);
  const std::vector<const qubo::IsingModel*> problems{&p0, &p1, &p2};

  std::vector<std::vector<std::vector<qubo::SpinVec>>> runs;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    anneal::AnnealerConfig config;
    config.num_threads = threads;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{31337};
    runs.push_back(annealer.sample_batch(problems, 25, rng));
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
}

TEST(ParallelSamplerTest, SamplersAdvanceCallerRngByOneDrawForAnyThreadCount) {
  // Every sampler entry point consumes exactly one draw from the caller's
  // generator, so the caller's downstream stream does not depend on the
  // thread count either.
  const qubo::IsingModel p0 = random_problem(8, 1);
  const qubo::IsingModel p1 = random_problem(8, 2);
  const std::vector<const qubo::IsingModel*> problems{&p0, &p1};
  const auto draws_one_key = [](const auto& call) {
    Rng rng{555};
    call(rng);
    Rng probe{555};
    probe();
    return rng() == probe();
  };
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    anneal::AnnealerConfig config;
    config.num_threads = threads;
    anneal::ChimeraAnnealer chimera(config);
    anneal::LogicalAnnealerConfig logical_config;
    logical_config.num_threads = threads;
    anneal::LogicalAnnealer logical(logical_config);
    EXPECT_TRUE(draws_one_key([&](Rng& rng) { chimera.sample(p0, 20, rng); }))
        << "sample at " << threads << " threads";
    EXPECT_TRUE(draws_one_key(
        [&](Rng& rng) { chimera.sample_batch(problems, 20, rng); }))
        << "sample_batch at " << threads << " threads";
    EXPECT_TRUE(draws_one_key(
        [&](Rng& rng) { chimera.sample_each(problems, 20, rng); }))
        << "sample_each at " << threads << " threads";
    EXPECT_TRUE(draws_one_key([&](Rng& rng) { logical.sample(p0, 20, rng); }))
        << "LogicalAnnealer::sample at " << threads << " threads";
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t lanes : {8ul, 4ul, 1ul}) {
    core::ThreadPool pool(lanes);
    ASSERT_EQ(pool.size(), lanes);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.parallel_for(hits.size(), [&](std::size_t a) { ++hits[a]; });
    for (std::size_t a = 0; a < hits.size(); ++a)
      EXPECT_EQ(hits[a], 1) << "index " << a << " at " << lanes << " lanes";
  }
}

TEST(ParallelSamplerTest, SampleEachMatchesPerProblemStreams) {
  // sample_each(p) must equal sampling problem p alone with stream p — the
  // per-problem decomposition is part of the determinism contract.
  const qubo::IsingModel p0 = random_problem(10, 11);
  const qubo::IsingModel p1 = random_problem(10, 12);
  const std::vector<const qubo::IsingModel*> problems{&p0, &p1};

  anneal::AnnealerConfig config;
  config.num_threads = 4;
  anneal::ChimeraAnnealer annealer(config);
  Rng rng{77};
  const auto batched = annealer.sample_each(problems, 30, rng);
  ASSERT_EQ(batched.size(), 2u);

  Rng probe{77};
  const std::uint64_t key = probe();
  EXPECT_EQ(rng(), probe()) << "sample_each must draw exactly one key";
  config.num_threads = 1;
  for (std::size_t p = 0; p < problems.size(); ++p) {
    Rng stream = Rng::for_stream(key, p);
    anneal::ChimeraAnnealer solo(config);
    EXPECT_EQ(batched[p], solo.sample(*problems[p], 30, stream)) << "problem " << p;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyExceptions) {
  // The first exception a body throws reaches the caller, and the pool
  // serves its next job in full.
  for (const std::size_t lanes : {8ul, 4ul, 1ul}) {
    core::ThreadPool pool(lanes);
    EXPECT_THROW(pool.parallel_for(64,
                                   [](std::size_t a) {
                                     if (a == 13) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error)
        << lanes << " lanes";
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(64, [&](std::size_t a) { sum += a; });
    EXPECT_EQ(sum, 64u * 63u / 2u) << lanes << " lanes";
  }
}

TEST(ParallelSamplerTest, EightLanesRunConcurrently) {
  // Each of eight blocks waits until all eight have entered, so the fan-out
  // passes only when eight lanes hold a block at the same time — run
  // serially, the first block would wait forever.  A block that waits past
  // the deadline gives up and fails the test instead of hanging it.  Host
  // load can delay the rendezvous but not fail it.  (The wall-clock 1-vs-8
  // lane ratio is a CI bench gate: BM_LogicalSampleLanes.)
  constexpr std::size_t kLanes = 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::mutex mu;
  std::condition_variable all_in;
  std::size_t entered = 0;
  std::size_t timed_out = 0;
  core::ThreadPool pool(kLanes);
  Rng rng{7};
  core::run_stream_blocks(
      &pool, kLanes, 1, rng, [&](std::size_t, std::vector<Rng>&) {
        std::unique_lock<std::mutex> lock(mu);
        if (++entered == kLanes) all_in.notify_all();
        if (!all_in.wait_until(lock, deadline,
                               [&] { return entered == kLanes; }))
          ++timed_out;
      });
  EXPECT_EQ(timed_out, 0u) << timed_out << " of " << kLanes
                            << " blocks gave up waiting for the others";
}

}  // namespace
}  // namespace quamax
