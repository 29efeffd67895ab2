// chimera::EmbeddingCache — concurrent mixed-shape access and per-device
// (topology-distinct) keying (ISSUE 5 satellite).
//
// The cache backs every serve/sched worker fleet: many lanes hammer it with
// interleaved clique/parallel/capacity lookups for a handful of shapes, and
// a multi-device scheduler keys one cache per chip topology.  Contracts:
//   * concurrent mixed-shape insert/lookup returns ONE immutable placement
//     object per (cache, shape) — every caller sees the same pointer — and
//     a compiled placement read by many threads fills exactly as it does
//     on one;
//   * placements compiled for defect-distinct graphs differ (per-device
//     keying is real, not cosmetic), and same_topology gates cache sharing;
//   * try_capacity caches infeasibility (0) without throwing, while
//     capacity() keeps the throwing contract.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/chimera/embedding_cache.hpp"
#include "quamax/chimera/graph.hpp"
#include "quamax/common/error.hpp"
#include "quamax/sched/device_set.hpp"

namespace quamax::chimera {
namespace {

/// Stride-4 dead rows (sched::dead_row_fault_map): 16-logical-qubit
/// cliques (4 rows on the shore-4 chip) cannot embed while 8-qubit cliques
/// (2 rows) keep half their tiling.
ChimeraGraph dead_row_graph() {
  ChimeraGraph graph;
  for (const Qubit q : sched::dead_row_fault_map(graph, 4))
    graph.disable_qubit(q);
  return graph;
}

/// A fixed random clique problem of `n` variables.
qubo::IsingModel fixed_problem(std::size_t n) {
  Rng rng{n};
  qubo::IsingModel problem(n);
  for (std::size_t i = 0; i < n; ++i) problem.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) problem.add_coupling(i, j, rng.normal());
  return problem;
}

bool same_fill(const EmbeddedProblem& a, const EmbeddedProblem& b) {
  if (a.physical.fields() != b.physical.fields() ||
      a.compact_to_qubit != b.compact_to_qubit || a.chains != b.chains ||
      a.physical.couplings().size() != b.physical.couplings().size())
    return false;
  for (std::size_t k = 0; k < a.physical.couplings().size(); ++k) {
    const qubo::Coupling& x = a.physical.couplings()[k];
    const qubo::Coupling& y = b.physical.couplings()[k];
    if (x.i != y.i || x.j != y.j || x.g != y.g) return false;
  }
  return true;
}

TEST(EmbeddingCacheTest, ConcurrentMixedShapeInsertAndLookupAgree) {
  EmbeddingCache cache{ChimeraGraph()};
  const std::vector<std::size_t> shapes{6, 8, 12, 16, 24, 36};
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 25;

  // Single-threaded reference fills of one fixed problem per shape, on the
  // clique placement and the tiling's last slot.
  const EmbedParams params;
  std::vector<qubo::IsingModel> problems;
  std::vector<EmbeddedProblem> clique_fills, slot_fills;
  for (const std::size_t shape : shapes) {
    problems.push_back(fixed_problem(shape));
    clique_fills.push_back(
        embed(problems.back(), find_clique_embedding(shape, cache.graph()), params));
    slot_fills.push_back(embed(
        problems.back(),
        find_parallel_embeddings(shape, cache.graph().num_qubits(), cache.graph())
            .back(),
        params));
  }

  // Every thread loops over every shape repeatedly, mixing first-insert
  // compilation with cache hits, and fills the fixed problem on each
  // placement it gets back; all observed pointers per shape must coincide,
  // every capacity must match its placement count and every fill must
  // match the single-threaded one.
  std::vector<std::vector<std::shared_ptr<const Embedding>>> cliques(kThreads);
  std::vector<std::vector<std::shared_ptr<const std::vector<Embedding>>>>
      parallels(kThreads);
  std::atomic<std::size_t> capacity_mismatches{0};
  std::atomic<std::size_t> fill_mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        // Stagger shape order per thread so first-compilations collide.
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          const std::size_t s = (i + t) % shapes.size();
          const std::size_t shape = shapes[s];
          const auto clique = cache.clique(shape);
          const auto parallel = cache.parallel(shape);
          if (cache.capacity(shape) != parallel->size()) ++capacity_mismatches;
          if (!same_fill(embed(problems[s], *clique, params), clique_fills[s]) ||
              !same_fill(embed(problems[s], parallel->back(), params), slot_fills[s]))
            ++fill_mismatches;
          if (round == 0) {
            cliques[t].push_back(clique);
            parallels[t].push_back(parallel);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(capacity_mismatches.load(), 0u);
  EXPECT_EQ(fill_mismatches.load(), 0u);
  for (const std::size_t shape : shapes) {
    const auto clique = cache.clique(shape);
    const auto parallel = cache.parallel(shape);
    EXPECT_EQ(clique->num_logical, shape);
    EXPECT_GE(parallel->size(), 1u);
    for (std::size_t t = 0; t < kThreads; ++t) {
      // Each thread saw exactly the shared immutable objects.
      bool clique_seen = false, parallel_seen = false;
      for (const auto& p : cliques[t]) clique_seen |= (p == clique);
      for (const auto& p : parallels[t]) parallel_seen |= (p == parallel);
      EXPECT_TRUE(clique_seen) << "thread " << t << " shape " << shape;
      EXPECT_TRUE(parallel_seen) << "thread " << t << " shape " << shape;
    }
  }
}

TEST(EmbeddingCacheTest, TopologyDistinctCachesYieldDistinctPlacements) {
  EmbeddingCache pristine{ChimeraGraph()};
  EmbeddingCache defective{dead_row_graph()};

  ASSERT_FALSE(pristine.graph().same_topology(defective.graph()));

  // Shape 8 embeds on both, but the dead rows halve the parallel tiling
  // and displace at least one placement.
  EXPECT_GT(defective.capacity(8), 0u);
  EXPECT_LT(defective.capacity(8), pristine.capacity(8));
  const auto pristine_slots = pristine.parallel(8);
  const auto defective_slots = defective.parallel(8);
  for (const Embedding& embedding : *defective_slots)
    for (const auto& chain : embedding.chains)
      for (const Qubit q : chain)
        EXPECT_TRUE(defective.graph().is_working(q));

  // Shape 16 needs 4 consecutive cell rows: pristine yes, defective never.
  EXPECT_GT(pristine.capacity(16), 0u);
  EXPECT_EQ(defective.try_capacity(16), 0u);
}

TEST(EmbeddingCacheTest, TryCapacityCachesInfeasibilityWithoutThrowing) {
  EmbeddingCache cache{dead_row_graph()};
  // First call pays the failed search; the second must hit the negative
  // cache (and still not throw).
  EXPECT_EQ(cache.try_capacity(16), 0u);
  EXPECT_EQ(cache.try_capacity(16), 0u);
  // The throwing contract is untouched.
  EXPECT_THROW(cache.capacity(16), CapacityError);
  EXPECT_THROW(cache.parallel(16), CapacityError);
  // Feasible shapes report identically through both entry points.
  EXPECT_EQ(cache.try_capacity(8), cache.capacity(8));
}

TEST(EmbeddingCacheTest, FailedSearchLeavesNoPoisonedEntryBehind) {
  // Regression: a throwing capacity()/parallel() call must not leave a null
  // slot in the table that a later try_capacity fast path dereferences.
  EmbeddingCache cache{dead_row_graph()};
  EXPECT_THROW(cache.capacity(16), CapacityError);
  EXPECT_EQ(cache.try_capacity(16), 0u);
  EXPECT_THROW(cache.clique(16), CapacityError);
  EXPECT_THROW(cache.clique(16), CapacityError);  // still throws, no null hit
}

TEST(EmbeddingCacheTest, InvalidateSwapsTopologyAndPreservesHandedOutPointers) {
  // Mid-run defect growth (fault::DefectGrowth) invalidates the device's
  // cache IN PLACE: the cache object identity survives (workers and the
  // DeviceSet keep their shared_ptr), already-handed-out placements stay
  // valid immutable objects, and fresh lookups compile on the new topology.
  EmbeddingCache cache{ChimeraGraph()};
  const auto clique = cache.clique(8);
  const auto parallel = cache.parallel(8);
  const std::size_t pristine_cap = cache.capacity(8);
  EXPECT_GT(cache.capacity(16), 0u);  // feasible (and cached) pre-growth

  cache.invalidate(dead_row_graph());
  ASSERT_TRUE(cache.graph().same_topology(dead_row_graph()));
  // The old placement objects are untouched by the swap.
  EXPECT_EQ(clique->num_logical, 8u);
  EXPECT_EQ(parallel->size(), pristine_cap);
  // Fresh lookups see the defective chip: fewer shape-8 slots, and shape 16
  // (cached feasible before on the pristine chip) now reports infeasible —
  // the negative table was rebuilt too.
  EXPECT_LT(cache.capacity(8), pristine_cap);
  EXPECT_NE(cache.parallel(8), parallel);
  EXPECT_EQ(cache.try_capacity(16), 0u);
}

TEST(EmbeddingCacheTest, AnnealerRejectsTopologyMismatchedCache) {
  // An annealer built on a cache anneals on the cache's chip, defects
  // included; a cache whose grid or shore differs from the config throws.
  const anneal::AnnealerConfig config;
  const auto dead_rows = std::make_shared<EmbeddingCache>(dead_row_graph());
  const anneal::ChimeraAnnealer annealer(config, dead_rows);
  EXPECT_EQ(annealer.embedding_cache(), dead_rows);
  EXPECT_TRUE(annealer.graph().same_topology(dead_row_graph()));
  EXPECT_FALSE(annealer.graph().same_topology(ChimeraGraph()));

  EXPECT_THROW((anneal::ChimeraAnnealer{
                   config, std::make_shared<EmbeddingCache>(ChimeraGraph(8))}),
               InvalidArgument);
  EXPECT_THROW((anneal::ChimeraAnnealer{
                   config, std::make_shared<EmbeddingCache>(ChimeraGraph(16, 12))}),
               InvalidArgument);
  EXPECT_THROW((anneal::ChimeraAnnealer{config, nullptr}), InvalidArgument);
}

}  // namespace
}  // namespace quamax::chimera
