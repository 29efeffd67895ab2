// Shape-keyed cache of compiled Chimera placements.
//
// A compiled placement (find_clique_embedding / find_parallel_embeddings:
// the placement search plus its layout — compact index, chain-bond and
// logical-pair coupler slots, sorted coupler order) depends only on the
// problem SHAPE — its logical variable count — and the chip graph, never on
// the problem's coefficients.  A C-RAN decode service repeats the same
// handful of shapes (one per modulation x user-count combination) millions
// of times, so placements are compiled once and shared by every
// ChimeraAnnealer built on the same cache — ChimeraAnnealer(config, cache):
// each wave's annealer on a sched::DeviceSet device, each problem's in
// ChimeraAnnealer::sample_each.  The cache's graph is the chip those
// annealers anneal on.  Per job, embed() only scatters coefficients into a
// cached layout.
//
// Thread safety: all lookup methods are safe for concurrent callers.  Cached
// values are immutable and returned as shared_ptr-to-const, so a reference
// obtained by one lane stays valid while other lanes insert new shapes.
// Compilation happens under the cache lock — the first caller of a shape
// pays it, everyone after hits the table and reads the layout lock-free.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "quamax/chimera/embedding.hpp"
#include "quamax/chimera/graph.hpp"

namespace quamax::chimera {

class EmbeddingCache {
 public:
  /// Binds the cache to (a copy of) the chip graph all placements target —
  /// the chip of every annealer built on the cache.
  explicit EmbeddingCache(ChimeraGraph graph) : graph_(std::move(graph)) {}

  /// The chip graph the cached placements were compiled for.
  const ChimeraGraph& graph() const noexcept { return graph_; }

  /// The single compiled triangle clique placement for `num_logical`
  /// variables (find_clique_embedding).  Throws CapacityError when it does
  /// not fit.
  std::shared_ptr<const Embedding> clique(std::size_t num_logical);

  /// The maximal set of disjoint compiled clique placements for
  /// `num_logical` variables (find_parallel_embeddings at full chip
  /// capacity).  Callers
  /// wanting fewer slots use a prefix — the tiling is deterministic, so a
  /// prefix of the maximal set equals a smaller compilation's result.
  std::shared_ptr<const std::vector<Embedding>> parallel(std::size_t num_logical);

  /// Number of `num_logical`-variable problems one chip anneal can serve —
  /// parallel(num_logical)->size(); the wave-packing capacity bound.
  std::size_t capacity(std::size_t num_logical);

  /// Like capacity(), but returns 0 when the shape does not embed on this
  /// chip instead of throwing — and caches the infeasibility, so a
  /// multi-device scheduler can route shapes around a defective device
  /// without paying the failed placement search on every query.
  std::size_t try_capacity(std::size_t num_logical);

  /// Rebinds the cache to a new chip topology and discards every cached
  /// placement with its compiled layout — positive AND negative
  /// (try_capacity) entries, which would otherwise go stale in both
  /// directions when a defect map changes (placements routed through
  /// now-dead qubits; shapes marked infeasible that the new topology might
  /// serve).  Values already handed out stay
  /// valid for their holders (shared_ptr-to-const); only the table forgets
  /// them, so the cache object's identity survives the swap.  No annealer
  /// built on the cache may be sampling during the call.
  void invalidate(ChimeraGraph graph);

 private:
  ChimeraGraph graph_;
  std::mutex mu_;
  std::map<std::size_t, std::shared_ptr<const Embedding>> clique_;
  std::map<std::size_t, std::shared_ptr<const std::vector<Embedding>>> parallel_;
  std::set<std::size_t> infeasible_;  ///< shapes that failed to embed
};

}  // namespace quamax::chimera
