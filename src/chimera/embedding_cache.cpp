#include "quamax/chimera/embedding_cache.hpp"

namespace quamax::chimera {

std::shared_ptr<const Embedding> EmbeddingCache::clique(std::size_t num_logical) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto hit = clique_.find(num_logical);
  if (hit == clique_.end()) {
    // Insert only on success: a throwing placement search must not leave a
    // null entry behind for later lookups to trip on.
    hit = clique_
              .emplace(num_logical, std::make_shared<const Embedding>(
                                        find_clique_embedding(num_logical, graph_)))
              .first;
  }
  return hit->second;
}

std::shared_ptr<const std::vector<Embedding>> EmbeddingCache::parallel(
    std::size_t num_logical) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto hit = parallel_.find(num_logical);
  if (hit == parallel_.end()) {
    // num_qubits() over-counts any possible placement count, so the search
    // returns every slot the tiling yields — the chip's true capacity.
    // Insert only on success (see clique()).
    hit = parallel_
              .emplace(num_logical,
                       std::make_shared<const std::vector<Embedding>>(
                           find_parallel_embeddings(num_logical,
                                                    graph_.num_qubits(), graph_)))
              .first;
  }
  return hit->second;
}

std::size_t EmbeddingCache::capacity(std::size_t num_logical) {
  return parallel(num_logical)->size();
}

void EmbeddingCache::invalidate(ChimeraGraph graph) {
  const std::lock_guard<std::mutex> lock(mu_);
  graph_ = std::move(graph);
  clique_.clear();
  parallel_.clear();
  infeasible_.clear();
}

std::size_t EmbeddingCache::try_capacity(std::size_t num_logical) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (infeasible_.count(num_logical) != 0) return 0;
    const auto hit = parallel_.find(num_logical);
    if (hit != parallel_.end()) return hit->second->size();
  }
  try {
    return parallel(num_logical)->size();
  } catch (const CapacityError&) {
    const std::lock_guard<std::mutex> lock(mu_);
    infeasible_.insert(num_logical);
    return 0;
  }
}

}  // namespace quamax::chimera
