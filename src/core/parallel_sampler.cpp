#include "quamax/core/parallel_sampler.hpp"

#include <algorithm>
#include <map>

#include "quamax/common/error.hpp"

namespace quamax::core {

ParallelBatchSampler::ParallelBatchSampler(std::size_t num_threads)
    : pool_(num_threads) {}

void ParallelBatchSampler::run(std::size_t count, Rng& rng,
                               const std::function<void(std::size_t, Rng&)>& job) {
  if (count == 0) return;
  const std::uint64_t key = rng();
  pool_.parallel_for(count, [&](std::size_t a) {
    Rng stream = Rng::for_stream(key, a);
    job(a, stream);
  });
}

void ParallelBatchSampler::run_blocks(
    std::size_t count, std::size_t max_block, Rng& rng,
    const std::function<void(std::size_t, std::vector<Rng>&)>& job) {
  if (count == 0) return;
  const std::size_t block = std::max<std::size_t>(1, max_block);
  const std::size_t num_blocks = (count + block - 1) / block;
  const std::uint64_t key = rng();
  pool_.parallel_for(num_blocks, [&](std::size_t b) {
    const std::size_t begin = b * block;
    const std::size_t size = std::min(block, count - begin);
    std::vector<Rng> streams;
    streams.reserve(size);
    for (std::size_t j = 0; j < size; ++j)
      streams.push_back(Rng::for_stream(key, begin + j));
    job(begin, streams);
  });
}

std::vector<std::vector<qubo::SpinVec>> ParallelBatchSampler::sample_problems(
    const SamplerFactory& factory,
    const std::vector<const qubo::IsingModel*>& problems,
    std::size_t num_anneals, Rng& rng, const ProblemHook& after) {
  require(static_cast<bool>(factory), "sample_problems: null sampler factory");
  for (const auto* p : problems)
    require(p != nullptr, "sample_problems: null problem pointer");
  if (problems.empty()) return {};

  // One sampler cache per lane, keyed by problem shape.  A lane value is
  // held by exactly one thread at a time (ThreadPool contract), so the
  // caches need no locks; determinism holds because samplers are pure in
  // (problem, num_anneals, stream) regardless of which lane serves a
  // problem or what it sampled before.
  std::vector<std::map<std::size_t, std::unique_ptr<IsingSampler>>> caches(
      pool_.size());

  std::vector<std::vector<qubo::SpinVec>> results(problems.size());
  const std::uint64_t key = rng();
  pool_.parallel_for_lanes(problems.size(), [&](std::size_t lane, std::size_t p) {
    Rng stream = Rng::for_stream(key, p);
    std::unique_ptr<IsingSampler>& sampler = caches[lane][problems[p]->num_spins()];
    if (sampler == nullptr) sampler = factory();
    results[p] = sampler->sample(*problems[p], num_anneals, stream);
    if (after) after(p, *sampler);
  });
  return results;
}

}  // namespace quamax::core
