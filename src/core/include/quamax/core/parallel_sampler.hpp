// Deterministic multi-threaded batch-anneal runtime.
//
// The paper's machine gets throughput from running many independent anneals
// (and, via §4 parallel embeddings, many problems) per unit time; the
// classical stand-in gets the same from cores.  Each anneal is an i.i.d.
// draw, so the fan-out is embarrassingly parallel — the only coupling
// between anneals in the serial code is the shared Rng.  This runtime cuts
// that coupling with counter-derived streams: it draws ONE 64-bit key from
// the caller's generator, hands anneal `a` the generator Rng::for_stream(key,
// a), and writes results into per-index slots.  The output is therefore a
// pure function of (seed, problem, count) — bit-identical at any thread
// count, which parallel_sampler_test.cpp checks property-style.
//
// Samplers use run_blocks() internally to fan their anneal loops in
// replica-sized blocks over the SA kernel's batched entry points (the
// engine is const and shares read-only state across lanes);
// sample_problems() is the multi-problem front end used by sweep drivers,
// where worker lanes draw sampler instances from a lane-local cache keyed
// by problem shape so per-sampler embedding work is amortized across the
// batch.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/core/sampler.hpp"
#include "quamax/core/thread_pool.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::core {

class ParallelBatchSampler {
 public:
  /// `num_threads`: 1 = serial baseline (no threads spawned), 0 = one lane
  /// per hardware thread, N = exactly N lanes.
  explicit ParallelBatchSampler(std::size_t num_threads = 1);

  /// Lanes available to run(), run_blocks(), and sample_problems().
  std::size_t num_threads() const noexcept { return pool_.size(); }

  /// The deterministic fan-out primitive.  Draws one key from `rng` (exactly
  /// one draw, regardless of thread count), then runs job(a, stream_a) for
  /// every a in [0, count) with stream_a = Rng::for_stream(key, a).  Jobs
  /// must confine writes to per-index slots; under that contract the result
  /// does not depend on thread count or scheduling.  Blocks until done; the
  /// first exception thrown by a job is rethrown.
  void run(std::size_t count, Rng& rng,
           const std::function<void(std::size_t, Rng&)>& job);

  /// Blocked fan-out for replica-batched kernels: partitions [0, count)
  /// into contiguous blocks of at most `max_block` indices and runs
  /// job(begin, streams) once per block, where streams[j] ==
  /// Rng::for_stream(key, begin + j) for j in [0, streams.size()) — the
  /// SAME per-index streams run() would hand out, and again exactly one
  /// draw from `rng`.  A job that feeds its streams to
  /// SaEngine::anneal_batch* therefore produces per-index results
  /// bit-identical to per-index run() jobs, for any block size and thread
  /// count.  Jobs must confine writes to the slots [begin, begin +
  /// streams.size()).  max_block == 1 degenerates to run().
  void run_blocks(
      std::size_t count, std::size_t max_block, Rng& rng,
      const std::function<void(std::size_t, std::vector<Rng>&)>& job);

  /// Builds a sampler for one problem's job.  Factories are invoked
  /// concurrently and must be callable from any thread.  Configure the
  /// produced samplers with num_threads = 1: the pool already parallelizes
  /// across problems, and nested lanes only oversubscribe the cores.
  using SamplerFactory = std::function<std::unique_ptr<IsingSampler>()>;

  /// Optional per-problem diagnostic tap for sample_problems: invoked as
  /// after(p, sampler) on the worker lane immediately after problem p's
  /// samples are drawn, with the sampler that drew them (before that
  /// sampler serves any other problem).  Lets callers harvest per-call
  /// sampler state — e.g. ChimeraAnnealer::last_broken_chain_fraction —
  /// that the lane-local cache would otherwise overwrite.  The hook must
  /// confine writes to per-index slots (the determinism contract).
  using ProblemHook = std::function<void(std::size_t, IsingSampler&)>;

  /// Fans `problems` across the pool: problem p is drawn `num_anneals` times
  /// with stream p by a sampler built on the worker by `factory` (samplers
  /// are stateful — embedding caches, diagnostics — so they are never shared
  /// between concurrent jobs).  Each lane keeps a private sampler cache
  /// keyed by problem shape (variable count), so a sweep over many
  /// same-size problems pays a sampler construction + embedding compilation
  /// once per lane instead of once per problem; samplers are required to be
  /// pure in (problem, num_anneals, stream), so the cache cannot change
  /// results (batch_replica_test.cpp checks them against fresh per-problem
  /// samplers).
  /// The cache lives for one call — factories may differ between calls.
  /// Returns one sample set per problem, in input order.
  std::vector<std::vector<qubo::SpinVec>> sample_problems(
      const SamplerFactory& factory,
      const std::vector<const qubo::IsingModel*>& problems,
      std::size_t num_anneals, Rng& rng, const ProblemHook& after = nullptr);

 private:
  ThreadPool pool_;
};

}  // namespace quamax::core
