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
// ChimeraAnnealer::sample_each fans whole problems across lanes through
// run(), one one-lane annealer per problem.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/core/thread_pool.hpp"

namespace quamax::core {

class ParallelBatchSampler {
 public:
  /// `num_threads`: 1 = serial baseline (no threads spawned), 0 = one lane
  /// per hardware thread, N = exactly N lanes.
  explicit ParallelBatchSampler(std::size_t num_threads = 1);

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

 private:
  ThreadPool pool_;
};

}  // namespace quamax::core
