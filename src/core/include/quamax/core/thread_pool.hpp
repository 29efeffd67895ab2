// Minimal persistent thread pool and the deterministic fan-out built on it.
//
// The pool owns `size() - 1` worker threads; the caller of parallel_for is
// the remaining lane, so a pool of size 1 spawns no threads and runs inline
// (the serial baseline).  Work is distributed by an atomic index counter:
// each lane pulls the next unclaimed index until the range is drained.
// Determinism is the CALLER's contract — bodies must write only to
// per-index slots and draw randomness only from per-index sources, so the
// claim order never affects results.  Bodies see only their index, never
// which lane runs them: state a body needs is built inside it or shared
// read-only.
//
// run_stream_blocks supplies the per-index sources.  The paper's machine
// gets throughput from many independent anneals per unit time; the
// classical stand-in gets it from lanes.  Each anneal is an i.i.d. draw, so
// the only coupling between anneals in serial code is the shared Rng, and
// counter-derived streams cut it: one key drawn from the caller's
// generator, index `a` annealed on Rng::for_stream(key, a).  The output is
// then a pure function of (seed, problem, count), bit-identical at any lane
// count.  Samplers fan their anneal loops over it in replica blocks
// (anneal::ChimeraAnnealer, anneal::LogicalAnnealer), and
// ChimeraAnnealer::sample_each fans whole problems over it in blocks of one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "quamax/common/rng.hpp"

namespace quamax::core {

class ThreadPool {
 public:
  /// `num_threads` total lanes including the caller; 0 means one lane per
  /// hardware thread.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (worker threads + the calling thread).
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs body(i) for every i in [0, count), blocking until all complete.
  /// The calling thread participates.  If any body throws, the remaining
  /// indices are abandoned and the first exception is rethrown here.
  /// One job at a time: concurrent calls from different threads serialize.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Maps a user-facing thread-count knob to a concrete lane count:
  /// 0 -> hardware concurrency (at least 1), anything else -> itself.
  static std::size_t resolve(std::size_t requested) noexcept;

 private:
  void worker_loop();
  void drain(const std::function<void(std::size_t)>& body, std::size_t count);

  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  ///< serializes parallel_for callers

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;
};

/// The deterministic fan-out primitive.  Draws ONE key from `rng` (no draw
/// when count == 0), partitions [0, count) into contiguous blocks of at most
/// max(1, block) indices and runs job(begin, streams) once per block, where
/// streams[j] == Rng::for_stream(key, begin + j).  Index `a` therefore gets
/// the same stream whatever the block size or lane count, so a job that
/// writes only the slots [begin, begin + streams.size()) produces results
/// independent of both.  Blocks run on `pool` (its parallel_for: blocking,
/// first exception rethrown), or inline on the calling thread when `pool`
/// is null — the form for fan-outs nested inside a lane of another one.
void run_stream_blocks(
    ThreadPool* pool, std::size_t count, std::size_t block, Rng& rng,
    const std::function<void(std::size_t, std::vector<Rng>&)>& job);

}  // namespace quamax::core
