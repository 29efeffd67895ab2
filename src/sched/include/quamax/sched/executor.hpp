// quamax::sched::Executor — the wall-clock half of the scheduler: decode
// compute for the waves sched::Scheduler dispatches on the virtual clock.
// It owns the lane pool, the decode and warm RNG keys, the warm seed slots
// and the queued waves, and no virtual-clock state, so nothing it does can
// move a dispatch decision.
//
// Wave w draws all randomness from Rng::for_stream(key, w) on a one-lane
// annealer built for the wave on its device's embedding cache (the
// DeviceSet's current chip, defect growths included) and writes only its
// members' decode fields (bit_errors, num_bits, ground_state) and seed
// slots, so records
// are bit-identical at any lane count, replica block size and collect()
// cadence.  A warm wave reads its members' predecessors' seed slots, which
// the predecessor wave's decode lane fills; due waves therefore run in
// dependency LEVELS, each ending at the first warm wave that reads an
// empty slot, and a level's lanes finish before the next level starts, so
// the slots need no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/thread_pool.hpp"
#include "quamax/sched/device_set.hpp"
#include "quamax/serve/job.hpp"

namespace quamax::sched {

struct SchedConfig;

class Executor {
 public:
  /// Decodes on `devices` — the very pool the scheduler routes on, so a
  /// defect growth it applies is the topology the next decode samples.
  /// The pool must outlive the executor.
  Executor(const SchedConfig& config, DeviceSet& devices);

  /// Queues a dispatched wave that did not fail; it decodes once an
  /// execute_due() horizon reaches its completion time.
  void queue(const serve::Wave& wave) {
    due_.emplace(wave.completion_us, wave.id);
  }

  /// Decodes every queued wave completed by `t_us`, fanned across the
  /// lanes level by level.  `waves` and `jobs` are the scheduler's wave
  /// log and jobs by sequence number; only the decode fields of the
  /// members' `records` are written.
  void execute_due(double t_us, const std::vector<serve::Wave>& waves,
                   const std::vector<serve::CellJob>& jobs,
                   std::vector<serve::JobRecord>& records);

 private:
  void run_wave(const serve::Wave& wave,
                const std::vector<serve::CellJob>& jobs,
                std::vector<serve::JobRecord>& records);

  DeviceSet& devices_;
  /// The annealer config of every wave: one lane, since the pool already
  /// parallelizes ACROSS waves.
  anneal::AnnealerConfig wave_config_;
  core::ThreadPool pool_;
  std::uint64_t decode_key_ = 0;
  std::uint64_t warm_key_ = 0;  ///< disjoint stream family for warm waves
  std::size_t cold_quota_ = 0;  ///< N_a of a cold wave
  std::size_t warm_quota_ = 0;  ///< N_a of a warm wave
  bool keep_seeds_ = false;     ///< warm_start: record uplink seeds
  anneal::Schedule warm_schedule_;  ///< reverse schedule warm waves run
  /// Warm-start seeds by sequence number: an uplink job's best decoded
  /// configuration (warm_start only; empty until its wave decodes).
  std::vector<qubo::SpinVec> seeds_;
  /// Queued waves as (completion time, id): collect() only touches newly
  /// due waves, never rescanning the history.
  using Due = std::pair<double, std::size_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due_;
};

}  // namespace quamax::sched
