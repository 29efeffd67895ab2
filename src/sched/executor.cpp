#include "quamax/sched/executor.hpp"

#include <algorithm>
#include <vector>

#include "quamax/common/error.hpp"
#include "quamax/common/rng.hpp"
#include "quamax/core/transform.hpp"
#include "quamax/metrics/solution_stats.hpp"
#include "quamax/sched/scheduler.hpp"
#include "quamax/vpp/precode.hpp"
#include "quamax/wireless/channel.hpp"

namespace quamax::sched {
namespace {

/// Ground-state test sharing metrics::kEnergyTolerance so scheduler records
/// and the metrics layer agree on the same samples by construction.
bool reaches_ground(double best_energy, double ground_energy) {
  return best_energy <= ground_energy + metrics::kEnergyTolerance;
}

}  // namespace

Executor::Executor(const SchedConfig& config, DeviceSet& devices)
    : devices_(devices),
      wave_config_(config.annealer),
      pool_(config.num_threads),
      cold_quota_(config.num_anneals),
      warm_quota_(Scheduler::warm_quota(config)),
      keep_seeds_(config.warm_start),
      warm_schedule_(Scheduler::warm_schedule(config)) {
  wave_config_.num_threads = 1;
  // warm_key_ is drawn AFTER decode_key_ from the same root, so cold waves
  // keep their historical streams and warm waves can never collide with
  // them for any wave id.
  Rng root(config.seed);
  decode_key_ = root();
  warm_key_ = root();
}

void Executor::execute_due(double t_us, const std::vector<serve::Wave>& waves,
                           const std::vector<serve::CellJob>& jobs,
                           std::vector<serve::JobRecord>& records) {
  std::vector<std::size_t> due;
  while (!due_.empty() && due_.top().first <= t_us) {
    due.push_back(due_.top().second);
    due_.pop();
  }
  if (due.empty()) return;
  if (keep_seeds_) seeds_.resize(jobs.size());
  // Each level extends until a warm wave reads a seed slot no decode has
  // filled yet.  Its predecessor's wave completes strictly before it
  // (pred completion <= dependent dispatch < dependent completion), so it
  // sits strictly earlier in this (completion, id) order — in an earlier
  // execute_due call or an earlier level — and the partition depends only
  // on the virtual-clock wave log, never on poll cadence.  A cold-only
  // backlog is one level.
  const auto seeded = [&](const serve::Wave& wave) {
    return std::none_of(wave.seeds.begin(), wave.seeds.end(),
                        [&](std::size_t pred) { return seeds_[pred].empty(); });
  };
  std::size_t start = 0;
  while (start < due.size()) {
    std::size_t end = start;
    while (end < due.size() && seeded(waves[due[end]])) ++end;
    require(end > start,
            "Executor::execute_due: warm wave scheduled before its "
            "predecessor wave");
    pool_.parallel_for(end - start, [&](std::size_t i) {
      run_wave(waves[due[start + i]], jobs, records);
    });
    start = end;
  }
}

void Executor::run_wave(const serve::Wave& wave,
                        const std::vector<serve::CellJob>& jobs,
                        std::vector<serve::JobRecord>& records) {
  anneal::ChimeraAnnealer annealer(wave_config_, devices_.cache(wave.device));

  std::vector<const qubo::IsingModel*> problems;
  problems.reserve(wave.jobs.size());
  for (const std::size_t seq : wave.jobs) problems.push_back(&jobs[seq].ising());

  std::vector<std::vector<qubo::SpinVec>> samples;
  if (wave.warm) {
    // Reverse anneal from each member's predecessor configuration, at the
    // warm quota, on the warm key family — cold waves' streams are never
    // touched by this draw.
    std::vector<const qubo::SpinVec*> initial;
    initial.reserve(wave.seeds.size());
    for (const std::size_t pred : wave.seeds) initial.push_back(&seeds_[pred]);
    Rng stream = Rng::for_stream(warm_key_, wave.id);
    samples = annealer.sample_batch_seeded(problems, initial, warm_schedule_,
                                           warm_quota_, stream);
  } else {
    Rng stream = Rng::for_stream(decode_key_, wave.id);
    samples = annealer.sample_batch(problems, cold_quota_, stream);
  }

  for (std::size_t s = 0; s < wave.jobs.size(); ++s) {
    const serve::CellJob& job = jobs[wave.jobs[s]];
    serve::JobRecord& record = records[wave.jobs[s]];

    // Best-of-N_a, exactly the QuAMaxDetector policy: keep the
    // lowest-energy configuration.
    const qubo::IsingModel& ising = job.ising();
    const qubo::SpinVec* best = nullptr;
    double best_energy = 0.0;
    for (const qubo::SpinVec& sample : samples[s]) {
      const double energy = ising.energy(sample);
      if (best == nullptr || energy < best_energy) {
        best = &sample;
        best_energy = energy;
      }
    }

    if (job.downlink()) {
      // Downlink: the sample is a perturbation vector, clipped so the job
      // never transmits worse than zero-forcing.
      const vpp::PrecodeInstance& instance = job.precode();
      record.bit_errors = vpp::downlink_bit_errors(
          instance, vpp::clip_to_zero_forcing(instance, *best, best_energy));
      record.num_bits = instance.tx_bits.size();
      record.ground_state = reaches_ground(
          std::min(best_energy, instance.zf_energy), instance.ground_energy);
      continue;
    }

    // Uplink: post-translate the decoded configuration to Gray bits.
    const sim::Instance& instance = job.uplink();
    // Keep the best configuration as the warm-start seed of a dependent
    // subframe.  Only this lane writes the slot, and the dependent wave
    // reads it in a later execute_due level.
    if (keep_seeds_) seeds_[wave.jobs[s]] = *best;
    const wireless::BitVec decoded = core::gray_bits_from_spins(
        *best, instance.use.h.cols(), instance.use.mod);
    record.bit_errors =
        wireless::count_bit_errors(decoded, instance.use.tx_bits);
    record.num_bits = instance.use.tx_bits.size();
    record.ground_state = reaches_ground(best_energy, instance.ground_energy);
  }
}

}  // namespace quamax::sched
