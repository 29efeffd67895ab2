// Abstraction over "a machine that draws low-energy samples from an Ising
// model".  The paper's machine is the D-Wave 2000Q; this library provides a
// classical stand-in (anneal::ChimeraAnnealer) plus simpler solvers used as
// oracles and ablations.  Each anneal is an i.i.d. draw — the assumption
// underlying the paper's TTS / Eq. 9 statistics.
#pragma once

#include <cstddef>
#include <vector>

#include "quamax/common/rng.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::core {

class IsingSampler {
 public:
  virtual ~IsingSampler() = default;

  /// Draws `num_anneals` independent spin configurations for `problem`.
  /// Configurations are expressed over the LOGICAL problem variables
  /// (implementations that embed must unembed before returning).
  ///
  /// Concurrency contract: sampler instances are stateful (embedding
  /// caches, diagnostics) and need NOT be safe for concurrent sample()
  /// calls; multi-problem fan-out goes through
  /// anneal::ChimeraAnnealer::sample_each, which fans the problems over the
  /// annealer's own lanes.  Implementations parallelize INTERNALLY over
  /// their anneal loop (see AnnealerConfig::num_threads) with
  /// core::run_stream_blocks, and must draw all randomness through
  /// counter-derived streams of `rng` so that output is bit-identical for
  /// a fixed seed at any thread count.
  virtual std::vector<qubo::SpinVec> sample(const qubo::IsingModel& problem,
                                            std::size_t num_anneals,
                                            Rng& rng) = 0;

  /// Wall-clock duration of one anneal in microseconds (T_a + T_p for the
  /// annealer; a calibrated CPU-time figure for classical solvers).
  virtual double anneal_duration_us() const = 0;

  /// Chip parallelization factor P_f ~= N_tot / (N * (ceil(N/4)+1)) for a
  /// problem with `num_logical` variables (paper §4); 1 when the concept
  /// does not apply.
  virtual double parallelization_factor(std::size_t num_logical) const {
    (void)num_logical;
    return 1.0;
  }
};

}  // namespace quamax::core
