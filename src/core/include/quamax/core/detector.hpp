// End-to-end QuAMax decoding pipeline (paper §3.2.1 "QuAMax decoding
// example" and §4):
//
//   1. reduce the ML problem for (H, y) to Ising form (closed-form
//      coefficients when the paper provides them);
//   2. submit one QA run of N_a anneals to the sampler;
//   3. keep the lowest-Ising-energy configuration found;
//   4. post-translate QuAMax-transform labels to Gray-coded bits (Fig. 2).
//
// The detector also exposes the raw per-anneal samples so the evaluation
// layer can compute the paper's rank statistics (Figs. 4, 12) and the Eq. 9
// expected-BER curves without re-running the machine.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "quamax/core/reduction.hpp"
#include "quamax/core/sampler.hpp"
#include "quamax/wireless/channel.hpp"

namespace quamax::core {

/// Outcome of one QA run (a batch of N_a anneals) on one channel use.
struct DetectionResult {
  BitVec bits;                ///< decoded Gray-coded bits (best anneal)
  qubo::SpinVec best_spins;   ///< best configuration in solution space
  double best_energy = 0.0;   ///< its Ising energy (excluding offset)
  double best_metric = 0.0;   ///< its ML metric ||y - Hv||^2
  std::size_t num_anneals = 0;  ///< N_a actually run for this result
  /// All per-anneal configurations, in anneal order (for rank statistics).
  std::vector<qubo::SpinVec> samples;
  /// Per-anneal Ising energies, aligned with `samples`.
  std::vector<double> energies;
};

/// Detector configuration.
struct DetectorConfig {
  std::size_t num_anneals = 50;  ///< N_a per QA run
  bool keep_samples = true;      ///< retain per-anneal data for metrics
};

class QuAMaxDetector {
 public:
  /// The sampler is borrowed and must outlive the detector.
  QuAMaxDetector(IsingSampler& sampler, DetectorConfig config)
      : sampler_(&sampler), config_(config) {}

  /// Reduces, samples, and decodes one channel use.
  DetectionResult detect(const wireless::ChannelUse& use, Rng& rng) const;

  /// Same, for a caller-provided reduced problem (lets the evaluation layer
  /// reduce once and re-run many parameter settings).
  DetectionResult run(const MlProblem& problem, Rng& rng) const;

  /// The configuration the detector was built with.
  const DetectorConfig& config() const noexcept { return config_; }

 private:
  IsingSampler* sampler_;
  DetectorConfig config_;
};

}  // namespace quamax::core
