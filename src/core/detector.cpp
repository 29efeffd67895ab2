#include "quamax/core/detector.hpp"

#include <limits>

#include "quamax/common/error.hpp"

namespace quamax::core {

DetectionResult QuAMaxDetector::detect(const wireless::ChannelUse& use,
                                       Rng& rng) const {
  return run(reduce_ml(use.h, use.y, use.mod), rng);
}

DetectionResult QuAMaxDetector::run(const MlProblem& problem, Rng& rng) const {
  require(config_.num_anneals >= 1, "QuAMaxDetector: num_anneals must be >= 1");

  DetectionResult result;
  result.num_anneals = config_.num_anneals;

  std::vector<qubo::SpinVec> samples =
      sampler_->sample(problem.ising, config_.num_anneals, rng);
  require(!samples.empty(), "QuAMaxDetector: sampler returned no samples");

  double best = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  result.energies.reserve(samples.size());
  for (std::size_t k = 0; k < samples.size(); ++k) {
    // Energies are evaluated on the ORIGINAL logical Ising model (Eq. 2),
    // exactly as the paper scores unembedded configurations (§3.3).
    const double e = problem.ising.energy(samples[k]);
    result.energies.push_back(e);
    if (e < best) {
      best = e;
      best_idx = k;
    }
  }

  result.best_spins = samples[best_idx];
  result.best_energy = best;
  result.best_metric = best + problem.ising.offset();
  result.bits = gray_bits_from_spins(result.best_spins, problem.nt, problem.mod);
  if (config_.keep_samples) {
    result.samples = std::move(samples);
  }
  return result;
}

}  // namespace quamax::core
