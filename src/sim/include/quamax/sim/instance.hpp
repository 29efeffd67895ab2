// Experiment instances (paper §5.2-5.5).
//
// An Instance bundles one channel use with its reduced Ising problem and the
// reference ("ground state") energy the metrics are anchored to:
//   * noise-free runs — the transmitted configuration is provably the ground
//     state (zero residual), so its energy is the reference;
//   * noisy runs — the classical Sphere Decoder supplies the true ML
//     solution, whose Ising energy is the ground-state energy (footnote 6:
//     the Ising spectrum is the ML metric spectrum).
#pragma once

#include <optional>

#include "quamax/common/rng.hpp"
#include "quamax/core/reduction.hpp"
#include "quamax/wireless/channel.hpp"
#include "quamax/wireless/trace.hpp"

namespace quamax::sim {

/// A family of detection problems to sample instances from.
struct ProblemClass {
  std::size_t users = 12;
  wireless::Modulation mod = wireless::Modulation::kBpsk;
  wireless::ChannelKind kind = wireless::ChannelKind::kRandomPhase;
  /// Engaged => AWGN at this SNR; disengaged => noise-free (§5.3 setting).
  std::optional<double> snr_db;
};

struct Instance {
  wireless::ChannelUse use;
  core::MlProblem problem;
  qubo::SpinVec tx_spins;   ///< transmitted configuration in solution space
  double tx_energy = 0.0;   ///< its logical Ising energy
  double ground_energy = 0.0;  ///< reference energy for P0/TTS
  bool ground_is_ml = false;   ///< true when a Sphere Decoder oracle set it

  std::size_t num_vars() const { return problem.num_vars(); }
};

/// Draws an instance of the given class.  When `ml_oracle` is true and the
/// instance is noisy, runs the Sphere Decoder to anchor the ground-state
/// energy (adds classical cost; required for TTS under noise).
Instance make_instance(const ProblemClass& cls, Rng& rng, bool ml_oracle = true);

/// Instance from an externally produced channel use (e.g. the trace model).
Instance make_instance_from_use(wireless::ChannelUse use, bool ml_oracle = true);

/// Instance from a channel use whose reduction was produced elsewhere —
/// the coherence path: within a coherence block only y changes, so
/// serve::LoadGenerator rebuilds just the linear fields of its chain's
/// cached reduction (core::update_ml_fields) and hands the result here,
/// skipping the O(Nt^2 Nr) coupling recompute.  `problem` must equal
/// core::reduce_ml(use.h, use.y, use.mod); everything else (tx energy,
/// ground anchor) is derived exactly as make_instance_from_use does.
Instance make_instance_with_problem(wireless::ChannelUse use,
                                    core::MlProblem problem,
                                    bool ml_oracle = true);

}  // namespace quamax::sim
