// Quickstart: decode one MIMO uplink channel use with QuAMax, end to end.
//
// Walks through the full pipeline of the paper's §3.2.1 decoding example:
//   1. users Gray-map random bits onto QPSK symbols and transmit through a
//      Rayleigh channel with AWGN;
//   2. the receiver reduces ML detection to Ising form (closed-form
//      coefficients, Eqs. 7-8);
//   3. the quantum-annealer stand-in embeds the problem on a Chimera chip
//      and draws N_a anneals;
//   4. the best configuration is post-translated to Gray bits (Fig. 2);
//   5. the result is checked against the classical Sphere Decoder (exact ML)
//      and the transmitted ground truth.
//
// Build & run:  ./examples/quickstart

#include <cstdio>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/detector.hpp"
#include "quamax/detect/sphere.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  anneal::AnnealerConfig annealer_config = sim::annealer_config(argc, argv);

  Rng rng{2024};
  constexpr std::size_t kUsers = 4;
  constexpr double kSnrDb = 18.0;

  // --- 1. Uplink transmission -------------------------------------------
  const wireless::ChannelUse use = wireless::make_channel_use(
      kUsers, kUsers, wireless::Modulation::kQpsk,
      wireless::ChannelKind::kRayleigh, kSnrDb, rng);
  std::printf("Transmitted bits :");
  for (auto b : use.tx_bits) std::printf(" %d", b);
  std::printf("\n");

  // --- 2. ML -> Ising reduction ------------------------------------------
  const core::MlProblem problem =
      core::reduce_ml_to_ising_closed_form(use.h, use.y, use.mod);
  std::printf("Reduced to an Ising problem with %zu spins and %zu couplings\n",
              problem.num_vars(), problem.ising.couplings().size());

  // --- 3. Anneal on the simulated D-Wave 2000Q ---------------------------
  annealer_config.schedule.anneal_time_us = 1.0;   // Ta
  annealer_config.schedule.pause_time_us = 1.0;    // Tp (the paper's pick)
  annealer_config.embed.improved_range = true;
  anneal::ChimeraAnnealer annealer(annealer_config);

  core::QuAMaxDetector detector(annealer, {.num_anneals = 50});
  const core::DetectionResult result = detector.run(problem, rng);

  std::printf("Decoded bits     :");
  for (auto b : result.bits) std::printf(" %d", b);
  std::printf("\nBest ML metric ||y - Hv||^2 = %.6f (Ising energy %.3f)\n",
              result.best_metric, result.best_energy);

  // --- 4. Cross-check against classical ML and ground truth --------------
  const detect::SphereResult ml = detect::SphereDecoder{}.detect(use);
  std::printf("Sphere Decoder   : metric %.6f, %zu tree nodes visited\n",
              ml.metric, ml.visited_nodes);

  const std::size_t vs_tx = wireless::count_bit_errors(result.bits, use.tx_bits);
  const std::size_t vs_ml = wireless::count_bit_errors(result.bits, ml.bits);
  std::printf("Bit errors vs transmitted: %zu / %zu\n", vs_tx, use.tx_bits.size());
  std::printf("Agreement with exact ML  : %s\n",
              vs_ml == 0 ? "yes" : "no (annealer missed the ground state)");
  return vs_ml == 0 ? 0 : 1;
}
