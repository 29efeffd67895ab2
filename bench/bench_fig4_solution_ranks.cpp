// Regenerates Figure 4: energy-ranked solution distributions for six
// noise-free decoding problems that all need 36 logical qubits — two channel
// uses each of 36-user BPSK, 18-user QPSK and 9-user 16-QAM.  For each
// instance we print the top solution ranks with their relative Ising energy
// gap (dE), frequency of occurrence, and bit errors, plus the ground-state
// probability P0.  The paper's qualitative claims to check:
//   * search-space size is constant (2^36) across the six instances;
//   * as modulation order rises (and users fall), P0 drops;
//   * higher-energy ranks can carry FEW bit errors (why TTB != TTS).
//
// All six instances share one 36-logical-qubit shape and decode in ONE
// sim::run_instances sweep (ChimeraAnnealer::sample_each; the clique
// placement is compiled once) — output is bit-identical at any --threads
// setting.

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

namespace {

using namespace quamax;
using wireless::Modulation;

void print_outcome_report(const sim::Instance& inst,
                          const sim::RunOutcome& outcome, int index) {
  std::printf("\nInstance %d: %zu-user %s (N = %zu logical qubits), P0 = %.4f\n",
              index, inst.use.h.cols(), wireless::to_string(inst.use.mod).c_str(),
              inst.num_vars(), outcome.stats.p0());
  sim::print_columns({"rank", "dE (rel)", "frequency", "bit errors"});
  const auto& ranked = outcome.stats.ranked();
  for (std::size_t r = 0; r < ranked.size() && r < 10; ++r) {
    sim::print_row({std::to_string(r + 1),
                    sim::fmt_double(ranked[r].relative_gap, 4),
                    sim::fmt_double(ranked[r].probability, 4),
                    std::to_string(ranked[r].bit_errors)});
  }
  if (ranked.size() > 10)
    std::printf("... %zu further ranks\n", ranked.size() - 10);
}

}  // namespace

int main(int argc, char** argv) {
  anneal::AnnealerConfig config = sim::annealer_config(argc, argv);
  const std::size_t num_anneals = sim::scaled(3000);
  sim::print_banner("Energy-ranked solution distributions",
                    "Figure 4 (six 36-logical-qubit noise-free instances)",
                    "anneals/instance = " + std::to_string(num_anneals) +
                        " (paper: 50,000); Ta = 1 us, |J_F| Fix");

  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;  // the Fix default (§5.3.2)
  config.embed.improved_range = true;
  config.embed.jf = 0.35;  // Fix value serving all three modulations
  anneal::ChimeraAnnealer annealer(config);

  Rng rng{0xF164};
  std::vector<sim::Instance> insts;
  for (const auto& [users, mod] :
       {std::pair<std::size_t, Modulation>{36, Modulation::kBpsk},
        {36, Modulation::kBpsk},
        {18, Modulation::kQpsk},
        {18, Modulation::kQpsk},
        {9, Modulation::kQam16},
        {9, Modulation::kQam16}})
    insts.push_back(
        sim::make_instance({.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));

  std::printf("\nP0 trend across modulations (expect decreasing):");
  const std::vector<sim::RunOutcome> outcomes =
      sim::run_instances(insts, annealer, num_anneals, rng);
  for (std::size_t i = 0; i < insts.size(); ++i)
    print_outcome_report(insts[i], outcomes[i], static_cast<int>(i + 1));

  std::printf(
      "\nShape check vs the paper: left-to-right (BPSK -> QPSK -> 16-QAM at\n"
      "constant 36 qubits) the ground state becomes rarer and the relative\n"
      "energy gaps compress, while some non-ground ranks still decode with\n"
      "few bit errors.\n");
  return 0;
}
