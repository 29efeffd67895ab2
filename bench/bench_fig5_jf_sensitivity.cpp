// Regenerates Figure 5: TTS(0.99) as a function of the ferromagnetic chain
// strength |J_F|, for BPSK and QPSK problem sizes, under standard and
// improved (extended) coupler dynamic range.  Ta = 1 us, no pause.
//
// Shape to reproduce: a U — too-small |J_F| breaks chains (majority-vote
// errors), too-large |J_F| squeezes the problem into the ICE noise floor;
// improved range is flatter / less sensitive to |J_F| than standard range.
// (Our SA substrate's optimum sits at smaller |J_F| than the QPU's 3-8;
// see EXPERIMENTS.md.)
//
// Every (range, class, |J_F|) sweep point decodes its instances in ONE
// sim::run_instances sweep on one annealer whose config is set per point:
// its shape-keyed embedding cache persists across the sweep (placements do
// not depend on |J_F| or the range) — output is bit-identical at any
// --threads setting.

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

namespace {

using namespace quamax;
using wireless::Modulation;

}  // namespace

int main(int argc, char** argv) {
  anneal::AnnealerConfig base = sim::annealer_config(argc, argv);
  const std::size_t instances = sim::scaled(8);
  const std::size_t num_anneals = sim::scaled(400);
  sim::print_banner(
      "TTS vs ferromagnetic coupling |J_F|",
      "Figure 5 (upper: BPSK, lower: QPSK; left: standard, right: improved range)",
      "instances = " + std::to_string(instances) +
          ", anneals = " + std::to_string(num_anneals) + ", Ta = 1 us");

  const std::vector<double> jf_grid{0.1, 0.2, 0.35, 0.5,
                                    0.75, 1.0, 1.5,  2.0, 3.0};
  const std::vector<std::pair<std::size_t, Modulation>> classes{
      {12, Modulation::kBpsk},
      {36, Modulation::kBpsk},
      {6, Modulation::kQpsk},
      {18, Modulation::kQpsk}};

  base.schedule.anneal_time_us = 1.0;
  anneal::ChimeraAnnealer annealer(base);

  for (const bool improved : {false, true}) {
    std::printf("\n--- %s dynamic range ---\n",
                improved ? "IMPROVED (extended)" : "STANDARD");
    for (const auto& [users, mod] : classes) {
      // Fresh instances per class, shared across the JF grid so the sweep
      // isolates the parameter (paper methodology).
      Rng rng{0xF165 + users * 2 + static_cast<std::size_t>(mod)};
      std::vector<sim::Instance> insts;
      for (std::size_t i = 0; i < instances; ++i)
        insts.push_back(sim::make_instance(
            {.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));

      std::printf("\n%zu-user %s (N = %zu):\n", users,
                  wireless::to_string(mod).c_str(), insts.front().num_vars());
      sim::print_columns(
          {"|J_F|", "TTS med us", "TTS p10", "TTS p90", "broken chains"});
      for (const double jf : jf_grid) {
        anneal::AnnealerConfig config = base;
        config.embed.improved_range = improved;
        config.embed.jf = jf;
        annealer.set_config(config);

        const std::vector<sim::RunOutcome> outcomes =
            sim::run_instances(insts, annealer, num_anneals, rng);
        std::vector<double> tts;
        double broken = 0.0;
        for (const sim::RunOutcome& outcome : outcomes) {
          tts.push_back(sim::outcome_tts_us(outcome));
          broken += outcome.broken_chain_fraction;
        }
        const Summary s = summarize(tts);
        sim::print_row({sim::fmt_double(jf, 2), sim::fmt_us(s.median),
                        sim::fmt_us(s.p10), sim::fmt_us(s.p90),
                        sim::fmt_double(broken / static_cast<double>(instances), 4)});
      }
    }
  }

  std::printf(
      "\nShape check vs the paper: median TTS is U-shaped in |J_F| for the\n"
      "standard range (chain breaks on the left arm, ICE washout on the\n"
      "right); the improved range's curve is flatter and achieves roughly\n"
      "the standard range's optimum.\n");
  return 0;
}
