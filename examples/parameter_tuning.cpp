// Annealer parameter tuning, the §5.3.1 microbenchmark workflow as a tool.
//
// Given a problem class (users x modulation), sweeps the embedding strength
// |J_F| and the pause configuration on sample instances, reports TTS(0.99)
// per setting, and prints the Fix recommendation (best median) — exactly how
// the paper arrives at its default parameter set (improved range, Tp = 1 us).
//
// Build & run:  ./examples/parameter_tuning [users] [bpsk|qpsk|qam16] [--threads N]

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  anneal::AnnealerConfig config = sim::annealer_config(argc, argv);

  // Positionals: [users] [modulation], with --threads [N] allowed anywhere.
  const std::vector<std::string> positional = sim::positional_args(argc, argv);

  std::size_t users = 12;
  wireless::Modulation mod = wireless::Modulation::kQpsk;
  if (positional.size() > 0)
    users = static_cast<std::size_t>(std::atoi(positional[0].c_str()));
  if (positional.size() > 1) {
    if (positional[1] == "bpsk") mod = wireless::Modulation::kBpsk;
    else if (positional[1] == "qpsk") mod = wireless::Modulation::kQpsk;
    else if (positional[1] == "qam16") mod = wireless::Modulation::kQam16;
    else {
      std::fprintf(stderr, "unknown modulation '%s'\n", positional[1].c_str());
      return 2;
    }
  }

  const std::size_t instances = 5;
  const std::size_t num_anneals = 400;
  std::printf("Tuning annealer parameters for %zu-user %s (%zu instances, "
              "%zu anneals per setting)\n",
              users, wireless::to_string(mod).c_str(), instances, num_anneals);

  Rng rng{99};
  std::vector<sim::Instance> insts;
  for (std::size_t i = 0; i < instances; ++i)
    insts.push_back(sim::make_instance(
        {.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));

  config.schedule.anneal_time_us = 1.0;
  config.embed.improved_range = true;
  anneal::ChimeraAnnealer annealer(config);

  struct Setting {
    double jf, tp, sp;
  };
  std::vector<Setting> settings;
  for (const double jf : {0.2, 0.35, 0.5, 0.75, 1.0}) {
    settings.push_back({jf, 0.0, 0.35});
    settings.push_back({jf, 1.0, 0.35});
    settings.push_back({jf, 1.0, 0.45});
  }

  sim::print_columns({"|J_F|", "Tp us", "s_p", "TTS med us", "P0 med"});
  sim::SweepMatrix tts_matrix;
  for (const Setting& s : settings) {
    auto updated = annealer.config();
    updated.embed.jf = s.jf;
    updated.schedule.pause_time_us = s.tp;
    updated.schedule.pause_position = s.sp;
    annealer.set_config(updated);

    std::vector<double> tts, p0;
    for (const sim::Instance& inst : insts) {
      const sim::RunOutcome outcome =
          sim::run_instance(inst, annealer, num_anneals, rng);
      tts.push_back(sim::outcome_tts_us(outcome));
      p0.push_back(outcome.stats.p0());
    }
    sim::print_row({sim::fmt_double(s.jf, 2), sim::fmt_double(s.tp, 0),
                    sim::fmt_double(s.sp, 2), sim::fmt_us(median(tts)),
                    sim::fmt_double(median(p0), 4)});
    tts_matrix.push_back(std::move(tts));
  }

  const Setting best = settings[sim::best_fixed_setting(tts_matrix)];
  std::printf("\nFix recommendation for %zu-user %s: |J_F| = %.2f, Tp = %.0f "
              "us, s_p = %.2f\n",
              users, wireless::to_string(mod).c_str(), best.jf, best.tp, best.sp);
  return 0;
}
