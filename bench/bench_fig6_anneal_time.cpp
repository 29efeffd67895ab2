// Regenerates Figure 6: TTS as a function of anneal time Ta in {1, 10, 100}
// microseconds for QPSK problems of increasing size, with scatter over
// several |J_F| choices (improved dynamic range).
//
// Shape to reproduce: with improved range, Ta = 1 us achieves the best TTS
// regardless of problem size — longer anneals raise per-anneal success
// probability but not enough to pay for their own duration.
//
// Every (Ta, |J_F|) setting decodes all instances through sim::run_instances
// on one annealer whose config is set per setting, so its shape-keyed
// embedding cache persists across the sweep, as in bench_fig15 — output is
// bit-identical at any --threads setting.

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
  using wireless::Modulation;
  anneal::AnnealerConfig config = sim::annealer_config(argc, argv);

  const std::size_t instances = sim::scaled(5);
  const std::size_t base_anneals = sim::scaled(400);
  sim::print_banner("TTS vs anneal time Ta",
                    "Figure 6 (QPSK, improved dynamic range)",
                    "instances = " + std::to_string(instances) +
                        ", Ta in {1, 10, 100} us, |J_F| scatter, " +
                        std::to_string(config.batch_replicas) + " replicas/batch");

  const std::vector<double> ta_grid{1.0, 10.0, 100.0};
  const std::vector<double> jf_grid{0.35, 0.5, 0.75, 1.0};
  const std::vector<std::size_t> user_grid{6, 12, 18};

  config.embed.improved_range = true;
  anneal::ChimeraAnnealer annealer(config);

  for (const std::size_t users : user_grid) {
    Rng rng{0xF166 + users};
    std::vector<sim::Instance> insts;
    for (std::size_t i = 0; i < instances; ++i)
      insts.push_back(sim::make_instance(
          {.users = users, .mod = Modulation::kQpsk, .kind = {}, .snr_db = {}},
          rng));

    std::printf("\n%zu-user QPSK (N = %zu):\n", users, insts.front().num_vars());
    sim::print_columns({"Ta us", "|J_F|", "TTS med us", "P0 med"});
    for (const double ta : ta_grid) {
      // Longer anneals are costlier per sample; keep total compute bounded.
      const std::size_t num_anneals = std::max<std::size_t>(
          40, static_cast<std::size_t>(static_cast<double>(base_anneals) /
                                       std::sqrt(ta)));
      double best_median = std::numeric_limits<double>::infinity();
      double best_jf = jf_grid.front();
      for (const double jf : jf_grid) {
        anneal::AnnealerConfig setting = config;
        setting.schedule.anneal_time_us = ta;
        setting.embed.jf = jf;
        annealer.set_config(setting);
        const std::vector<sim::RunOutcome> outcomes =
            sim::run_instances(insts, annealer, num_anneals, rng);

        std::vector<double> tts, p0;
        for (const sim::RunOutcome& outcome : outcomes) {
          tts.push_back(sim::outcome_tts_us(outcome));
          p0.push_back(outcome.stats.p0());
        }
        const double med = median(tts);
        sim::print_row({sim::fmt_double(ta, 0), sim::fmt_double(jf, 1),
                        sim::fmt_us(med), sim::fmt_double(median(p0), 4)});
        if (med < best_median) {
          best_median = med;
          best_jf = jf;
        }
      }
      std::printf("  -> best at Ta=%.0f: |J_F|=%.1f, TTS=%s us\n", ta, best_jf,
                  sim::fmt_us(best_median).c_str());
    }
  }

  std::printf(
      "\nShape check vs the paper: the best TTS is achieved at Ta = 1 us for\n"
      "every problem size under improved dynamic range — increasing Ta\n"
      "inflates TTS because per-anneal time grows faster than P0.\n");
  return 0;
}
