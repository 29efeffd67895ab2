// Regenerates Figure 7: TTS as a function of anneal-pause position s_p and
// pause duration T_p for 18-user QPSK (N = 36), improved dynamic range,
// Ta = 1 us, over several |J_F| values.
//
// Shapes to reproduce: (1) a mid-schedule pause position helps (the red
// circle in the paper marks the best s_p); (2) as T_p grows, TTS grows —
// the pause pays for itself only when short (the paper picks T_p = 1 us).
//
// Every sweep point decodes its instances in ONE sim::run_instances sweep
// on one annealer whose config is set per point, so its embedding cache
// persists (placements are schedule-independent) — output is
// bit-identical at any --threads setting.

#include <cstdio>
#include <limits>
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
  const auto [threads, replicas, accept_mode] = sim::kernel_knobs(argc, argv);

  const std::size_t instances = sim::scaled(5);
  const std::size_t num_anneals = sim::scaled(500);
  sim::print_banner("TTS vs anneal pause (time and position)",
                    "Figure 7 (18-user QPSK, improved range, Ta = 1 us)",
                    "instances = " + std::to_string(instances) +
                        ", anneals = " + std::to_string(num_anneals));

  Rng rng{0xF167};
  std::vector<sim::Instance> insts;
  for (std::size_t i = 0; i < instances; ++i)
    insts.push_back(sim::make_instance(
        {.users = 18, .mod = Modulation::kQpsk, .kind = {}, .snr_db = {}}, rng));

  anneal::AnnealerConfig base;
  base.num_threads = threads;
  base.batch_replicas = replicas;
  base.accept_mode = accept_mode;
  base.schedule.anneal_time_us = 1.0;
  base.embed.improved_range = true;

  anneal::ChimeraAnnealer annealer(base);

  // Median TTS across the instances for one (pause, |J_F|) setting, all
  // instances decoded through one run_instances sweep.
  const auto median_tts = [&](double tp, double sp, double jf) {
    anneal::AnnealerConfig config = base;
    config.schedule.pause_time_us = tp;
    config.schedule.pause_position = sp;
    config.embed.jf = jf;
    annealer.set_config(config);
    std::vector<double> tts;
    for (const sim::RunOutcome& outcome :
         sim::run_instances(insts, annealer, num_anneals, rng))
      tts.push_back(sim::outcome_tts_us(outcome));
    return median(tts);
  };

  const std::vector<double> sp_grid{0.15, 0.25, 0.35, 0.45, 0.55};
  const std::vector<double> tp_grid{1.0, 10.0};
  const std::vector<double> jf_grid{0.35, 0.5, 0.75};

  // Baseline: no pause.
  {
    sim::print_columns({"setting", "|J_F|", "TTS med us"});
    for (const double jf : jf_grid) {
      sim::print_row({"no pause", sim::fmt_double(jf, 1),
                      sim::fmt_us(median_tts(0.0, 0.35, jf))});
    }
  }

  for (const double tp : tp_grid) {
    std::printf("\nPause T_p = %.0f us:\n", tp);
    sim::print_columns({"s_p", "|J_F|", "TTS med us"});
    double best = std::numeric_limits<double>::infinity();
    double best_sp = 0, best_jf = 0;
    for (const double sp : sp_grid) {
      for (const double jf : jf_grid) {
        const double med = median_tts(tp, sp, jf);
        sim::print_row(
            {sim::fmt_double(sp, 2), sim::fmt_double(jf, 1), sim::fmt_us(med)});
        if (med < best) {
          best = med;
          best_sp = sp;
          best_jf = jf;
        }
      }
    }
    std::printf("  -> best: s_p=%.2f, |J_F|=%.1f, TTS=%s us%s\n", best_sp, best_jf,
                sim::fmt_us(best).c_str(),
                tp == 1.0 ? "  (the paper's red circle)" : "");
  }

  std::printf(
      "\nShape check vs the paper: T_p = 1 us with a mid-range pause position\n"
      "gives the best TTS; T_p = 10 us (and beyond) inflates TTS because the\n"
      "pause dominates per-anneal time.\n");
  return 0;
}
