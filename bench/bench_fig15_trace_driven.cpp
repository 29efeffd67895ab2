// Regenerates Figure 15: trace-driven evaluation on 8x8 MIMO channel uses
// sampled from a (synthetic, Argos-like) 96-antenna measurement campaign at
// 25-35 dB SNR — upper plots: TTB (Opt and Fix); lower plots: TTF.
//
// Shapes to reproduce: QPSK reaches 1e-6 BER and 1e-4 FER within ~10 us;
// BPSK (an 8-logical-qubit problem, parallelization factor ~85) reaches the
// same within an amortized ~2 us — i.e. the minimum Ta + Tp, enabled by
// running many identical/different problems on the chip at once.
//
// All channel uses of a sweep point decode through one sim::run_instances
// sweep (ChimeraAnnealer::sample_each) on one annealer whose config is set
// per |J_F|, so its shape-keyed embedding cache persists across the sweep;
// per-problem streams are counter-derived — so output is bit-identical at
// any --threads setting.

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"
#include "quamax/wireless/trace.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  using wireless::Modulation;
  const auto [threads, replicas, accept_mode] = sim::kernel_knobs(argc, argv);

  const std::size_t uses = sim::scaled(16);
  const std::size_t num_anneals = sim::scaled(800);
  sim::print_banner("Trace-driven 8x8 MIMO performance",
                    "Figure 15 (upper: TTB Opt/Fix; lower: TTF)",
                    "channel uses = " + std::to_string(uses) + ", anneals = " +
                        std::to_string(num_anneals) +
                        "; synthetic Argos-like campaign, SNR 25-35 dB");

  wireless::TraceChannelModel trace(wireless::TraceConfig{}, 0xA6605);
  const std::vector<double> jf_grid{0.35, 0.5, 0.75};

  anneal::AnnealerConfig config;
  config.num_threads = threads;
  config.batch_replicas = replicas;
  config.accept_mode = accept_mode;
  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  anneal::ChimeraAnnealer annealer(config);

  Rng rng{0xF175};
  for (const Modulation mod : {Modulation::kBpsk, Modulation::kQpsk}) {
    std::vector<sim::Instance> insts;
    for (std::size_t u = 0; u < uses; ++u) {
      trace.advance_frame();
      insts.push_back(sim::make_instance_from_use(trace.sample_use(8, mod, rng)));
    }

    sim::SweepMatrix ttb, ttf;
    for (const double jf : jf_grid) {
      anneal::AnnealerConfig setting = config;
      setting.embed.jf = jf;
      annealer.set_config(setting);
      const std::vector<sim::RunOutcome> outcomes =
          sim::run_instances(insts, annealer, num_anneals, rng);

      std::vector<double> ttb_row, ttf_row;
      for (const sim::RunOutcome& outcome : outcomes) {
        ttb_row.push_back(sim::outcome_ttb_us(outcome, 1e-6, 1 << 24)
                              .value_or(std::numeric_limits<double>::infinity()));
        ttf_row.push_back(
            sim::outcome_ttf_us(outcome, 1e-4, 1500, 1 << 24)
                .value_or(std::numeric_limits<double>::infinity()));
      }
      ttb.push_back(std::move(ttb_row));
      ttf.push_back(std::move(ttf_row));
    }

    const std::vector<double> ttb_opt = sim::opt_per_instance(ttb);
    const std::vector<double> ttb_fix = sim::fix_values(ttb);
    const std::vector<double> ttf_opt = sim::opt_per_instance(ttf);
    const std::vector<double> ttf_fix = sim::fix_values(ttf);

    std::printf("\n8x8 %s (N = %zu, P_f = %.1f):\n",
                wireless::to_string(mod).c_str(),
                core::num_solution_variables(8, mod),
                chimera::parallelization_factor(
                    core::num_solution_variables(8, mod), annealer.graph()));
    sim::print_columns({"metric", "median us", "mean us", "p85 us"});
    const auto row = [&](const char* name, const std::vector<double>& v) {
      const Summary s = summarize(v);
      sim::print_row({name, sim::fmt_us(s.median), sim::fmt_us(s.mean),
                      sim::fmt_us(s.p85)});
    };
    row("TTB(1e-6) Opt", ttb_opt);
    row("TTB(1e-6) Fix", ttb_fix);
    row("TTF(1e-4) Opt", ttf_opt);
    row("TTF(1e-4) Fix", ttf_fix);
  }

  std::printf(
      "\nShape check vs the paper: QPSK achieves 1e-6 BER / 1e-4 FER within\n"
      "~10 us; BPSK's TTB floors at the amortized minimum (~2 us, the per-\n"
      "anneal duration divided by the ~85x parallelization of an 8-qubit\n"
      "problem) — leaving chip room to decode other subcarriers in parallel.\n");
  return 0;
}
