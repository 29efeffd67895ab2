// Regenerates Figure 9: Time-to-BER curves (expected BER as a function of
// wall-clock time) at the edge of QuAMax's capability: 48/54/60-user BPSK,
// 14/16/18-user QPSK, 4/5/6-user 16-QAM, noise-free channels, with the
// pause enabled (the paper's §5.3.2 conclusion) and the Fix strategy.
//
// Shapes to reproduce: BER falls with time toward each instance's floor;
// mean TTB exceeds median TTB (a few long-running outliers dominate the
// mean); problems get harder with more users and higher modulation.
//
// Each class's instances decode through one sim::run_instances sweep on a
// single annealer whose shape-keyed embedding cache persists across the
// classes, as in bench_fig15 — output is bit-identical at any --threads
// setting.

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

  const std::size_t instances = sim::scaled(8);
  const std::size_t num_anneals = sim::scaled(1200);
  sim::print_banner("Time-to-BER at the capability edge",
                    "Figure 9 (BER vs time; median/mean across instances)",
                    "instances = " + std::to_string(instances) +
                        ", anneals = " + std::to_string(num_anneals) +
                        ", pause Tp = 1 us, Fix parameters, " +
                        std::to_string(config.batch_replicas) + " replicas/batch");

  const std::vector<std::pair<std::size_t, Modulation>> classes{
      {48, Modulation::kBpsk}, {54, Modulation::kBpsk}, {60, Modulation::kBpsk},
      {14, Modulation::kQpsk}, {16, Modulation::kQpsk}, {18, Modulation::kQpsk},
      {4, Modulation::kQam16}, {5, Modulation::kQam16}, {6, Modulation::kQam16}};

  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  config.embed.jf = 0.5;
  anneal::ChimeraAnnealer annealer(config);

  const std::vector<double> time_grid{2,    5,    10,   20,   50,
                                      100,  200,  500,  1000, 2000,
                                      5000, 10000};

  for (const auto& [users, mod] : classes) {
    Rng rng{0xF169 + users * 5 + static_cast<std::size_t>(mod)};
    std::vector<sim::Instance> insts;
    for (std::size_t i = 0; i < instances; ++i)
      insts.push_back(sim::make_instance(
          {.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));
    const std::vector<sim::RunOutcome> outcomes =
        sim::run_instances(insts, annealer, num_anneals, rng);

    std::printf("\n%zu-user %s (N = %zu, P_f = %.1f):\n", users,
                wireless::to_string(mod).c_str(),
                core::num_solution_variables(users, mod),
                outcomes.front().parallel_factor);
    sim::print_columns({"time us", "BER median", "BER mean", "BER p10",
                        "BER p90"});
    for (const double t : time_grid) {
      std::vector<double> bers;
      for (const auto& outcome : outcomes)
        bers.push_back(sim::ber_at_time_us(outcome, t));
      const Summary s = summarize(bers);
      sim::print_row({sim::fmt_us(t), sim::fmt_ber(s.median),
                      sim::fmt_ber(s.mean), sim::fmt_ber(s.p10),
                      sim::fmt_ber(s.p90)});
    }

    // Per-instance TTB(1e-6) markers (the x symbols in the paper's plots).
    std::vector<double> ttb_med, ttb_all;
    std::printf("per-instance TTB(1e-6) us: ");
    for (const auto& outcome : outcomes) {
      const auto ttb = sim::outcome_ttb_us(outcome, 1e-6, 1 << 24);
      std::printf("%s ", ttb ? sim::fmt_us(*ttb).c_str() : "unreached");
      ttb_all.push_back(ttb.value_or(std::numeric_limits<double>::infinity()));
    }
    std::printf("\nmedian TTB = %s us, mean TTB = %s us\n",
                sim::fmt_us(median(ttb_all)).c_str(),
                sim::fmt_us(mean(ttb_all)).c_str());
  }

  std::printf(
      "\nShape check vs the paper: BER decays with compute time; the mean\n"
      "curve sits above the median (long-tail outliers, motivating QuAMax's\n"
      "decode deadline + FEC); difficulty rises with users and modulation.\n");
  return 0;
}
