// Regenerates Figure 12: the detailed solution-rank view of ONE 18-user
// QPSK wireless channel at six SNRs (10-40 dB).  The channel matrix and the
// transmitted bit string stay fixed; only the AWGN draw varies (§5.4's
// isolation methodology).
//
// Shapes to reproduce: as SNR increases, the ground-state probability and
// the relative energy gap between rank 1 and rank 2 both grow; at 10 dB
// the gap narrows to a few percent, "leaving minimal room for error".
//
// Each SNR's noise draws decode through one sim::run_instances sweep on a
// single annealer (one shape-keyed embedding cache for the whole run) —
// output is bit-identical at any --threads setting.

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
  const auto [threads, replicas, accept_mode] = sim::kernel_knobs(argc, argv);

  const std::size_t noise_draws = sim::scaled(6);
  const std::size_t num_anneals = sim::scaled(800);
  sim::print_banner("Solution ranks under wireless noise",
                    "Figure 12 (18-user QPSK, six SNRs, fixed channel/bits)",
                    "noise draws per SNR = " + std::to_string(noise_draws) +
                        ", anneals = " + std::to_string(num_anneals));

  Rng rng{0xF172};
  // One fixed channel use; the SNR loop re-noises it.
  const auto base = wireless::make_channel_use(
      18, 18, Modulation::kQpsk, wireless::ChannelKind::kRandomPhase, 40.0, rng);

  anneal::AnnealerConfig config;
  config.num_threads = threads;
  config.batch_replicas = replicas;
  config.accept_mode = accept_mode;
  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  config.embed.jf = 0.5;
  anneal::ChimeraAnnealer annealer(config);

  sim::print_columns({"SNR dB", "P0 mean", "rank2 gap med", "BER(best) med",
                      "tx==ML frac"});
  for (const double snr : {10.0, 15.0, 20.0, 25.0, 30.0, 40.0}) {
    std::vector<double> p0s, gaps, bers;
    std::size_t tx_is_ml = 0;
    std::vector<sim::Instance> insts;
    for (std::size_t draw = 0; draw < noise_draws; ++draw) {
      insts.push_back(
          sim::make_instance_from_use(wireless::renoise(base, snr, rng)));
      if (std::abs(insts.back().ground_energy - insts.back().tx_energy) < 1e-9)
        ++tx_is_ml;
    }
    const std::vector<sim::RunOutcome> outcomes =
        sim::run_instances(insts, annealer, num_anneals, rng);
    for (const sim::RunOutcome& outcome : outcomes) {
      p0s.push_back(outcome.stats.p0());
      const auto& ranked = outcome.stats.ranked();
      gaps.push_back(ranked.size() > 1 ? ranked[1].relative_gap : 0.0);
      bers.push_back(outcome.stats.asymptotic_ber());
    }
    sim::print_row({sim::fmt_double(snr, 0), sim::fmt_double(mean(p0s), 4),
                    sim::fmt_double(median(gaps), 4), sim::fmt_ber(median(bers)),
                    sim::fmt_double(static_cast<double>(tx_is_ml) /
                                        static_cast<double>(noise_draws),
                                    2)});
  }

  std::printf(
      "\nShape check vs the paper: P0 and the rank-1/rank-2 relative energy\n"
      "gap both grow with SNR; at 10 dB the gap collapses to a few percent\n"
      "and the ML solution itself starts to differ from the transmitted\n"
      "bits (wireless noise, not annealer noise, causes residual errors).\n");
  return 0;
}
