// Detector shoot-out: QuAMax vs zero-forcing vs MMSE vs Sphere Decoder on
// identical channel uses — a miniature of the paper's Fig. 14 argument that
// linear detectors collapse when Nt ~ Nr while ML (classical or annealed)
// keeps decoding.
//
// Build & run:  ./examples/detector_shootout

#include <cstdio>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/detector.hpp"
#include "quamax/detect/linear.hpp"
#include "quamax/detect/sphere.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  anneal::AnnealerConfig config = sim::annealer_config(argc, argv);

  Rng rng{31337};
  constexpr std::size_t kUsers = 10;
  constexpr std::size_t kUses = 40;
  const auto mod = wireless::Modulation::kBpsk;

  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  anneal::ChimeraAnnealer annealer(config);
  core::QuAMaxDetector quamax(annealer, {.num_anneals = 150});

  std::printf("Shoot-out: %zu x %zu %s, Rayleigh channel, %zu uses per SNR\n\n",
              kUsers, kUsers, wireless::to_string(mod).c_str(), kUses);
  sim::print_columns({"SNR dB", "ZF BER", "MMSE BER", "Sphere BER",
                      "QuAMax BER", "SD nodes"});

  for (const double snr : {6.0, 9.0, 12.0, 15.0, 20.0}) {
    std::size_t zf = 0, mmse = 0, sphere = 0, qa = 0, bits = 0, nodes = 0;
    for (std::size_t u = 0; u < kUses; ++u) {
      const auto use = wireless::make_channel_use(
          kUsers, kUsers, mod, wireless::ChannelKind::kRayleigh, snr, rng);
      zf += wireless::count_bit_errors(detect::zero_forcing_detect(use),
                                       use.tx_bits);
      mmse += wireless::count_bit_errors(detect::mmse_detect(use), use.tx_bits);
      const auto sd = detect::SphereDecoder{}.detect(use);
      sphere += wireless::count_bit_errors(sd.bits, use.tx_bits);
      nodes += sd.visited_nodes;
      qa += wireless::count_bit_errors(quamax.detect(use, rng).bits, use.tx_bits);
      bits += use.tx_bits.size();
    }
    const auto ber = [&](std::size_t errors) {
      return static_cast<double>(errors) / static_cast<double>(bits);
    };
    sim::print_row({sim::fmt_double(snr, 0), sim::fmt_ber(ber(zf)),
                    sim::fmt_ber(ber(mmse)), sim::fmt_ber(ber(sphere)),
                    sim::fmt_ber(ber(qa)),
                    sim::fmt_count(nodes / kUses)});
  }

  std::printf(
      "\nReading: the linear detectors plateau at an error floor in the\n"
      "square (Nt = Nr) regime; the Sphere Decoder attains ML performance at\n"
      "growing node cost; QuAMax tracks the ML BER using anneals instead of\n"
      "tree search.\n");
  return 0;
}
