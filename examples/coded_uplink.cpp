// Deadline decoding with forward error correction — the paper's §5.3.3
// operating mode made concrete:
//
//   "QuAMax accordingly sets a time deadline for decoding and after that
//    discards bits, relying on forward error correction to drive BER down."
//
// A 12-user QPSK uplink carries one convolutionally-coded (rate-1/2 K=7,
// interleaved) transport block across many subcarriers.  The detector gets a
// HARD anneal budget per subcarrier (the deadline); whatever bits it has at
// the deadline go to the FEC decoder.  We sweep the deadline and print raw
// (detector) BER against post-FEC BER / block error rate, showing the
// code absorbing the detector's residual errors once the raw BER enters the
// code's waterfall.
//
// Build & run:  ./examples/coded_uplink

#include <cstdio>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/detector.hpp"
#include "quamax/fec/convolutional.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  anneal::AnnealerConfig config = sim::annealer_config(argc, argv);

  Rng rng{0xC0DE};
  constexpr std::size_t kUsers = 12;
  const auto mod = wireless::Modulation::kQpsk;
  const std::size_t bits_per_use =
      kUsers * static_cast<std::size_t>(wireless::bits_per_symbol(mod));
  constexpr std::size_t kInterleaverRows = 24;
  constexpr int kBlocks = 6;

  const fec::ConvolutionalCode code;
  // One transport block spans 40 subcarriers of coded bits.
  const std::size_t coded_bits = 40 * bits_per_use;
  const std::size_t payload_bits = fec::ConvolutionalCode::payload_bits(coded_bits);

  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  anneal::ChimeraAnnealer annealer(config);

  std::printf("Coded uplink: %zu-user %s, %zu-bit payload -> %zu coded bits "
              "over 40 subcarriers, rate-1/2 K=7 + %zux interleaving\n\n",
              kUsers, wireless::to_string(mod).c_str(), payload_bits,
              coded_bits, kInterleaverRows);
  sim::print_columns({"deadline Na", "raw BER", "post-FEC BER", "block errors"});

  for (const std::size_t deadline_anneals : {1u, 3u, 10u, 30u, 100u}) {
    core::QuAMaxDetector detector(
        annealer, {.num_anneals = deadline_anneals, .keep_samples = false});

    std::size_t raw_errors = 0, fec_errors = 0, block_errors = 0, total = 0;
    for (int block = 0; block < kBlocks; ++block) {
      wireless::BitVec payload(payload_bits);
      for (auto& b : payload) b = rng.coin();
      wireless::BitVec tx =
          fec::interleave(code.encode(payload), kInterleaverRows);
      tx.resize(coded_bits, 0);  // codeword length == block capacity here

      // Transmit/detect each subcarrier under the anneal deadline.
      wireless::BitVec rx;
      rx.reserve(coded_bits);
      for (std::size_t sc = 0; sc < coded_bits / bits_per_use; ++sc) {
        wireless::ChannelUse use = wireless::make_channel_use(
            kUsers, kUsers, mod, wireless::ChannelKind::kRayleigh, 16.0, rng);
        // Overwrite the random payload with this subcarrier's coded bits.
        std::copy(tx.begin() + static_cast<std::ptrdiff_t>(sc * bits_per_use),
                  tx.begin() + static_cast<std::ptrdiff_t>((sc + 1) * bits_per_use),
                  use.tx_bits.begin());
        use.tx_symbols = wireless::modulate_gray(use.tx_bits, mod);
        use.y = use.h * use.tx_symbols;
        wireless::add_awgn(use.y, use.noise_sigma, rng);

        const core::DetectionResult result = detector.detect(use, rng);
        rx.insert(rx.end(), result.bits.begin(), result.bits.end());
      }
      raw_errors += wireless::count_bit_errors(rx, tx);

      const wireless::BitVec decoded =
          code.decode(fec::deinterleave(rx, kInterleaverRows));
      const std::size_t block_bit_errors =
          wireless::count_bit_errors(decoded, payload);
      fec_errors += block_bit_errors;
      block_errors += block_bit_errors > 0;
      total += payload_bits;
    }

    const double raw_ber = static_cast<double>(raw_errors) /
                           static_cast<double>(kBlocks * coded_bits);
    const double fec_ber =
        static_cast<double>(fec_errors) / static_cast<double>(total);
    sim::print_row({std::to_string(deadline_anneals), sim::fmt_ber(raw_ber),
                    sim::fmt_ber(fec_ber),
                    std::to_string(block_errors) + "/" + std::to_string(kBlocks)});
  }

  std::printf(
      "\nReading: as the per-subcarrier anneal deadline grows, the raw\n"
      "detector BER falls; once it enters the convolutional code's waterfall\n"
      "(~1e-2), the FEC layer eliminates the residual errors — the paper's\n"
      "deadline + FEC operating point.\n");
  return 0;
}
