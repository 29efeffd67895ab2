// C-RAN uplink scenario: an OFDM frame whose subcarriers are decoded by one
// centralized annealer (the deployment the paper's §1/§7 envisions).
//
// A 12-user QPSK uplink transmits one OFDM symbol over 16 flat-fading
// subcarriers; each subcarrier is an independent ML detection problem.  The
// data-center annealer decodes them in BATCHES: sample_batch() places
// several subcarriers' clique embeddings side by side on the chip so one
// anneal advances all of them (the paper's "opportunity to parallelize
// different problems, e.g. different subcarriers' ML decoding", §5.5).
//
// Build & run:  ./examples/uplink_ofdm

#include <cstdio>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/detector.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  anneal::AnnealerConfig config = sim::annealer_config(argc, argv);

  Rng rng{7};
  constexpr std::size_t kUsers = 12;
  constexpr std::size_t kSubcarriers = 16;
  constexpr double kSnrDb = 22.0;
  const auto mod = wireless::Modulation::kQpsk;

  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  anneal::ChimeraAnnealer annealer(config);

  const std::size_t logical =
      core::num_solution_variables(kUsers, mod);
  std::printf("Uplink: %zu users, %s, %zu subcarriers, %.0f dB SNR\n", kUsers,
              wireless::to_string(mod).c_str(), kSubcarriers, kSnrDb);
  std::printf("Each subcarrier is a %zu-spin Ising problem; chip fits %.1f of "
              "them per anneal batch\n\n",
              logical, annealer.parallelization_factor(logical));

  // Each subcarrier sees its own narrowband channel (OFDM flat fading);
  // reduce every subcarrier's ML problem up front.
  std::vector<wireless::ChannelUse> uses;
  std::vector<core::MlProblem> reduced;
  std::vector<const qubo::IsingModel*> problems;
  for (std::size_t sc = 0; sc < kSubcarriers; ++sc) {
    uses.push_back(wireless::make_channel_use(
        kUsers, kUsers, mod, wireless::ChannelKind::kRayleigh, kSnrDb, rng));
    reduced.push_back(core::reduce_ml_to_ising_closed_form(
        uses.back().h, uses.back().y, mod));
  }
  for (const auto& p : reduced) problems.push_back(&p.ising);

  // One batched submission: the chip hosts several subcarriers per anneal
  // (paper §5.5: "parallelize different problems, e.g. different
  // subcarriers' ML decoding").
  constexpr std::size_t kAnneals = 100;
  const auto batches = annealer.sample_batch(problems, kAnneals, rng);

  std::size_t frame_bit_errors = 0;
  std::size_t frame_bits = 0;
  std::size_t exact_subcarriers = 0;
  for (std::size_t sc = 0; sc < kSubcarriers; ++sc) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t a = 0; a < batches[sc].size(); ++a) {
      const double e = reduced[sc].ising.energy(batches[sc][a]);
      if (e < best) {
        best = e;
        best_idx = a;
      }
    }
    const wireless::BitVec bits =
        core::gray_bits_from_spins(batches[sc][best_idx], kUsers, mod);
    const std::size_t errors = wireless::count_bit_errors(bits, uses[sc].tx_bits);
    frame_bit_errors += errors;
    frame_bits += uses[sc].tx_bits.size();
    exact_subcarriers += (errors == 0);
    std::printf("subcarrier %2zu: metric %8.4f, bit errors %zu\n", sc,
                best + reduced[sc].ising.offset(), errors);
  }

  const double ber =
      static_cast<double>(frame_bit_errors) / static_cast<double>(frame_bits);
  const double pf = annealer.parallelization_factor(logical);
  const double sequential_us =
      annealer.anneal_duration_us() * kAnneals * kSubcarriers;
  const double batched_us = annealer.anneal_duration_us() * kAnneals *
                            std::ceil(kSubcarriers / std::floor(pf));
  std::printf("\nFrame summary: %zu/%zu subcarriers exact, BER = %.2e\n",
              exact_subcarriers, kSubcarriers, ber);
  std::printf("Anneal time: %.0f us if decoded one-by-one; %.0f us with the "
              "batched submission (%.1f slots/chip)\n",
              sequential_us, batched_us, std::floor(pf));
  std::printf("1500-byte FER at this BER: %.2e\n",
              wireless::fer_from_ber(ber, 1500));
  return 0;
}
