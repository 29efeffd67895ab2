// Randomized cross-module property tests: the invariants in DESIGN.md §6,
// exercised over randomly drawn problem sizes, channels, modulations and
// configurations (beyond the fixed cases in the per-module suites).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "quamax/anneal/annealer.hpp"
#include "quamax/core/reduction.hpp"
#include "quamax/detect/sphere.hpp"
#include "quamax/fec/convolutional.hpp"
#include "quamax/metrics/solution_stats.hpp"
#include "quamax/sim/runner.hpp"

namespace quamax {
namespace {

using wireless::ChannelKind;
using wireless::Modulation;

Modulation random_modulation(Rng& rng, bool include_qam64 = true) {
  switch (rng.uniform_index(include_qam64 ? 4 : 3)) {
    case 0: return Modulation::kBpsk;
    case 1: return Modulation::kQpsk;
    case 2: return Modulation::kQam16;
    default: return Modulation::kQam64;
  }
}

/// Invariant 1: the reduction is exact for random candidates on random
/// rectangular channels (not only square ones), every modulation.
TEST(ReductionProperty, RandomCandidatesMatchMlMetricOnRectangularChannels) {
  Rng rng{0x9001};
  for (int trial = 0; trial < 60; ++trial) {
    const Modulation mod = random_modulation(rng);
    const std::size_t nt = 1 + rng.uniform_index(6);
    const std::size_t nr = nt + rng.uniform_index(5);  // Nr >= Nt
    const double snr = rng.uniform(0.0, 35.0);
    const auto use =
        wireless::make_channel_use(nr, nt, mod, ChannelKind::kRayleigh, snr, rng);
    const core::MlProblem problem = core::reduce_ml_to_ising(use.h, use.y, mod);

    for (int k = 0; k < 16; ++k) {
      qubo::SpinVec spins(problem.num_vars());
      for (auto& s : spins) s = rng.coin() ? 1 : -1;
      const auto v = core::symbols_from_spins(spins, nt, mod);
      const double direct = linalg::norm_sq(linalg::residual(use.y, use.h, v));
      EXPECT_NEAR(problem.ising.absolute_energy(spins), direct,
                  1e-6 * (1.0 + direct));
    }
  }
}

/// Invariant 2: closed forms equal the generic path on random channels
/// (field-by-field and coupling-by-coupling checks live in reduction_test;
/// here we compare whole-configuration energies, which also covers offsets).
TEST(ReductionProperty, ClosedFormEnergiesMatchGenericOnRandomInstances) {
  Rng rng{0x9002};
  for (int trial = 0; trial < 40; ++trial) {
    const Modulation mod = random_modulation(rng, /*include_qam64=*/false);
    const std::size_t nt = 1 + rng.uniform_index(10);
    const auto use = wireless::make_channel_use(nt + rng.uniform_index(3), nt, mod,
                                                ChannelKind::kRayleigh, 12.0, rng);
    const auto generic = core::reduce_ml_to_ising(use.h, use.y, mod);
    const auto closed = core::reduce_ml_to_ising_closed_form(use.h, use.y, mod);
    for (int k = 0; k < 8; ++k) {
      qubo::SpinVec spins(generic.num_vars());
      for (auto& s : spins) s = rng.coin() ? 1 : -1;
      EXPECT_NEAR(generic.ising.absolute_energy(spins),
                  closed.ising.absolute_energy(spins), 1e-6);
    }
  }
}

/// Invariant 3: QUBO <-> Ising round trips preserve absolute energies for
/// random models and random configurations.
TEST(QuboProperty, RandomRoundTripsPreserveAbsoluteEnergy) {
  Rng rng{0x9003};
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(20);
    qubo::IsingModel m(n);
    for (std::size_t i = 0; i < n; ++i) m.field(i) = rng.normal(0.0, 2.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (rng.uniform() < 0.4) m.add_coupling(i, j, rng.normal(0.0, 2.0));
    m.set_offset(rng.normal(0.0, 5.0));

    const qubo::IsingModel round = qubo::to_ising(qubo::to_qubo(m));
    for (int k = 0; k < 10; ++k) {
      qubo::SpinVec spins(n);
      for (auto& s : spins) s = rng.coin() ? 1 : -1;
      EXPECT_NEAR(m.absolute_energy(spins), round.absolute_energy(spins), 1e-8);
    }
  }
}

/// Invariant 5: for chain-intact configurations, embedded energies are an
/// affine function of logical energies — same argmin — for random problems,
/// random |J_F|, both dynamic ranges, and random shore sizes.
TEST(EmbeddingProperty, ChainIntactEnergiesAreAffineInLogicalEnergies) {
  Rng rng{0x9005};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(12);
    qubo::IsingModel logical(n);
    for (std::size_t i = 0; i < n; ++i) logical.field(i) = rng.normal();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        logical.add_coupling(i, j, rng.normal());

    const std::size_t shore = rng.coin() ? 4 : 12;
    const chimera::ChimeraGraph graph(8, shore);
    const chimera::EmbedParams params{
        .jf = rng.uniform(0.25, 4.0),
        .improved_range = rng.coin(),
    };
    const auto embedding = chimera::find_clique_embedding(n, graph);
    const auto embedded = chimera::embed(logical, embedding, params);

    const double chain_strength = params.improved_range ? 2.0 : 1.0;
    double chain_bonds = 0.0;
    for (const auto& chain : embedded.chains)
      chain_bonds += chain_strength * static_cast<double>(chain.size() - 1);

    qubo::SpinVec logical_spins(n);
    qubo::SpinVec physical(embedded.physical.num_spins());
    for (int k = 0; k < 12; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        logical_spins[i] = rng.coin() ? 1 : -1;
        for (const auto q : embedded.chains[i]) physical[q] = logical_spins[i];
      }
      const double expected =
          logical.energy(logical_spins) / (embedded.logical_scale * params.jf) -
          chain_bonds;
      EXPECT_NEAR(embedded.physical.energy(physical), expected,
                  1e-9 * (1.0 + std::abs(expected)));
    }
  }
}

/// Invariant 6: Sphere Decoder == exhaustive ML on random small instances
/// across the full modulation set and a wide SNR band.
TEST(SphereProperty, MatchesExhaustiveMlOnRandomInstances) {
  Rng rng{0x9006};
  for (int trial = 0; trial < 25; ++trial) {
    const Modulation mod = random_modulation(rng);
    const std::size_t max_nt =
        mod == Modulation::kBpsk ? 10 : mod == Modulation::kQpsk ? 6 : 3;
    const std::size_t nt = 1 + rng.uniform_index(max_nt);
    const double snr = rng.uniform(2.0, 30.0);
    const auto use =
        wireless::make_channel_use(nt, nt, mod, ChannelKind::kRayleigh, snr, rng);
    const auto sphere = detect::SphereDecoder{}.detect(use);
    const auto oracle = detect::exhaustive_ml_detect(use);
    EXPECT_NEAR(sphere.metric, oracle.metric, 1e-7 * (1.0 + oracle.metric));
    EXPECT_EQ(sphere.bits, oracle.bits);
  }
}

/// Invariant 8 (extended): Eq. 9 properties on random empirical
/// distributions — N_a = 1 equals the distribution mean; the asymptote is
/// the rank-1 BER; probabilities over ranks integrate to 1.
TEST(MetricsProperty, Eq9LimitsHoldOnRandomDistributions) {
  Rng rng{0x9008};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.uniform_index(8);  // spins (BPSK users)
    const std::size_t draws = 50 + rng.uniform_index(200);
    // Random channel instance + random low-quality sampler: uniform spins.
    wireless::BitVec tx(n);
    for (auto& b : tx) b = rng.coin();
    std::vector<qubo::SpinVec> samples;
    std::vector<double> energies;
    qubo::IsingModel model(n);
    for (std::size_t i = 0; i < n; ++i) model.field(i) = rng.normal();
    for (std::size_t k = 0; k < draws; ++k) {
      qubo::SpinVec s(n);
      for (auto& x : s) x = rng.coin() ? 1 : -1;
      energies.push_back(model.energy(s));
      samples.push_back(std::move(s));
    }
    const auto stats = metrics::SolutionStats::build(samples, energies, tx, n,
                                                     Modulation::kBpsk);

    // N_a = 1: expectation over the raw distribution.
    double mean_errors = 0.0;
    for (const auto& ranked : stats.ranked())
      mean_errors += ranked.probability * static_cast<double>(ranked.bit_errors);
    EXPECT_NEAR(stats.expected_ber(1), mean_errors / static_cast<double>(n), 1e-12);

    // Large N_a: rank-1 BER.
    EXPECT_NEAR(stats.expected_ber(100000), stats.asymptotic_ber(), 1e-9);

    // Rank probabilities are a distribution.
    double total = 0.0;
    for (const auto& ranked : stats.ranked()) total += ranked.probability;
    EXPECT_NEAR(total, 1.0, 1e-12);

    // Energies are sorted ascending by rank.
    for (std::size_t k = 1; k < stats.ranked().size(); ++k)
      EXPECT_LE(stats.ranked()[k - 1].energy, stats.ranked()[k].energy + 1e-12);
  }
}

/// Invariant 7 (extended): the Fig. 2 translation loop is lossless for
/// random bit strings through the full modulate -> spins -> decode chain.
TEST(TranslationProperty, FullBitChainRoundTripsRandomly) {
  Rng rng{0x9007};
  for (int trial = 0; trial < 100; ++trial) {
    const Modulation mod = random_modulation(rng);
    const std::size_t nt = 1 + rng.uniform_index(8);
    wireless::BitVec bits(nt *
                          static_cast<std::size_t>(wireless::bits_per_symbol(mod)));
    for (auto& b : bits) b = rng.coin();

    // Gray bits -> spins -> symbols must equal direct Gray modulation.
    const auto spins = core::spins_for_gray_bits(bits, nt, mod);
    const auto via_spins = core::symbols_from_spins(spins, nt, mod);
    const auto direct = wireless::modulate_gray(bits, mod);
    for (std::size_t u = 0; u < nt; ++u)
      EXPECT_LT(std::abs(via_spins[u] - direct[u]), 1e-12);

    // And back.
    EXPECT_EQ(core::gray_bits_from_spins(spins, nt, mod), bits);
  }
}

/// FEC: random payloads survive random scattered channel errors at rates
/// inside the code's correction capability.
TEST(FecProperty, RandomScatteredErrorsWithinCapabilityAreCorrected) {
  Rng rng{0x9009};
  const fec::ConvolutionalCode code;
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 50 + rng.uniform_index(400);
    wireless::BitVec data(len);
    for (auto& b : data) b = rng.coin();
    auto coded = code.encode(data);
    // One error per ~80 coded bits, far apart: always correctable.
    for (std::size_t pos = rng.uniform_index(40); pos < coded.size();
         pos += 80 + rng.uniform_index(40))
      coded[pos] ^= 1u;
    failures += (code.decode(coded) != data);
  }
  EXPECT_EQ(failures, 0);
}

/// Unembedding: majority vote equals exact logical recovery whenever chains
/// are intact, for random chain partitions.
TEST(UnembedProperty, IntactChainsRecoverExactly) {
  Rng rng{0x900A};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(10);
    const chimera::ChimeraGraph graph(8);
    const auto embedding = chimera::find_clique_embedding(n, graph);
    qubo::IsingModel logical(n);
    const auto embedded =
        chimera::embed(logical, embedding, chimera::EmbedParams{});

    qubo::SpinVec logical_spins(n);
    qubo::SpinVec physical(embedded.physical.num_spins());
    for (std::size_t i = 0; i < n; ++i) {
      logical_spins[i] = rng.coin() ? 1 : -1;
      for (const auto q : embedded.chains[i]) physical[q] = logical_spins[i];
    }
    std::size_t broken = 7;
    EXPECT_EQ(chimera::unembed(physical, embedded.chains, rng, &broken), logical_spins);
    EXPECT_EQ(broken, 0u);
  }
}

}  // namespace
}  // namespace quamax
