// Chimera graph and clique-embedding tests (paper §3.3, Appendix B,
// Table 2): topology counts, chain structure, embedded-energy equivalence,
// and majority-vote unembedding.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <set>
#include <string>

#include "quamax/chimera/embedding.hpp"
#include "quamax/chimera/embedding_cache.hpp"
#include "quamax/chimera/graph.hpp"
#include "quamax/core/reduction.hpp"
#include "quamax/vpp/precode.hpp"
#include "quamax/wireless/channel.hpp"

namespace quamax::chimera {
namespace {

TEST(ChimeraGraphTest, C16HasPaperScaleCounts) {
  const ChimeraGraph g(16);
  EXPECT_EQ(g.num_qubits(), 2048u);
  EXPECT_EQ(g.num_working_qubits(), 2048u);
  // Ideal C16: 256 cells x 16 intra-cell + 2 x 16 x 15 x 4 inter-cell.
  EXPECT_EQ(g.num_couplers(), 4096u + 1920u);
}

TEST(ChimeraGraphTest, DefectMaskReducesWorkingCounts) {
  const ChimeraGraph g = ChimeraGraph::with_defects(16, 17, 123);
  EXPECT_EQ(g.num_working_qubits(), 2031u);  // the paper's 2000Q
  EXPECT_LT(g.num_couplers(), 6016u);
  std::size_t dead = 0;
  for (Qubit q = 0; q < g.num_qubits(); ++q) dead += g.is_working(q) ? 0 : 1;
  EXPECT_EQ(dead, 17u);
}

TEST(ChimeraGraphTest, QubitIdRoundTripsThroughCoords) {
  const ChimeraGraph g(4);
  for (Qubit q = 0; q < g.num_qubits(); ++q) {
    const auto c = g.coords(q);
    EXPECT_EQ(g.qubit_id(c.row, c.col, c.side, c.k), q);
  }
}

TEST(ChimeraGraphTest, IntraCellIsCompleteBipartite) {
  const ChimeraGraph g(2);
  for (int kv = 0; kv < 4; ++kv) {
    for (int kh = 0; kh < 4; ++kh) {
      EXPECT_TRUE(g.has_coupler(g.qubit_id(0, 0, 0, kv), g.qubit_id(0, 0, 1, kh)));
    }
    // Same side: no coupler.
    EXPECT_FALSE(g.has_coupler(g.qubit_id(0, 0, 0, kv),
                               g.qubit_id(0, 0, 0, (kv + 1) % 4)));
  }
}

TEST(ChimeraGraphTest, InterCellCouplersFollowOrientation) {
  const ChimeraGraph g(3);
  // Vertical qubits link same column, adjacent rows, same k.
  EXPECT_TRUE(g.has_coupler(g.qubit_id(0, 1, 0, 2), g.qubit_id(1, 1, 0, 2)));
  EXPECT_FALSE(g.has_coupler(g.qubit_id(0, 1, 0, 2), g.qubit_id(1, 1, 0, 3)));
  EXPECT_FALSE(g.has_coupler(g.qubit_id(0, 1, 0, 2), g.qubit_id(1, 2, 0, 2)));
  // Horizontal qubits link same row, adjacent columns, same k.
  EXPECT_TRUE(g.has_coupler(g.qubit_id(1, 0, 1, 0), g.qubit_id(1, 1, 1, 0)));
  EXPECT_FALSE(g.has_coupler(g.qubit_id(1, 0, 1, 0), g.qubit_id(2, 0, 1, 0)));
}

TEST(ChimeraGraphTest, NeighborsAreSymmetric) {
  const ChimeraGraph g = ChimeraGraph::with_defects(4, 5, 42);
  for (Qubit q = 0; q < g.num_qubits(); ++q) {
    for (Qubit nb : g.neighbors(q)) {
      const auto back = g.neighbors(nb);
      EXPECT_TRUE(std::find(back.begin(), back.end(), q) != back.end());
    }
  }
}

class EmbeddingSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EmbeddingSizeTest, ChainsHavePaperLengthAndAreConnectedPaths) {
  const std::size_t n = GetParam();
  const ChimeraGraph g(16);
  const Embedding e = find_clique_embedding(n, g);

  ASSERT_EQ(e.chains.size(), n);
  const std::size_t expected_len = (n + 3) / 4 + 1;
  std::set<Qubit> used;
  for (const auto& chain : e.chains) {
    EXPECT_EQ(chain.size(), expected_len);  // ceil(N/4) + 1 (paper §3.3)
    // Consecutive chain qubits are physically coupled (it's a path).
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      EXPECT_TRUE(g.has_coupler(chain[i], chain[i + 1]));
    for (Qubit q : chain) EXPECT_TRUE(used.insert(q).second);  // disjoint
  }
  EXPECT_EQ(used.size(), n * expected_len);  // Table 2's physical count
}

TEST_P(EmbeddingSizeTest, EveryLogicalPairHasAPhysicalCoupler) {
  const std::size_t n = GetParam();
  const ChimeraGraph g(16);
  const Embedding e = find_clique_embedding(n, g);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool found = false;
      for (Qubit a : e.chains[i]) {
        for (Qubit b : e.chains[j])
          if (g.has_coupler(a, b)) {
            found = true;
            break;
          }
        if (found) break;
      }
      EXPECT_TRUE(found) << "no coupler for logical pair (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EmbeddingSizeTest,
                         ::testing::Values(1u, 3u, 4u, 5u, 12u, 36u, 60u, 64u));

TEST(EmbeddingTest, TooLargeProblemThrowsCapacityError) {
  const ChimeraGraph g(16);
  EXPECT_THROW(find_clique_embedding(65, g), CapacityError);  // needs C17
}

TEST(EmbeddingTest, PlacementShiftsAroundDefects) {
  // Kill a qubit the (0,0)-anchored embedding of N=4 must use; the search
  // should relocate to a clean placement rather than fail.
  ChimeraGraph g(16);
  const Embedding anchored = find_clique_embedding(4, g);
  const Qubit victim = anchored.chains[0][0];

  g.disable_qubit(victim);
  const Embedding relocated = find_clique_embedding(4, g);
  for (const auto& chain : relocated.chains) {
    for (Qubit q : chain) {
      EXPECT_NE(q, victim);
      EXPECT_TRUE(g.is_working(q));
    }
  }
}

TEST(EmbeddingTest, UnavoidableDefectsThrowCapacityError) {
  // Disable qubit (0,0,v,0) in every candidate placement... simpler: a full
  // C16 clique (N=64) admits exactly one placement, so one defect inside it
  // must be fatal.
  ChimeraGraph g(16);
  const Embedding full = find_clique_embedding(64, g);
  g.disable_qubit(full.chains[0][0]);
  EXPECT_THROW(find_clique_embedding(64, g), CapacityError);
}

TEST(EmbeddedEnergyTest, EmbeddedGroundStateMatchesLogicalGroundState) {
  // For a small fully-connected problem on a small chip, brute-force both
  // the logical problem and the embedded problem; chain-satisfying embedded
  // ground state must unembed to the logical ground state.
  Rng rng{77};
  const std::size_t n = 5;  // chain length 3, 15 physical qubits on C4
  qubo::IsingModel logical(n);
  for (std::size_t i = 0; i < n; ++i) logical.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) logical.add_coupling(i, j, rng.normal());

  const ChimeraGraph g(4);
  const Embedding e = find_clique_embedding(n, g);
  const EmbeddedProblem ep = embed(logical, e, EmbedParams{.jf = 4.0});

  const qubo::GroundState logical_gs = qubo::brute_force_ground_state(logical);
  const qubo::GroundState embedded_gs = qubo::brute_force_ground_state(ep.physical);

  std::size_t broken = 0;
  Rng tie_rng{1};
  const qubo::SpinVec unembedded =
      unembed(embedded_gs.spins, ep.chains, tie_rng, &broken);
  EXPECT_EQ(broken, 0u) << "ground state should satisfy all chains at JF=4";
  EXPECT_NEAR(logical.energy(unembedded), logical_gs.energy, 1e-9);
}

TEST(EmbeddedEnergyTest, ChainSatisfiedEmbeddedEnergyIsAffineInLogicalEnergy) {
  // For configurations with intact chains, the embedded energy must be
  // logical_energy/(scale*JF) + chain constant — i.e. the same ordering.
  Rng rng{88};
  const std::size_t n = 6;
  qubo::IsingModel logical(n);
  for (std::size_t i = 0; i < n; ++i) logical.field(i) = rng.normal();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) logical.add_coupling(i, j, rng.normal());

  const ChimeraGraph g(4);
  const Embedding e = find_clique_embedding(n, g);
  const EmbedParams params{.jf = 3.0};
  const EmbeddedProblem ep = embed(logical, e, params);

  const std::size_t chain_len = e.chain_length();
  const double chain_bonds =
      static_cast<double>(n * (chain_len - 1));  // all at -1 when satisfied

  qubo::SpinVec logical_spins(n);
  qubo::SpinVec physical(ep.physical.num_spins());
  for (std::uint64_t code = 0; code < (1ull << n); ++code) {
    for (std::size_t i = 0; i < n; ++i) {
      logical_spins[i] = ((code >> i) & 1) ? 1 : -1;
      for (auto q : ep.chains[i]) physical[q] = logical_spins[i];
    }
    const double expected =
        logical.energy(logical_spins) / (ep.logical_scale * params.jf) - chain_bonds;
    EXPECT_NEAR(ep.physical.energy(physical), expected, 1e-9);
  }
}

TEST(UnembedTest, MajorityVoteAndTieRandomization) {
  // Two chains of length 3; break one chain 2-vs-1, tie the other via a
  // degenerate length-2 chain.
  EmbeddedProblem ep;
  ep.physical = qubo::IsingModel(5);
  ep.chains = {{0, 1, 2}, {3, 4}};
  ep.compact_to_qubit = {0, 1, 2, 3, 4};

  Rng rng{5};
  std::size_t broken = 0;
  const qubo::SpinVec logical =
      unembed(qubo::SpinVec{1, 1, -1, 1, -1}, ep.chains, rng, &broken);
  EXPECT_EQ(broken, 2u);
  EXPECT_EQ(logical[0], 1);  // majority 2:1

  // Tie outcomes must eventually produce both values (randomized).
  bool saw_plus = false, saw_minus = false;
  for (int i = 0; i < 64; ++i) {
    const auto l = unembed(qubo::SpinVec{1, 1, -1, 1, -1}, ep.chains, rng, nullptr);
    (l[1] > 0 ? saw_plus : saw_minus) = true;
  }
  EXPECT_TRUE(saw_plus);
  EXPECT_TRUE(saw_minus);
}

TEST(FootprintTest, Table2LogicalAndPhysicalCounts) {
  const ChimeraGraph g(16);
  // Table 2 row "10x10": BPSK 10 (40), QPSK 20 (120), 16-QAM 40 (440),
  // 64-QAM 60 (1K = 960).
  const QubitFootprint bpsk10 = qubit_footprint(10, 1, g);
  EXPECT_EQ(bpsk10.logical, 10u);
  EXPECT_EQ(bpsk10.physical, 40u);
  EXPECT_TRUE(bpsk10.feasible);

  const QubitFootprint qpsk10 = qubit_footprint(10, 2, g);
  EXPECT_EQ(qpsk10.logical, 20u);
  EXPECT_EQ(qpsk10.physical, 120u);

  const QubitFootprint qam16_10 = qubit_footprint(10, 4, g);
  EXPECT_EQ(qam16_10.logical, 40u);
  EXPECT_EQ(qam16_10.physical, 440u);

  const QubitFootprint qam64_10 = qubit_footprint(10, 6, g);
  EXPECT_EQ(qam64_10.logical, 60u);
  EXPECT_EQ(qam64_10.physical, 960u);
  EXPECT_TRUE(qam64_10.feasible);

  // Table 2 bold (infeasible) cells: 20x20 16-QAM (80 logical -> 1,680
  // physical... actually 80*(21)=1680 <= 2048 but needs C20) and beyond.
  const QubitFootprint qam16_20 = qubit_footprint(20, 4, g);
  EXPECT_EQ(qam16_20.logical, 80u);
  EXPECT_FALSE(qam16_20.feasible);  // 20 cell-groups > 16 grid rows

  const QubitFootprint bpsk60 = qubit_footprint(60, 1, g);
  EXPECT_EQ(bpsk60.logical, 60u);
  EXPECT_EQ(bpsk60.physical, 60u * 16u);
  EXPECT_TRUE(bpsk60.feasible);
}

TEST(FootprintTest, ParallelizationFactorMatchesPaperExample) {
  const ChimeraGraph g(16);
  // §4: a 16-qubit problem uses 80 physical qubits and runs > 20x parallel.
  const double pf = parallelization_factor(16, g);
  EXPECT_NEAR(pf, 2048.0 / 80.0, 1e-12);
  EXPECT_GT(pf, 20.0);
  // Large problems cannot be parallelized: floor at 1.
  EXPECT_DOUBLE_EQ(parallelization_factor(60, g), 2048.0 / 960.0);
  EXPECT_DOUBLE_EQ(parallelization_factor(64, g), 2048.0 / 1088.0);
}

TEST(EmbedTest, ImprovedRangeDoublesChainCoupling) {
  qubo::IsingModel logical(2);
  logical.field(0) = 1.0;
  logical.add_coupling(0, 1, 0.5);
  const ChimeraGraph g(4);
  const Embedding e = find_clique_embedding(2, g);

  const EmbeddedProblem std_range = embed(logical, e, {.jf = 2.0});
  const EmbeddedProblem imp_range =
      embed(logical, e, {.jf = 2.0, .improved_range = true});

  double std_chain = 0.0, imp_chain = 0.0;
  for (const auto& c : std_range.physical.couplings())
    if (c.g < 0.0) std_chain = std::min(std_chain, c.g);
  for (const auto& c : imp_range.physical.couplings())
    if (c.g < 0.0) imp_chain = std::min(imp_chain, c.g);
  EXPECT_DOUBLE_EQ(std_chain, -1.0);
  EXPECT_DOUBLE_EQ(imp_chain, -2.0);
}

TEST(EmbedTest, FieldsAreSplitAcrossChains) {
  // Eq. 11: each chain qubit carries f_i / (scale * JF * chain_len).
  qubo::IsingModel logical(3);
  logical.field(0) = 2.0;  // max coeff -> scale = 2
  logical.add_coupling(0, 1, 1.0);
  logical.add_coupling(1, 2, -0.5);
  const ChimeraGraph g(4);
  const Embedding e = find_clique_embedding(3, g);
  const EmbeddedProblem ep = embed(logical, e, {.jf = 5.0});

  EXPECT_DOUBLE_EQ(ep.logical_scale, 2.0);
  const double expected_share =
      (2.0 / 2.0) / 5.0 / static_cast<double>(e.chain_length());
  for (auto q : ep.chains[0])
    EXPECT_NEAR(ep.physical.field(q), expected_share, 1e-12);
  for (auto q : ep.chains[2]) EXPECT_NEAR(ep.physical.field(q), 0.0, 1e-12);
}

/// FNV-1a over everything embed() returns for `logical` on `placement`, at
/// both dynamic ranges and two |J_F| values: the compact index, the chains,
/// the bits of logical_scale, every field's bits and every coupling's
/// (i, j, bits of g) in stored order.  The placement must sit on working
/// qubits of `graph`, the chip it was found on.
std::string embed_hash(const qubo::IsingModel& logical, const Embedding& placement,
                       const ChimeraGraph& graph) {
  for (const auto& chain : placement.chains)
    for (const Qubit q : chain) EXPECT_TRUE(graph.is_working(q));
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const bool improved : {false, true}) {
    for (const double jf : {0.5, 2.0}) {
      const EmbeddedProblem ep =
          embed(logical, placement, {.jf = jf, .improved_range = improved});
      mix(ep.compact_to_qubit.size());
      for (const Qubit q : ep.compact_to_qubit) mix(q);
      mix(ep.chains.size());
      for (const auto& chain : ep.chains) {
        mix(chain.size());
        for (const std::uint32_t q : chain) mix(q);
      }
      mix(std::bit_cast<std::uint64_t>(ep.logical_scale));
      mix(ep.physical.num_spins());
      for (const double f : ep.physical.fields()) mix(std::bit_cast<std::uint64_t>(f));
      mix(ep.physical.couplings().size());
      for (const qubo::Coupling& c : ep.physical.couplings()) {
        mix(c.i);
        mix(c.j);
        mix(std::bit_cast<std::uint64_t>(c.g));
      }
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

qubo::IsingModel ml_problem(std::size_t users, wireless::Modulation mod,
                            std::uint64_t seed) {
  Rng rng{seed};
  const wireless::ChannelUse use = wireless::make_channel_use(
      users, users, mod, wireless::ChannelKind::kRayleigh, 15.0, rng);
  return core::reduce_ml(use.h, use.y, use.mod).ising;
}

/// True when some logical pair has no coupling entry.
bool has_missing_pair(const qubo::IsingModel& model) {
  const std::size_t n = model.num_spins();
  return model.couplings().size() < n * (n - 1) / 2;
}

// embed() values pinned by hash on every served shape: BPSK at n = 8, 16
// and 48, QPSK (whose I/Q structure leaves exact-zero pairs out), 16-QAM,
// a VPP downlink problem and a hand-built model with duplicate and
// cancelling couplings; on the clique placement, a tiling slot k > 0, a
// defective chip whose clique placement is shifted, and a cache rebuilt
// after defect growth.  The hashes were recorded before embed() was split
// into a per-placement compile and a per-job fill; they must never need
// editing for a refactor.
TEST(EmbedTest, OutputsArePinned) {
  const ChimeraGraph chip(16);
  const ChimeraGraph defective = ChimeraGraph::with_defects(16, 17, 146);

  const qubo::IsingModel bpsk8 = ml_problem(8, wireless::Modulation::kBpsk, 11);
  const qubo::IsingModel bpsk16 = ml_problem(16, wireless::Modulation::kBpsk, 12);
  const qubo::IsingModel bpsk48 = ml_problem(48, wireless::Modulation::kBpsk, 13);
  const qubo::IsingModel qpsk8 = ml_problem(8, wireless::Modulation::kQpsk, 14);
  const qubo::IsingModel qam16 = ml_problem(4, wireless::Modulation::kQam16, 15);
  Rng vpp_rng{16};
  const qubo::IsingModel vpp4 =
      vpp::make_precode_instance(vpp::VppConfig{}, vpp_rng).problem.ising;
  ASSERT_TRUE(has_missing_pair(qpsk8));  // I/Q zeros are never stored

  // Duplicate (i, j) entries, one given as (j, i); a pair summing to
  // exactly zero; an explicit zero coupling; a negative-zero field.
  qubo::IsingModel hand(6);
  hand.field(0) = 0.75;
  hand.field(3) = -0.0;
  hand.field(5) = -1.25;
  hand.add_coupling(0, 1, 0.5);
  hand.add_coupling(2, 3, 0.375);
  hand.add_coupling(1, 0, -0.125);
  hand.add_coupling(4, 5, 0.0);
  hand.add_coupling(2, 3, -0.375);
  hand.add_coupling(0, 5, 1.5);
  hand.add_coupling(0, 1, 0.0625);
  hand.add_coupling(3, 4, -0.25);

  // Growth: kill a qubit of the 16-variable clique and rebuild the cache.
  EmbeddingCache cache{chip};
  ChimeraGraph grown = chip;
  grown.disable_qubit(cache.clique(16)->chains[5][2]);
  cache.invalidate(grown);

  const auto clique_on_defects = find_clique_embedding(48, defective);
  ASSERT_NE(clique_on_defects.chains[0][0], defective.qubit_id(0, 0, 1, 0));

  struct Case {
    const char* name;
    const qubo::IsingModel* logical;
    Embedding placement;
    const ChimeraGraph* graph;
    const char* hash;
  };
  const std::vector<Case> cases = {
      {"bpsk8", &bpsk8, find_clique_embedding(8, chip), &chip,
       "63b4e062424de4ad"},
      {"bpsk16", &bpsk16, find_clique_embedding(16, chip), &chip,
       "f8ebbce1fe00c2a5"},
      {"bpsk48", &bpsk48, find_clique_embedding(48, chip), &chip,
       "60632061604372c5"},
      {"qpsk8", &qpsk8, find_clique_embedding(16, chip), &chip,
       "4391ec937b25743d"},
      {"qam16", &qam16, find_clique_embedding(16, chip), &chip,
       "3b0cedcf6e910fc5"},
      {"vpp4", &vpp4, find_clique_embedding(vpp4.num_spins(), chip), &chip,
       "4f31af1bc51674f5"},
      {"hand", &hand, find_clique_embedding(6, chip), &chip,
       "57b3460070dab7dd"},
      {"bpsk8_slot5", &bpsk8, find_parallel_embeddings(8, 64, chip)[5], &chip,
       "350341370c0ff6ad"},
      {"qpsk8_slot3", &qpsk8, find_parallel_embeddings(16, 16, chip)[3], &chip,
       "8df7a79a4dd3917d"},
      {"bpsk48_defects", &bpsk48, clique_on_defects, &defective,
       "1ba9ebc185f38545"},
      {"bpsk16_defects", &bpsk16, find_clique_embedding(16, defective),
       &defective, "c40e059836907d65"},
      {"qpsk8_grown", &qpsk8, *cache.clique(16), &grown,
       "6d5ef5b9f4ba997d"},
      {"qpsk8_grown_slot1", &qpsk8, (*cache.parallel(16))[1], &grown,
       "d56ac357f66dd43d"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(embed_hash(*c.logical, c.placement, *c.graph), c.hash);
  }
}

}  // namespace
}  // namespace quamax::chimera
