// Triangle clique embedding of fully-connected Ising problems into Chimera
// (paper §3.3, Fig. 3(b); Venturelli et al. [69]).
//
// A problem with N logical spins is split into D = ceil(N/4) groups of four.
// Group d's four chains live along row d (horizontal qubits, cells
// [d, 0..d]) and down column d (vertical qubits, cells [d..D-1, d]); the two
// runs meet in diagonal cell [d, d] through an intra-cell coupler.  Every
// chain therefore has exactly ceil(N/4) + 1 physical qubits, and every
// logical pair (i, j) has a physical coupler available:
//   * same group     -> inside diagonal cell [d, d];
//   * groups e < d   -> inside cell [d, e] (group d horizontal x group e
//                       vertical) — Fig. 3(b)'s inter-connection cells.
//
// The embedded objective (Appendix B, Eqs. 10-12): chain edges get the
// maximal negative coupling (-1 standard range, -2 improved range), problem
// couplings are divided by |J_F|, and fields are divided by |J_F| and split
// evenly over each chain's qubits — after normalizing the logical problem so
// its largest |coefficient| is 1 (the machine's programmable range).
//
// Eqs. 10-12 split in two.  Their STRUCTURE — the compact physical index,
// which coupler carries each chain bond and each logical pair, and the
// sorted coupler order — depends only on the placement, so it is compiled
// once, when find_clique_embedding / find_parallel_embeddings find the
// placement.  Their VALUES depend on the job: embed() scales the logical
// coefficients and scatters them into the compiled slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "quamax/chimera/graph.hpp"
#include "quamax/qubo/ising.hpp"

namespace quamax::chimera {

/// A placement: chains of physical qubits, one per logical variable, and
/// the layout compiled from them.  Only the placement searches below build
/// the layout, so only their results can be passed to embed().
struct Embedding {
  std::size_t num_logical = 0;
  std::vector<std::vector<Qubit>> chains;

  // Compiled layout over compact physical indices 0..P-1, assigned chain by
  // chain in chain order.
  std::vector<Qubit> compact_to_qubit;                     ///< compact -> chip id
  std::vector<std::vector<std::uint32_t>> compact_chains;  ///< chains, compact
  /// Every physical coupler the embedded problem can use, as (i, j) with
  /// i < j, sorted: the coalesced order embed() emits couplings in.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> couplers;
  /// Slots of `couplers` carrying a chain bond (Eq. 10).
  std::vector<std::uint32_t> bond_slots;
  /// pair_slot[i * num_logical + j], i < j: the slot of `couplers` carrying
  /// logical pair (i, j) (Eq. 12) — its first coupler in (position in chain
  /// i, position in chain j) order.
  std::vector<std::uint32_t> pair_slot;

  std::size_t chain_length() const {
    return chains.empty() ? 0 : chains.front().size();
  }
  std::size_t num_physical() const {
    std::size_t total = 0;
    for (const auto& chain : chains) total += chain.size();
    return total;
  }
};

/// Finds a triangle clique embedding for `num_logical` variables, searching
/// row/column placement offsets to avoid defective qubits, and compiles its
/// layout.  Throws CapacityError when the problem cannot fit (Table 2's bold
/// entries).
Embedding find_clique_embedding(std::size_t num_logical, const ChimeraGraph& graph);

/// Paper §4 parallelization, realized: places up to `count` DISJOINT
/// triangle embeddings for `num_logical`-variable problems on the chip
/// (tiling cell blocks of ceil(N/shore) x ceil(N/shore)), so that many
/// instances — "identical or not", e.g. different subcarriers — anneal in
/// the same batch.  Returns as many compiled embeddings as fit (at least
/// one); throws CapacityError if even one does not fit.
std::vector<Embedding> find_parallel_embeddings(std::size_t num_logical,
                                                std::size_t count,
                                                const ChimeraGraph& graph);

/// Embedding hyper-parameters (paper §4 "Annealer Parameter Setting").
/// The default |J_F| = 0.5 is the Fix-strategy optimum for the SA substrate
/// (bench_fig5_jf_sensitivity reproduces the U-shaped sensitivity; our
/// optimum sits at smaller |J_F| than the QPU's 3-8 because the classical
/// kernel trades chain integrity against ICE washout at a different point —
/// see EXPERIMENTS.md).
struct EmbedParams {
  double jf = 0.5;             ///< |J_F|, swept in Fig. 5
  bool improved_range = false; ///< extended coupler dynamic range (chain -2)
};

/// The embedded Ising problem over compact physical indices 0..P-1.
struct EmbeddedProblem {
  qubo::IsingModel physical;
  std::vector<Qubit> compact_to_qubit;             ///< compact -> chip id
  std::vector<std::vector<std::uint32_t>> chains;  ///< chains, compact indices
  double logical_scale = 1.0;  ///< divisor applied to normalize the logical problem
};

/// Embeds a (fully- or partially-connected) logical Ising model onto the
/// chip through the compiled `embedding` per Eqs. 10-12: scales the
/// logical coefficients, splits each field over its chain, sets the chain
/// bonds and accumulates each nonzero logical coupling into its pair's
/// slot; the couplings come out sorted, with duplicates summed and zero
/// sums dropped.
EmbeddedProblem embed(const qubo::IsingModel& logical, const Embedding& embedding,
                      const EmbedParams& params);

/// A wave of embedded problems merged into one chip-wide Ising model —
/// the §4-parallelized input shape ChimeraAnnealer::sample_batch anneals
/// (and the SA kernel's throughput yardstick in bench_micro_kernels).
struct MergedWave {
  qubo::IsingModel physical{0};
  /// Every problem's chains shifted into the merged index space (the
  /// collective-move groups for the merged problem).
  std::vector<std::vector<std::uint32_t>> chains;
  /// Problem s's physical spins occupy indices [offsets[s], offsets[s] +
  /// slots[s].compact_to_qubit.size()) of `physical`.
  std::vector<std::size_t> offsets;
};

/// Embeds problems[s] on slots[s] (disjoint placements, see
/// find_parallel_embeddings; a prefix of `slots` is used) straight into
/// one chip-wide model, each slot's fields and couplings exactly as embed()
/// gives them; one anneal of the result advances the whole wave.
MergedWave merge_embedded(const std::vector<const qubo::IsingModel*>& problems,
                          const std::vector<Embedding>& slots,
                          const EmbedParams& params);

/// Majority-vote unembedding (paper §3.3): each logical spin is the majority
/// of its chain (compact indices into `physical_spins`, which must hold
/// exactly the chains' qubits); exact ties are randomized.  `broken_chains`,
/// when non-null, receives the number of chains that were not unanimous.
qubo::SpinVec unembed(std::span<const std::int8_t> physical_spins,
                      const std::vector<std::vector<std::uint32_t>>& chains,
                      Rng& rng, std::size_t* broken_chains = nullptr);

/// Table 2 helper: logical and physical qubit counts for an Nt-user problem.
struct QubitFootprint {
  std::size_t logical = 0;
  std::size_t physical = 0;
  bool feasible = false;  ///< fits on the given chip
};
QubitFootprint qubit_footprint(std::size_t nt, int bits_per_symbol,
                               const ChimeraGraph& graph);

/// Paper §4: parallelization factor P_f ~= N_tot / (N (ceil(N/4)+1)),
/// floored at 1 (you cannot run a fraction of a problem).
double parallelization_factor(std::size_t num_logical, const ChimeraGraph& graph);

}  // namespace quamax::chimera
