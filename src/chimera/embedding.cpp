#include "quamax/chimera/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "quamax/obs/profile.hpp"

namespace quamax::chimera {
namespace {

/// Builds the triangle embedding at a given placement offset, or returns an
/// empty optional-like (empty chains) if a required qubit is defective.
/// Groups hold `shore` logical variables per diagonal cell, so chains have
/// ceil(N/shore)+1 qubits (= ceil(N/4)+1 on the 2000Q, ceil(N/12)+1 on the
/// §8 next-generation chip).
bool try_build(std::size_t num_logical, const ChimeraGraph& graph,
               std::size_t row0, std::size_t col0, Embedding& out) {
  const std::size_t shore = graph.shore_size();
  const std::size_t groups = (num_logical + shore - 1) / shore;
  if (row0 + groups > graph.grid_size() || col0 + groups > graph.grid_size())
    return false;

  out.num_logical = num_logical;
  out.chains.assign(num_logical, {});

  for (std::size_t logical = 0; logical < num_logical; ++logical) {
    const std::size_t d = logical / shore;
    const int k = static_cast<int>(logical % shore);
    std::vector<Qubit>& chain = out.chains[logical];

    // Horizontal run along row d: cells [d, 0..d].
    for (std::size_t e = 0; e <= d; ++e)
      chain.push_back(graph.qubit_id(row0 + d, col0 + e, 1, k));
    // Vertical run down column d: cells [d..groups-1, d].
    for (std::size_t r = d; r < groups; ++r)
      chain.push_back(graph.qubit_id(row0 + r, col0 + d, 0, k));

    for (Qubit q : chain)
      if (!graph.is_working(q)) return false;
  }
  return true;
}

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// A chip qubit's place in the placement being compiled.
struct Site {
  std::uint32_t chain = kNone;
  std::uint32_t position = 0;
};

/// Compiles `e`'s layout from its chains (see Embedding).  `sites` is a
/// qubit -> Site scratch table sized to the chip; it is all-empty on entry
/// and on return, so one table serves every slot of a tiling.
void compile(Embedding& e, const ChimeraGraph& graph, std::vector<Site>& sites) {
  const std::size_t n = e.num_logical;
  e.compact_chains.assign(n, {});
  e.compact_to_qubit.clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < e.chains[i].size(); ++p) {
      const Qubit q = e.chains[i][p];
      require(sites[q].chain == kNone, "embed: chains overlap on a physical qubit");
      sites[q] = {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(p)};
      e.compact_chains[i].push_back(
          static_cast<std::uint32_t>(e.compact_to_qubit.size()));
      e.compact_to_qubit.push_back(q);
    }
  }

  // Eq. 12: logical pair (i, j) takes its first coupler in (position in
  // chain i, position in chain j) order, found by walking each chain
  // qubit's neighbours instead of testing every chain x chain qubit pair.
  std::vector<std::uint64_t> first(n * n, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < e.chains[i].size(); ++p) {
      for (const Qubit nb : graph.neighbors(e.chains[i][p])) {
        const Site site = sites[nb];
        if (site.chain == kNone || site.chain <= i) continue;
        std::uint64_t& best = first[i * n + site.chain];
        best = std::min(best, (std::uint64_t{p} << 32) | site.position);
      }
    }
  }
  for (const Qubit q : e.compact_to_qubit) sites[q] = Site{};

  // Chains take compact indices in chain order, so a bond (c, c+1) and a
  // pair coupler from chain i to chain j > i are both already (lo, hi).
  struct Entry {
    std::uint32_t a, b;
    std::uint32_t pair;  ///< i * n + j, or kNone for a chain bond
  };
  std::vector<Entry> entries;
  for (const auto& chain : e.compact_chains)
    for (std::size_t c = 0; c + 1 < chain.size(); ++c)
      entries.push_back({chain[c], chain[c + 1], kNone});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint64_t best = first[i * n + j];
      require(best != std::numeric_limits<std::uint64_t>::max(),
              "embed: logical coupling has no physical coupler (not a "
              "clique embedding?)");
      entries.push_back({e.compact_chains[i][best >> 32],
                         e.compact_chains[j][best & 0xffffffffu],
                         static_cast<std::uint32_t>(i * n + j)});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });

  e.couplers.clear();
  e.bond_slots.clear();
  e.pair_slot.assign(n * n, kNone);
  for (const Entry& entry : entries) {
    const auto slot = static_cast<std::uint32_t>(e.couplers.size());
    e.couplers.emplace_back(entry.a, entry.b);
    if (entry.pair == kNone)
      e.bond_slots.push_back(slot);
    else
      e.pair_slot[entry.pair] = slot;
  }
}

/// The per-job half of Eqs. 10-12: writes `logical`'s embedded fields and
/// nonzero couplings into `out` at spin offset `offset`, in the compiled
/// (sorted, coalesced) coupler order.  Returns the logical scale.
double fill(const qubo::IsingModel& logical, const Embedding& embedding,
            const EmbedParams& params, std::size_t offset, qubo::IsingModel& out) {
  QUAMAX_PROF_SCOPE("chimera.embed");
  const std::size_t n = logical.num_spins();
  require(embedding.num_logical == n,
          "embed: embedding size does not match problem");
  require(params.jf > 0.0, "embed: |J_F| must be positive");
  require(embedding.pair_slot.size() == n * n,
          "embed: placement has no compiled layout");

  // Dynamic-range normalization: the chip programs couplings in [-1, +1]
  // (negative end doubled to -2 with improved range), so the logical problem
  // is rescaled to unit max |coefficient| before Eqs. 10-12 divide by |J_F|.
  const double max_coeff = logical.max_abs_coefficient();
  const double scale = (max_coeff > 0.0) ? max_coeff : 1.0;

  // Eq. 11: fields split evenly across the chain, divided by |J_F|.
  for (std::size_t i = 0; i < n; ++i) {
    const auto& chain = embedding.compact_chains[i];
    const double share = logical.field(i) / scale / params.jf /
                         static_cast<double>(chain.size());
    for (const std::uint32_t q : chain) out.field(offset + q) += share;
  }

  // Eq. 10: ferromagnetic chain bonds; Eq. 12: each logical coupling summed
  // into its pair's coupler, in logical order.
  std::vector<double> values(embedding.couplers.size(), 0.0);
  const double chain_coupling = params.improved_range ? -2.0 : -1.0;
  for (const std::uint32_t slot : embedding.bond_slots) values[slot] += chain_coupling;
  for (const qubo::Coupling& c : logical.couplings())
    if (c.g != 0.0)
      values[embedding.pair_slot[c.i * n + c.j]] += c.g / scale / params.jf;

  for (std::size_t slot = 0; slot < values.size(); ++slot)
    if (values[slot] != 0.0)
      out.add_coupling(offset + embedding.couplers[slot].first,
                       offset + embedding.couplers[slot].second, values[slot]);
  return scale;
}

}  // namespace

Embedding find_clique_embedding(std::size_t num_logical, const ChimeraGraph& graph) {
  require(num_logical >= 1, "find_clique_embedding: need at least one variable");
  const std::size_t shore = graph.shore_size();
  const std::size_t groups = (num_logical + shore - 1) / shore;
  if (groups > graph.grid_size())
    throw CapacityError(
        "find_clique_embedding: problem needs " + std::to_string(groups) +
        " cell rows but the chip is C" + std::to_string(graph.grid_size()));

  const std::size_t slack = graph.grid_size() - groups;
  Embedding embedding;
  for (std::size_t row0 = 0; row0 <= slack; ++row0) {
    for (std::size_t col0 = 0; col0 <= slack; ++col0) {
      if (try_build(num_logical, graph, row0, col0, embedding)) {
        std::vector<Site> sites(graph.num_qubits());
        compile(embedding, graph, sites);
        return embedding;
      }
    }
  }

  throw CapacityError(
      "find_clique_embedding: no defect-free placement exists for " +
      std::to_string(num_logical) + " logical qubits");
}

std::vector<Embedding> find_parallel_embeddings(std::size_t num_logical,
                                                std::size_t count,
                                                const ChimeraGraph& graph) {
  require(count >= 1, "find_parallel_embeddings: need at least one copy");
  const std::size_t shore = graph.shore_size();
  const std::size_t groups = (num_logical + shore - 1) / shore;
  if (groups > graph.grid_size())
    throw CapacityError(
        "find_parallel_embeddings: a single instance does not fit the chip");

  // Tile the grid with groups x groups cell blocks, row-major; every slot
  // compiles against one shared site table.
  std::vector<Embedding> out;
  std::vector<Site> sites(graph.num_qubits());
  const std::size_t blocks_per_side = graph.grid_size() / groups;
  for (std::size_t bi = 0; bi < blocks_per_side && out.size() < count; ++bi) {
    for (std::size_t bj = 0; bj < blocks_per_side && out.size() < count; ++bj) {
      Embedding embedding;
      if (try_build(num_logical, graph, bi * groups, bj * groups, embedding)) {
        compile(embedding, graph, sites);
        out.push_back(std::move(embedding));
      }
    }
  }
  if (out.empty())
    throw CapacityError(
        "find_parallel_embeddings: no defect-free placement exists");
  return out;
}

EmbeddedProblem embed(const qubo::IsingModel& logical, const Embedding& embedding,
                      const EmbedParams& params) {
  EmbeddedProblem out;
  out.physical = qubo::IsingModel(embedding.compact_to_qubit.size());
  out.logical_scale = fill(logical, embedding, params, 0, out.physical);
  out.compact_to_qubit = embedding.compact_to_qubit;
  out.chains = embedding.compact_chains;
  return out;
}

qubo::SpinVec unembed(std::span<const std::int8_t> physical_spins,
                      const std::vector<std::vector<std::uint32_t>>& chains,
                      Rng& rng, std::size_t* broken_chains) {
  QUAMAX_PROF_SCOPE("chimera.unembed");
  std::size_t num_physical = 0;
  for (const auto& chain : chains) num_physical += chain.size();
  require(physical_spins.size() == num_physical,
          "unembed: configuration size mismatch");
  qubo::SpinVec logical(chains.size());
  std::size_t broken = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    int vote = 0;
    for (std::uint32_t q : chains[i]) vote += physical_spins[q];
    const bool unanimous = static_cast<std::size_t>(std::abs(vote)) == chains[i].size();
    if (!unanimous) ++broken;
    if (vote > 0)
      logical[i] = 1;
    else if (vote < 0)
      logical[i] = -1;
    else
      logical[i] = rng.coin() ? 1 : -1;  // tie: randomized (paper §3.3)
  }
  if (broken_chains != nullptr) *broken_chains = broken;
  return logical;
}

QubitFootprint qubit_footprint(std::size_t nt, int bits_per_symbol,
                               const ChimeraGraph& graph) {
  const std::size_t shore = graph.shore_size();
  QubitFootprint fp;
  fp.logical = nt * static_cast<std::size_t>(bits_per_symbol);
  const std::size_t chain = (fp.logical + shore - 1) / shore + 1;
  fp.physical = fp.logical * chain;
  // Feasible when the triangle fits the grid and the chip has the qubits.
  const std::size_t groups = (fp.logical + shore - 1) / shore;
  fp.feasible = groups <= graph.grid_size() &&
                fp.physical <= graph.num_working_qubits();
  return fp;
}

double parallelization_factor(std::size_t num_logical, const ChimeraGraph& graph) {
  require(num_logical >= 1, "parallelization_factor: empty problem");
  const std::size_t shore = graph.shore_size();
  const std::size_t chain = (num_logical + shore - 1) / shore + 1;
  const double used = static_cast<double>(num_logical * chain);
  return std::max(1.0, static_cast<double>(graph.num_qubits()) / used);
}

MergedWave merge_embedded(const std::vector<const qubo::IsingModel*>& problems,
                          const std::vector<Embedding>& slots,
                          const EmbedParams& params) {
  require(problems.size() <= slots.size(),
          "merge_embedded: more problems than placements");
  MergedWave wave;
  std::size_t total_spins = 0;
  for (std::size_t s = 0; s < problems.size(); ++s) {
    wave.offsets.push_back(total_spins);
    total_spins += slots[s].compact_to_qubit.size();
  }
  wave.physical = qubo::IsingModel(total_spins);
  for (std::size_t s = 0; s < problems.size(); ++s) {
    const std::size_t off = wave.offsets[s];
    fill(*problems[s], slots[s], params, off, wave.physical);
    for (const auto& chain : slots[s].compact_chains) {
      std::vector<std::uint32_t> shifted;
      shifted.reserve(chain.size());
      for (const std::uint32_t q : chain)
        shifted.push_back(static_cast<std::uint32_t>(off + q));
      wave.chains.push_back(std::move(shifted));
    }
  }
  return wave;
}

}  // namespace quamax::chimera
