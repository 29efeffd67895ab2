// Chimera hardware graph (paper §3.3, Fig. 3(a)).
//
// A Chimera C_M chip is an M x M grid of unit cells; each cell is a K_{4,4}
// bipartite block of 8 qubits.  The four "vertical" qubits of a cell couple
// to the same-index vertical qubits of the cells above and below (same
// column); the four "horizontal" qubits couple left and right along the row.
// The D-Wave 2000Q used in the paper is a C16: 2,048 fabricated qubits
// (2,031 working after manufacturing defects) and 6,016 ideal couplers.
//
// Qubit id layout: id = cell(row, col) * 8 + side * 4 + k, with side 0 =
// vertical, side 1 = horizontal, k in 0..3.
#pragma once

#include <cstdint>
#include <vector>

#include "quamax/common/error.hpp"
#include "quamax/common/rng.hpp"

namespace quamax::chimera {

using Qubit = std::uint32_t;

class ChimeraGraph {
 public:
  /// Ideal (defect-free) C_M graph with cells of 2*shore qubits (K_{s,s}
  /// intra-cell).  The paper's 2000Q chip is C16 with shore 4.
  explicit ChimeraGraph(std::size_t m = 16, std::size_t shore = 4);

  /// The next-generation chip the paper's §8 anticipates ([21], "Pegasus"):
  /// ~2x the qubits, ~2x the connectivity degree, and clique chains of only
  /// ceil(N/12)+1 qubits — modeled here as a 13x13 grid of shore-12 cells
  /// (4,056 qubits, intra-cell degree 12).
  static ChimeraGraph next_generation();

  /// C_M graph with `defect_count` randomly disabled qubits (deterministic
  /// in `seed`), modeling fabrication faults (2000Q: 2048 - 2031 = 17).
  static ChimeraGraph with_defects(std::size_t m, std::size_t defect_count,
                                   std::uint64_t seed);

  std::size_t grid_size() const noexcept { return m_; }
  std::size_t shore_size() const noexcept { return shore_; }
  std::size_t num_qubits() const noexcept { return 2 * shore_ * m_ * m_; }
  std::size_t num_working_qubits() const noexcept { return working_count_; }
  std::size_t num_couplers() const;  ///< couplers between working qubits

  bool is_working(Qubit q) const { return working_.at(q); }

  /// Marks a specific qubit as defective (idempotent).  Lets callers model
  /// a known fault map rather than a random one.
  void disable_qubit(Qubit q);

  Qubit qubit_id(std::size_t row, std::size_t col, int side, int k) const;

  /// True when (a, b) is an edge of the ideal topology and both ends work.
  bool has_coupler(Qubit a, Qubit b) const;

  /// Neighbors of a working qubit in the working subgraph.
  std::vector<Qubit> neighbors(Qubit q) const;

  struct Coords {
    std::size_t row, col;
    int side;  ///< 0 = vertical, 1 = horizontal
    int k;     ///< 0..shore-1 within the side
  };
  Coords coords(Qubit q) const;

  /// True when `other` is the same chip: same grid, shore, and working-qubit
  /// mask.  Embeddings compiled for one are valid for the other — the
  /// compatibility requirement for sharing an EmbeddingCache.
  bool same_topology(const ChimeraGraph& other) const noexcept {
    return m_ == other.m_ && shore_ == other.shore_ && working_ == other.working_;
  }

 private:
  bool ideal_edge(Qubit a, Qubit b) const;

  std::size_t m_;
  std::size_t shore_;
  std::vector<std::uint8_t> working_;
  std::size_t working_count_;
};

/// The one chip builder behind every annealer and device: the C_m grid of
/// shore-`shore` cells, with `defects` random disabled qubits (deterministic
/// in `seed`; modeled for the shore-4 chip only) and then the explicit
/// `disabled` fault list.  Throws InvalidArgument on random defects at any
/// other shore or on a fault id outside the chip.
ChimeraGraph make_chip(std::size_t m, std::size_t shore, std::size_t defects,
                       std::uint64_t seed, const std::vector<Qubit>& disabled);

}  // namespace quamax::chimera
