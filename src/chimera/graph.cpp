#include "quamax/chimera/graph.hpp"

#include <algorithm>

namespace quamax::chimera {

ChimeraGraph::ChimeraGraph(std::size_t m, std::size_t shore)
    : m_(m),
      shore_(shore),
      working_(2 * shore * m * m, 1u),
      working_count_(2 * shore * m * m) {
  require(m >= 1 && m <= 64, "ChimeraGraph: grid size out of range");
  require(shore >= 1 && shore <= 16, "ChimeraGraph: shore size out of range");
}

ChimeraGraph ChimeraGraph::next_generation() { return ChimeraGraph(13, 12); }

ChimeraGraph make_chip(std::size_t m, std::size_t shore, std::size_t defects,
                       std::uint64_t seed, const std::vector<Qubit>& disabled) {
  require(defects == 0 || shore == 4,
          "make_chip: random defect masks are modeled for the shore-4 chip");
  ChimeraGraph chip = defects == 0 ? ChimeraGraph(m, shore)
                                   : ChimeraGraph::with_defects(m, defects, seed);
  for (const Qubit q : disabled) chip.disable_qubit(q);  // throws off-chip ids
  return chip;
}

ChimeraGraph ChimeraGraph::with_defects(std::size_t m, std::size_t defect_count,
                                        std::uint64_t seed) {
  ChimeraGraph g(m);
  require(defect_count < g.num_qubits(), "with_defects: too many defects");
  Rng rng(seed);
  std::size_t placed = 0;
  while (placed < defect_count) {
    const auto q = static_cast<Qubit>(rng.uniform_index(g.num_qubits()));
    if (g.working_[q]) {
      g.working_[q] = 0u;
      ++placed;
    }
  }
  g.working_count_ = g.num_qubits() - defect_count;
  return g;
}

void ChimeraGraph::disable_qubit(Qubit q) {
  require(q < num_qubits(), "disable_qubit: qubit id out of range");
  if (working_[q]) {
    working_[q] = 0u;
    --working_count_;
  }
}

Qubit ChimeraGraph::qubit_id(std::size_t row, std::size_t col, int side,
                             int k) const {
  require(row < m_ && col < m_ && side >= 0 && side <= 1 && k >= 0 &&
              static_cast<std::size_t>(k) < shore_,
          "ChimeraGraph::qubit_id: coordinates out of range");
  return static_cast<Qubit>(((row * m_ + col) * 2 * shore_) +
                            static_cast<std::size_t>(side) * shore_ +
                            static_cast<std::size_t>(k));
}

ChimeraGraph::Coords ChimeraGraph::coords(Qubit q) const {
  require(q < num_qubits(), "ChimeraGraph::coords: qubit id out of range");
  Coords c;
  const std::size_t cell = q / (2 * shore_);
  const std::size_t within = q % (2 * shore_);
  c.row = cell / m_;
  c.col = cell % m_;
  c.side = static_cast<int>(within / shore_);
  c.k = static_cast<int>(within % shore_);
  return c;
}

bool ChimeraGraph::ideal_edge(Qubit a, Qubit b) const {
  if (a == b || a >= num_qubits() || b >= num_qubits()) return false;
  const Coords ca = coords(a);
  const Coords cb = coords(b);
  // Intra-cell K_{shore,shore}: same cell, opposite sides.
  if (ca.row == cb.row && ca.col == cb.col) return ca.side != cb.side;
  // Inter-cell vertical: same column, adjacent rows, both vertical, same k.
  if (ca.side == 0 && cb.side == 0 && ca.col == cb.col && ca.k == cb.k) {
    const std::size_t dr = ca.row > cb.row ? ca.row - cb.row : cb.row - ca.row;
    return dr == 1;
  }
  // Inter-cell horizontal: same row, adjacent columns, both horizontal, same k.
  if (ca.side == 1 && cb.side == 1 && ca.row == cb.row && ca.k == cb.k) {
    const std::size_t dc = ca.col > cb.col ? ca.col - cb.col : cb.col - ca.col;
    return dc == 1;
  }
  return false;
}

bool ChimeraGraph::has_coupler(Qubit a, Qubit b) const {
  return ideal_edge(a, b) && working_[a] && working_[b];
}

std::vector<Qubit> ChimeraGraph::neighbors(Qubit q) const {
  require(q < num_qubits(), "ChimeraGraph::neighbors: qubit id out of range");
  std::vector<Qubit> out;
  if (!working_[q]) return out;
  const Coords c = coords(q);
  // Intra-cell partners (opposite side).
  for (int k = 0; k < static_cast<int>(shore_); ++k) {
    const Qubit other = qubit_id(c.row, c.col, 1 - c.side, k);
    if (working_[other]) out.push_back(other);
  }
  // Inter-cell partner(s).
  if (c.side == 0) {
    if (c.row > 0) {
      const Qubit up = qubit_id(c.row - 1, c.col, 0, c.k);
      if (working_[up]) out.push_back(up);
    }
    if (c.row + 1 < m_) {
      const Qubit down = qubit_id(c.row + 1, c.col, 0, c.k);
      if (working_[down]) out.push_back(down);
    }
  } else {
    if (c.col > 0) {
      const Qubit left = qubit_id(c.row, c.col - 1, 1, c.k);
      if (working_[left]) out.push_back(left);
    }
    if (c.col + 1 < m_) {
      const Qubit right = qubit_id(c.row, c.col + 1, 1, c.k);
      if (working_[right]) out.push_back(right);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ChimeraGraph::num_couplers() const {
  std::size_t twice = 0;
  for (Qubit q = 0; q < num_qubits(); ++q)
    if (working_[q]) twice += neighbors(q).size();
  return twice / 2;
}

}  // namespace quamax::chimera
