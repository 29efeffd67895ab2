#include "quamax/sched/device_set.hpp"

#include <algorithm>

#include "quamax/common/error.hpp"

namespace quamax::sched {

std::vector<DeviceSpec> uniform_devices(const anneal::AnnealerConfig& base,
                                        std::size_t count) {
  require(count >= 1, "uniform_devices: need at least one device");
  std::vector<DeviceSpec> specs(count);
  // Device 0 carries the base config's own chip verbatim so a 1-device
  // DeviceSet reproduces a plain ChimeraAnnealer's graph exactly.
  for (DeviceSpec& spec : specs) {
    spec.defects = base.chip_defects;
    spec.defect_seed = base.chip_seed;
    spec.disabled = base.chip_disabled;
  }
  return specs;
}

std::vector<chimera::Qubit> dead_row_fault_map(const chimera::ChimeraGraph& chip,
                                               std::size_t stride) {
  require(stride >= 2, "dead_row_fault_map: stride must be >= 2");
  std::vector<chimera::Qubit> dead;
  for (std::size_t row = stride - 1; row < chip.grid_size(); row += stride)
    for (std::size_t col = 0; col < chip.grid_size(); ++col)
      for (int side = 0; side < 2; ++side)
        for (int k = 0; k < static_cast<int>(chip.shore_size()); ++k)
          dead.push_back(chip.qubit_id(row, col, side, k));
  return dead;
}

DeviceSet::DeviceSet(const anneal::AnnealerConfig& base,
                     const std::vector<DeviceSpec>& specs) {
  require(!specs.empty(), "DeviceSet: need at least one device");
  caches_.reserve(specs.size());
  for (std::size_t d = 0; d < specs.size(); ++d) {
    chimera::ChimeraGraph graph =
        chimera::make_chip(base.chip_size, base.chip_shore, specs[d].defects,
                           specs[d].defect_seed, specs[d].disabled);
    // Device-affine caches with topology dedup: an identical chip reuses an
    // earlier device's cache (placements depend only on the topology), so a
    // uniform pool compiles each shape once.
    std::shared_ptr<chimera::EmbeddingCache> cache;
    for (std::size_t e = 0; e < d; ++e) {
      if (caches_[e]->graph().same_topology(graph)) {
        cache = caches_[e];
        break;
      }
    }
    if (cache == nullptr)
      cache = std::make_shared<chimera::EmbeddingCache>(std::move(graph));
    caches_.push_back(std::move(cache));
  }
}

void DeviceSet::grow_defects(std::size_t device,
                             const std::vector<chimera::Qubit>& qubits) {
  require(device < size(), "grow_defects: device out of range");
  require(!qubits.empty(), "grow_defects: no qubits to disable");
  chimera::ChimeraGraph graph = caches_.at(device)->graph();
  for (const chimera::Qubit q : qubits) {
    require(q < graph.num_qubits(),
            "grow_defects: disabled qubit id outside the chip");
    graph.disable_qubit(q);
  }
  // Break topology sharing before invalidating: other devices still have
  // the OLD chip, so they must keep the old cache (and its placements).
  bool shared = false;
  for (std::size_t e = 0; e < size(); ++e) {
    if (e != device && caches_[e] == caches_[device]) {
      shared = true;
      break;
    }
  }
  if (shared)
    caches_[device] = std::make_shared<chimera::EmbeddingCache>(std::move(graph));
  else
    caches_[device]->invalidate(std::move(graph));
}

std::size_t DeviceSet::max_capacity(std::size_t shape) {
  std::size_t best = 0;
  for (std::size_t d = 0; d < size(); ++d)
    best = std::max(best, capacity(d, shape));
  return best;
}

}  // namespace quamax::sched
