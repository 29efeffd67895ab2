// The modeled QA device pool behind the scheduler (paper §2/§7; Kasi et
// al.'s multi-annealer data center, arXiv:2109.01465).
//
// Real annealing data centers are not pools of interchangeable
// processors.  Every fabricated chip carries its own defect map (the 2000Q
// of the paper lost 17 of 2,048 qubits), and a shape that tiles one chip's
// working subgraph may not embed at all on a heavily faulted neighbor.
// DeviceSet models exactly that: each device IS a chimera::EmbeddingCache
// whose graph is the base grid/shore plus the device's OWN DeviceSpec
// defect map (chimera::make_chip: random draw and/or explicit fault list).
// Devices with bit-identical topologies share one cache (placements are a
// pure function of the topology); any topology-distinct device gets its
// own.  An annealer for device d is built on cache(d) —
// anneal::ChimeraAnnealer(config, cache(d)) — so the cache is the one
// description of the chip, and a defect growth reaches every later anneal.
//
// capacity(d, shape) is the scheduler's routing oracle: 0 means the shape
// does not embed on device d, so no wave of that shape may land there
// (shape-aware wave routing).  All lookups are deterministic functions of
// the configuration, keeping every schedule bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/chimera/embedding_cache.hpp"
#include "quamax/chimera/graph.hpp"

namespace quamax::sched {

/// One modeled device's deviation from the base chip: `defects` random
/// disabled qubits (deterministic in `defect_seed`) plus an explicit
/// `disabled` fault list.  A default DeviceSpec inherits the base
/// configuration's chip unchanged.
struct DeviceSpec {
  std::size_t defects = 0;        ///< random disabled qubits (0 = none)
  std::uint64_t defect_seed = 7;  ///< seed of the random defect draw
  std::vector<chimera::Qubit> disabled;  ///< explicit fault map

  /// True when the spec leaves the base chip untouched.
  bool pristine() const noexcept { return defects == 0 && disabled.empty(); }
};

/// `count` identical devices, each carrying the base config's own chip
/// fields (defect count, seed, and fault list included) — the PR-3
/// interchangeable-device model as a DeviceSpec list.
std::vector<DeviceSpec> uniform_devices(const anneal::AnnealerConfig& base,
                                        std::size_t count);

/// A structured fault map for experiments: every qubit in cell rows
/// stride-1, 2*stride-1, ... of `chip`, so no `stride` consecutive working
/// cell rows remain.  A triangle clique embedding needs ceil(N/shore)
/// consecutive cell rows, so any shape with ceil(N/shore) >= stride cannot
/// place anywhere (on the shore-4 chip, stride 4 kills shape 16) while
/// smaller shapes keep most of their parallel tiling (shape 8 keeps half).
/// The single source of the invariant bench_serve_load's policy gate and
/// tests/sched_test.cpp's routing assertions both rely on.
std::vector<chimera::Qubit> dead_row_fault_map(const chimera::ChimeraGraph& chip,
                                               std::size_t stride);

class DeviceSet {
 public:
  /// Builds the per-device chips and caches: `base` supplies the chip
  /// grid/shore (its defect fields are not consulted), and each spec
  /// applies its defect map on top.  Requires >= 1 spec; a spec with
  /// random defects off the shore-4 chip or a fault id outside the chip
  /// throws InvalidArgument.
  DeviceSet(const anneal::AnnealerConfig& base,
            const std::vector<DeviceSpec>& specs);

  std::size_t size() const noexcept { return caches_.size(); }

  /// Device `device`'s chip (the base chip with the spec's defect map).
  const chimera::ChimeraGraph& graph(std::size_t device) const {
    return caches_.at(device)->graph();
  }

  /// Device `device`'s embedding cache — the chip an annealer for the
  /// device is built on.  Topology-identical devices share one cache
  /// object, so a uniform pool compiles each shape exactly once.
  const std::shared_ptr<chimera::EmbeddingCache>& cache(std::size_t device) const {
    return caches_.at(device);
  }

  /// Jobs of `shape` one wave on device `device` can carry; 0 when the
  /// shape does not embed there (the routing predicate).
  std::size_t capacity(std::size_t device, std::size_t shape) {
    return caches_.at(device)->try_capacity(shape);
  }

  /// True when `shape` embeds on device `device`.
  bool fits(std::size_t device, std::size_t shape) {
    return capacity(device, shape) > 0;
  }

  /// Largest capacity for `shape` across the pool; 0 means NO device can
  /// serve the shape (such jobs are rejected at submission).
  std::size_t max_capacity(std::size_t shape);

  /// Mid-run defect growth (fault::DefectGrowth): disables `qubits` on
  /// device `device`'s chip and invalidates its embedding cache — positive
  /// and negative entries both, since stale placements may route through
  /// the dead qubits and stale infeasibility verdicts bound routing.  If
  /// the cache was topology-shared with another device, that device keeps
  /// the old cache untouched and `device` gets a fresh one.  Caller's
  /// responsibility: no decode may be in flight on `device` (the scheduler
  /// flushes executed waves first).
  void grow_defects(std::size_t device,
                    const std::vector<chimera::Qubit>& qubits);

 private:
  std::vector<std::shared_ptr<chimera::EmbeddingCache>> caches_;
};

}  // namespace quamax::sched
