// Warm-start compile counters for coherent subframe chains (paper §8's
// reverse-annealing outlook).
//
// Within a coherence block the channel H is constant, so the Ising
// couplings g_bc = 2 Re(A^H A)_bc carry over and only the linear fields
// and offset depend on the fresh received vector y.  serve::LoadGenerator
// keeps each chain's block reduction and refreshes just those terms
// (core::update_ml_fields, bit-equal to a full core::reduce_ml); the
// counters below say how often that delta applied.  The other warm-start
// lever, reverse annealing from the predecessor's decode, lives in
// sched::Scheduler's per-sequence seed slots.
#pragma once

#include <cstddef>

namespace quamax::anneal {

/// Compile-path counters: how often the delta shortcut applied.
struct WarmStartStats {
  std::size_t full_compiles = 0;   ///< fresh core::reduce_ml runs
  std::size_t delta_compiles = 0;  ///< field-only rebuilds over a cached reduction
};

}  // namespace quamax::anneal
