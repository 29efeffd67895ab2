// The five fixed serving workloads of bench_e2e.
//
// Each workload is an open-loop LoadConfig plus the ServiceConfig that
// serves it.  Rates and deadlines are on the virtual clock.  Job counts are
// fixed: QUAMAX_SCALE and the CLI knobs of the other binaries do not apply.
// README.md records why each workload was chosen and which layers it
// stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/service.hpp"

namespace quamax::bench {

struct Workload {
  std::string name;
  std::uint64_t default_seed = 0;
  std::size_t jobs = 0;  ///< jobs per rep
  serve::LoadConfig load;
  /// Everything except num_threads and seed, which the harness sets.
  serve::ServiceConfig service;
  /// Correctness ceiling on the served BER at any seed: far above what a
  /// working decoder reaches, far below what a broken kernel produces.
  double max_ber = 0.0;
};

/// Builds workload `name`.  Each rep is sized to take roughly a third of a
/// second on one lane, so a run holds many reps.  Throws InvalidArgument on
/// an unknown name.
Workload make_workload(const std::string& name);

}  // namespace quamax::bench
