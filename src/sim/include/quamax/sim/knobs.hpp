// The command-line / environment knob table shared by every bench and
// example binary.
//
// Each row is declared once (flag, environment variable, default, parse
// rule, doc line) and read through one generic lookup:
//
//   * the FIRST occurrence of the flag wins, spelled `--f V` or `--f=V`
//     (boolean rows: a bare `--f`, or `--f=V`);
//   * only when the flag is absent is the environment variable read, so a
//     malformed environment variable can never abort a run that passed a
//     valid flag, nor a binary that never reads that knob;
//   * otherwise the row's default applies.
//
// Errors throw quamax::InvalidArgument prefixed with the row's label,
// `--x / QUAMAX_X: ...`.  The sim layer only transports the queue-policy
// and fallback spellings: sched::parse_queue_policy and
// fault::parse_fallback_mode validate them, because sim sits below both.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "quamax/anneal/annealer.hpp"

namespace quamax::sim {

/// What a knob's parse rule produces.
using KnobValue =
    std::variant<bool, std::size_t, double, std::string, anneal::AcceptMode>;

/// One row of the knob table.
struct Knob {
  /// Row names, in table order.
  enum Id : std::size_t {
    kScale, kThreads, kReplicas, kAcceptMode, kDevices, kQueuePolicy,
    kDownlink, kTau, kCoherence, kFaultPlan, kMaxRetries, kFallback,
    kTrace, kProf, kProfJson, kMetrics, kMetricsWindow, kSlo, kJson, kCount
  };

  /// Parses and validates one spelling; `label` prefixes every error.
  using Rule = KnobValue (*)(const std::string& text, const std::string& label);

  Id id;
  std::string_view flag;  ///< "--threads"; empty for an env-only row
  std::string_view env;   ///< "QUAMAX_THREADS"; empty for a flag-only row
  KnobValue fallback;     ///< the default; its type is the rule's result type
  Rule rule;
  std::string_view doc;

  /// False for boolean rows, whose bare `--f` means true.
  bool takes_value() const;
  /// "--x / QUAMAX_X", "--x" or "QUAMAX_X": the prefix of every error text.
  std::string label() const;
};

/// Every row, indexed by Knob::Id.
std::span<const Knob> knob_table();

/// The row's value from argv or, only when the flag is absent, its
/// environment variable; nullopt when neither is given.  An empty
/// environment variable counts as unset for rows whose default is empty
/// (`QUAMAX_TRACE=` means tracing off).  Pass no argv for env-only reads
/// (binaries whose argv belongs to another parser).
std::optional<KnobValue> knob_lookup(Knob::Id id, int argc = 0,
                                     char** argv = nullptr);

/// Typed knob_lookup: nullopt means "not specified" — for binaries whose
/// own default differs from the row's (serving defaults to threshold32).
template <typename T>
std::optional<T> knob_if_set(Knob::Id id, int argc = 0, char** argv = nullptr) {
  std::optional<KnobValue> value = knob_lookup(id, argc, argv);
  if (!value) return std::nullopt;
  return std::get<T>(std::move(*value));
}

/// The row's value, or its default when neither flag nor environment
/// variable is given.
template <typename T>
T knob(Knob::Id id, int argc = 0, char** argv = nullptr) {
  if (std::optional<T> value = knob_if_set<T>(id, argc, argv)) return *value;
  return std::get<T>(knob_table()[id].fallback);
}

/// The sweep-kernel settings nearly every binary reads.
struct KernelKnobs {
  std::size_t threads;              ///< --threads: batch-runtime lanes
  std::size_t replicas;             ///< --replicas: replicas per kernel call
  anneal::AcceptMode accept_mode;   ///< --accept-mode
};
KernelKnobs kernel_knobs(int argc, char** argv);

/// scale-adjusted count: max(1, round(base * QUAMAX_SCALE)).  QUAMAX_SCALE
/// is an env-only row (default 1.0) that the bench binaries apply to
/// instance and anneal counts, from smoke-test to paper scale.
std::size_t scaled(std::size_t base);

/// argv entries that are not part of any table row's flag (program name
/// excluded), in order.  Binaries with positional arguments parse these
/// instead of argv, so positional handling cannot drift from the table.
std::vector<std::string> positional_args(int argc, char** argv);

}  // namespace quamax::sim
