// Wall-clock profiling scopes for the real compute paths.
//
// Everything virtual-clock is already accounted for by tracing; the
// profiler answers the other question — where does WALL time go when the
// decode compute actually runs (embedding compile, batched sweep kernel,
// readout/unembed, field delta-recompile)?  Usage:
//
//   void hot_path() {
//     QUAMAX_PROF_SCOPE("anneal.batch_kernel");
//     ...
//   }
//
// Design constraints, in priority order:
//   * Zero interference with results: the profiler reads std::steady_clock
//     and thread-local counters only — no RNG, no allocation on the hot
//     path after warm-up, no effect on any computed value.  Reports stay
//     bit-identical with profiling on or off (CI gates this via the trace
//     zero-drift diff; --prof output goes to stderr).
//   * Near-zero cost when off: a disabled scope is one relaxed atomic load
//     and a branch; QUAMAX_PROF_DISABLED compiles scopes out entirely.
//   * No hot-path locks: samples accumulate in thread_local tables (one per
//     ThreadPool lane, since lanes are threads); the global mutex is taken
//     only at stage registration (once per call site), thread retirement,
//     and table() aggregation.
//
// table() aggregates live + retired lane tables; call it when workers are
// quiescent (after a run, between phases) for a complete picture.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace quamax::obs {

class Profiler {
 public:
  /// Process-wide instance (intentionally leaked: thread_local lane tables
  /// flush into it from thread destructors, so it must outlive every
  /// thread regardless of static-destruction order).
  static Profiler& instance();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Interns `name` and returns its stage id.  Deduplicated by name, so
  /// the same stage instrumented at two call sites aggregates together.
  /// Called once per call site via the macro's static-local initializer.
  int register_stage(const std::string& name);

  /// Folds one timed interval into the calling thread's lane table.
  void record(int stage, std::uint64_t elapsed_ns);

  struct StageTotals {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    int lanes = 0;  ///< number of threads (pool lanes) that hit the stage
  };

  /// Aggregated per-stage totals across all lanes, sorted by total_ns
  /// descending (ties broken by name for a deterministic dump order).
  std::vector<StageTotals> table();

  /// Renders table() as an aligned text table; `top_n` = 0 prints all
  /// stages.  Callers print to stderr: serving binaries byte-diff stdout.
  void dump(std::ostream& out, std::size_t top_n = 0);

  /// Renders table() as a JSON array of stage objects, each also carrying
  /// its `quamax_prof_<stage>_{calls,total_ns}` counter spellings (stage
  /// names sanitized to [a-z0-9_]) — the machine-readable `--prof-json`
  /// output that tools/bench_to_json.py carries into bench records.
  void dump_json(std::ostream& out);

  /// The sanitized counter prefix dump_json uses for `name`, e.g.
  /// "anneal.batch_sweep" -> "quamax_prof_anneal_batch_sweep".
  static std::string counter_prefix(const std::string& name);

  /// Clears all samples (live lane tables and retired totals); registered
  /// stage names survive so stage ids stay valid.
  void reset();

 private:
  friend struct LaneTable;
  Profiler() = default;

  std::atomic<bool> enabled_{false};
};

/// RAII timer used by QUAMAX_PROF_SCOPE.  When the profiler is disabled at
/// construction, start_ stays 0 and the destructor records nothing.
class ProfScope {
 public:
  explicit ProfScope(int stage) : stage_(stage) {
    if (Profiler::instance().enabled()) start_ = now_ns();
  }
  ~ProfScope() {
    if (start_ != 0) Profiler::instance().record(stage_, now_ns() - start_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  int stage_;
  std::uint64_t start_ = 0;
};

}  // namespace quamax::obs

#define QUAMAX_PROF_CONCAT2(a, b) a##b
#define QUAMAX_PROF_CONCAT(a, b) QUAMAX_PROF_CONCAT2(a, b)

#if defined(QUAMAX_PROF_DISABLED)
#define QUAMAX_PROF_SCOPE(name) ((void)0)
#else
/// Times the enclosing scope under `name` (a string literal).  The stage id
/// is interned once per call site via a function-local static.
#define QUAMAX_PROF_SCOPE(name)                                         \
  static const int QUAMAX_PROF_CONCAT(quamax_prof_stage_, __LINE__) =   \
      ::quamax::obs::Profiler::instance().register_stage(name);         \
  ::quamax::obs::ProfScope QUAMAX_PROF_CONCAT(quamax_prof_scope_,       \
                                              __LINE__)(               \
      QUAMAX_PROF_CONCAT(quamax_prof_stage_, __LINE__))
#endif
