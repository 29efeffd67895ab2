// Declarative SLO specs with multi-window burn-rate evaluation.
//
// Follows the Google-SRE multi-window, multi-burn-rate alerting shape: a
// spec monitors one windowed signal (miss rate or latency p99) against a
// threshold, and ALERTS at window w only when both the trailing LONG
// aggregate (default 4 windows) and the trailing SHORT aggregate (default
// 1 window) exceed the threshold — the long window proves the budget is
// really burning, the short window proves it is STILL burning, so alerts
// both resist blips and clear promptly on recovery.  Early windows clamp
// the trailing depth to the windows that exist, so a storm in window 0 can
// still alert.
//
// Determinism: evaluation is a pure fold over a WindowedCollector — no RNG,
// no clocks, no state outside the series — so the alert list is exactly as
// reproducible as the serving digest.  serve::RunObserver appends the alerts
// to the run's TraceLog (rendered by write_chrome_trace as a dedicated "slo
// alerts" track) and the --metrics file summarizes them.
//
// Spec text grammar (comma-separated list, whitespace ignored):
//   miss_rate<=0.05          miss rate over trailing windows, defaults @4/1
//   p99<=2500                latency p99 in microseconds
//   miss_rate<=0.1@6/2       explicit long/short trailing window counts
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "quamax/obs/trace.hpp"
#include "quamax/obs/window.hpp"

namespace quamax::obs {

/// One declarative objective over the windowed series.
struct SloSpec {
  enum class Kind {
    kMissRate,  ///< trailing sum(missed) / sum(resolved); 0 when none resolved
    kP99,       ///< p99 of the merged trailing latency sketches, microseconds
  };
  Kind kind = Kind::kMissRate;
  double threshold = 0.0;
  std::size_t long_windows = 4;   ///< trailing depth of the long aggregate
  std::size_t short_windows = 1;  ///< trailing depth of the short aggregate
  std::string name;               ///< display name, e.g. "miss_rate<=0.05"
};

/// Parses the comma-separated spec grammar (see header).  On failure
/// returns an empty vector and, when `error` is non-null, a message naming
/// the offending clause.
std::vector<SloSpec> parse_slo_specs(const std::string& text,
                                     std::string* error = nullptr);

/// One spec's evaluation outcome: every breaching window as an AlertEvent
/// plus the roll-up the breach summary prints.
struct SloReport {
  SloSpec spec;
  std::vector<AlertEvent> alerts;  ///< one per breaching window, in order
  std::size_t breached_windows = 0;
  double worst_burn = 0.0;  ///< max short-window value / threshold
};

/// Burn-rate evaluation of `specs` over `collector.windows()`.  Reports
/// come back in spec order; alerts within a report in window order.
std::vector<SloReport> evaluate_slos(const std::vector<SloSpec>& specs,
                                     const WindowedCollector& collector);

}  // namespace quamax::obs
