// Metrics exporter: the windowed time-series dump as JSON.
//
// write_metrics_json is the `--metrics FILE` / QUAMAX_METRICS backend the
// serving binaries share (through serve::RunObserver): it writes the
// WindowedCollector's per-window series, per-device duty-cycle/energy
// accounting, totals, and the SLO breach summary as the
// "quamax-metrics-v1" schema tools/metrics_check.py validates.
//
// The exporter never touches stdout (serving binaries byte-diff their
// stdout in CI) and formats doubles with %.17g so every number round-trips
// exactly — the offline validator re-adds window counts against digest
// totals and only exact values make that an equality check.
#pragma once

#include <iosfwd>
#include <vector>

#include "quamax/obs/slo.hpp"
#include "quamax/obs/window.hpp"

namespace quamax::obs {

/// Structured JSON dump (schema "quamax-metrics-v1"): config, totals,
/// windows[], devices[], slos[] (with per-alert detail).
void write_metrics_json(const WindowedCollector& collector,
                        const std::vector<SloReport>& slos, std::ostream& out);

}  // namespace quamax::obs
