// Metrics exporters: the windowed time-series dump, as JSON or CSV.
//
// write_metrics_file is the `--metrics FILE` / QUAMAX_METRICS backend the
// serving binaries share: it writes the WindowedCollector's per-window
// series, per-device duty-cycle/energy accounting, totals, and the SLO
// breach summary.  A `.csv` suffix selects the flat CSV time series (one
// row per window — plots straight into any spreadsheet); anything else gets
// the structured JSON ("quamax-metrics-v1" schema, what
// tools/metrics_check.py validates).
//
// Exporters never touch stdout (serving binaries byte-diff their stdout in
// CI) and format doubles with %.17g so every number round-trips exactly —
// the offline validator re-adds window counts against digest totals and
// only exact values make that an equality check.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "quamax/obs/slo.hpp"
#include "quamax/obs/window.hpp"

namespace quamax::obs {

/// Structured JSON dump (schema "quamax-metrics-v1"): config, totals,
/// windows[], devices[], slos[] (with per-alert detail).
void write_metrics_json(const WindowedCollector& collector,
                        const std::vector<SloReport>& slos, std::ostream& out);

/// Flat CSV time series: header row + one row per window.  Device and SLO
/// detail are JSON-only; CSV is the quick-plot format.
void write_metrics_csv(const WindowedCollector& collector, std::ostream& out);

/// The shared `--metrics FILE` backend: writes JSON (or CSV when `path`
/// ends in ".csv") to `path`.  Returns false if the file cannot be written.
bool write_metrics_file(const WindowedCollector& collector,
                        const std::vector<SloReport>& slos,
                        const std::string& path);

}  // namespace quamax::obs
