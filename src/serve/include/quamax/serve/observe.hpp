// Observed-run harness: the trace / metrics / SLO / profiler plumbing shared
// by every serving binary (bench_serve_load, bench_fault, bench_warmstart,
// examples/cran_service), once.
//
// A RunObserver reads the --trace, --metrics, --metrics-window, --slo,
// --prof and --prof-json knobs, attaches its one TraceLog to the service
// runs the binary chooses to observe, and derives everything else
// offline after the run: the windowed series on the service's device pool,
// the SLO burn-rate alerts (injected back into the log, so the Chrome trace
// grows its "slo alerts" track), and the exported files.  Observing never
// steers the virtual clock, so stdout stays byte-identical observed or not
// (the zero-drift rule); every notice goes to stderr.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "quamax/obs/slo.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/obs/window.hpp"
#include "quamax/serve/service.hpp"

namespace quamax::serve {

/// A finished windowed view of one traced run.
struct WindowedView {
  obs::WindowedCollector collector;
  std::vector<obs::SloReport> slos;
};

class RunObserver {
 public:
  /// Reads the observability knobs (sim::knob_table) and switches the
  /// profiler on for --prof / --prof-json.  `default_slo` stands in for an
  /// absent --slo.
  RunObserver(int argc, char** argv, std::string default_slo = "");
  // Attached configs point at the log: the observer stays where it is.
  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  /// True when --prof or --prof-json switched the profiler on.
  bool profiling() const { return prof_ || !prof_json_.empty(); }
  /// The SLO spec text in force: --slo, else the default.
  const std::string& slo() const { return slo_; }

  /// Starts a new observed run on `cfg` when a trace, a metrics file or an
  /// SLO was asked for (else does nothing): clears the log, attaches it as
  /// cfg.trace, and keeps cfg's device pool for windowing.  The files
  /// finish() writes hold the LAST attached run.
  void attach(ServiceConfig& cfg);

  /// The last attached run windowed on its device pool, with the SLO spec
  /// evaluated and every alert injected into the log.  Computed at most
  /// once per attached run (windowing twice would inject the alerts twice).
  /// Throws quamax::InvalidArgument on a malformed SLO spec or when no run
  /// was attached.
  const WindowedView& view();

  /// Writes the metrics file (JSON, or CSV for a ".csv" path), then the
  /// Chrome trace, then the profiler table to stderr and the prof-json
  /// file.  Returns 0, or 1 when any write failed.
  int finish();

 private:
  bool enabled() const;

  std::string trace_path_;
  std::string metrics_path_;
  double window_us_ = 0.0;
  std::string slo_;
  bool prof_ = false;
  std::string prof_json_;

  obs::TraceLog log_;
  ServiceConfig cfg_;  ///< device pool of the last attached run
  bool attached_ = false;
  std::optional<WindowedView> view_;
};

}  // namespace quamax::serve
