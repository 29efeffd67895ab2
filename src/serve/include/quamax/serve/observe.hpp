// Observed-run harness: the trace / metrics / SLO / profiler plumbing shared
// by every serving binary (bench_serve_load, bench_fault, bench_warmstart,
// examples/cran_service), once.
//
// A RunObserver reads the --trace, --metrics, --metrics-window, --slo,
// --prof and --prof-json knobs and derives everything from each finished
// run the binary hands it: the trace (trace_log, from the run's records and
// waves), the windowed series on the run's device pool, the SLO burn-rate
// alerts (appended to the log, so the Chrome trace grows its "slo
// alerts" track), and the exported files.  Nothing observes a run while it
// is served, so stdout stays byte-identical observed or not (the zero-drift
// rule); every notice goes to stderr.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "quamax/obs/slo.hpp"
#include "quamax/obs/trace.hpp"
#include "quamax/obs/window.hpp"
#include "quamax/serve/service.hpp"

namespace quamax::serve {

/// The virtual-clock trace of a finished run (Scheduler::finish), derived
/// from its records (by sequence number), its waves (in id order) and the
/// config that served it, in the event order obs/trace.hpp states.
obs::TraceLog trace_log(const sched::SchedConfig& config,
                        const std::vector<JobRecord>& records,
                        const std::vector<Wave>& waves);

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

  /// True when --prof or --prof-json switched the profiler on.
  bool profiling() const { return prof_ || !prof_json_.empty(); }
  /// The SLO spec text in force: --slo, else the default.
  const std::string& slo() const { return slo_; }

  /// Observes the finished run `report` served under `cfg` when a trace, a
  /// metrics file or an SLO was asked for (else does nothing): derives its
  /// log (trace_log) and keeps cfg's device count for windowing.  The files
  /// finish() writes hold the LAST observed run.
  void observe(const ServiceConfig& cfg, const ServiceReport& report);

  /// The last observed run windowed on its device pool, with the SLO spec
  /// evaluated and every alert appended to the log.  Computed at most
  /// once per observed run (windowing twice would append the alerts twice).
  /// Throws quamax::InvalidArgument on a malformed SLO spec or when no run
  /// was observed.
  const WindowedView& view();

  /// Writes the metrics JSON, then the Chrome trace, then the profiler
  /// table to stderr and the prof-json file, each with a stderr notice.
  /// Returns 0, or 1 when any write failed.
  int finish();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  double window_us_ = 0.0;
  std::string slo_;
  bool prof_ = false;
  std::string prof_json_;

  obs::TraceLog log_;
  /// Device count of the last observed run; 0 = no run observed.
  std::size_t devices_ = 0;
  std::optional<WindowedView> view_;
};

}  // namespace quamax::serve
