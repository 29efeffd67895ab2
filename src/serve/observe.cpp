#include "quamax/serve/observe.hpp"

#include <cstdio>
#include <iostream>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/obs/metrics.hpp"
#include "quamax/obs/profile.hpp"
#include "quamax/sim/knobs.hpp"

namespace quamax::serve {

using sim::Knob;

RunObserver::RunObserver(int argc, char** argv, std::string default_slo)
    : trace_path_(sim::knob<std::string>(Knob::kTrace, argc, argv)),
      metrics_path_(sim::knob<std::string>(Knob::kMetrics, argc, argv)),
      window_us_(sim::knob<double>(Knob::kMetricsWindow, argc, argv)),
      slo_(sim::knob<std::string>(Knob::kSlo, argc, argv)),
      prof_(sim::knob<bool>(Knob::kProf, argc, argv)),
      prof_json_(sim::knob<std::string>(Knob::kProfJson, argc, argv)) {
  if (slo_.empty()) slo_ = std::move(default_slo);
  if (profiling()) obs::Profiler::instance().set_enabled(true);
}

bool RunObserver::enabled() const {
  return !trace_path_.empty() || !metrics_path_.empty() || !slo_.empty();
}

void RunObserver::attach(ServiceConfig& cfg) {
  if (!enabled()) return;
  log_.clear();
  cfg.trace = &log_;
  cfg_ = cfg;
  attached_ = true;
  view_.reset();
}

const WindowedView& RunObserver::view() {
  require(attached_, "RunObserver::view: no observed run");
  if (view_) return *view_;

  std::vector<obs::SloSpec> specs;
  if (!slo_.empty()) {
    std::string error;
    specs = obs::parse_slo_specs(slo_, &error);
    if (specs.empty()) throw InvalidArgument("--slo: " + error);
  }

  const std::size_t devices =
      cfg_.device_specs.empty() ? cfg_.num_devices : cfg_.device_specs.size();
  WindowedView& view = view_.emplace(WindowedView{
      obs::WindowedCollector(log_, devices, window_us_), {}});

  if (!specs.empty()) {
    const obs::SloMonitor monitor(std::move(specs));
    view.slos = monitor.evaluate(view.collector);
    obs::SloMonitor::annotate(view.slos, log_);
  }
  return view;
}

namespace {

/// One file write with its stderr notice; false when it failed.
bool report(bool ok, const char* what, const std::string& path) {
  if (ok)
    std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  else
    std::fprintf(stderr, "%s: could not write %s\n", what, path.c_str());
  return ok;
}

}  // namespace

int RunObserver::finish() {
  bool ok = true;
  if (attached_) {
    if (!metrics_path_.empty() || !slo_.empty()) {
      const WindowedView& windowed = view();
      if (!metrics_path_.empty())
        ok &= report(obs::write_metrics_file(windowed.collector, windowed.slos,
                                             metrics_path_),
                     "metrics", metrics_path_);
    }
    if (!trace_path_.empty())
      ok &= report(obs::write_chrome_trace_file(log_, trace_path_), "trace",
                   trace_path_);
  }
  obs::Profiler& profiler = obs::Profiler::instance();
  if (prof_) profiler.dump(std::cerr, 5);
  if (!prof_json_.empty())
    ok &= report(profiler.dump_json_file(prof_json_), "profile json", prof_json_);
  return ok ? 0 : 1;
}

}  // namespace quamax::serve
