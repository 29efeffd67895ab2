#include "quamax/serve/observe.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/obs/metrics.hpp"
#include "quamax/obs/profile.hpp"
#include "quamax/sim/knobs.hpp"

namespace quamax::serve {

// Event order and field rules: see obs/trace.hpp.
obs::TraceLog trace_log(const sched::SchedConfig& config,
                        const std::vector<JobRecord>& records,
                        const std::vector<Wave>& waves) {
  obs::TraceLog log;
  for (const JobRecord& r : records)
    log.submits.push_back({.job_id = r.job_id,
                           .user = static_cast<int>(r.user),
                           .direction = r.direction == Direction::kDownlink,
                           .submit_us = r.arrival_us,
                           .deadline_us = r.deadline_us});

  const double half_overhead = config.program_overhead_us / 2.0;
  const std::size_t warm_quota = sched::Scheduler::warm_quota(config);
  for (const Wave& w : waves)
    log.waves.push_back(
        {.wave_id = w.id, .device = static_cast<int>(w.device), .warm = w.warm,
         .num_anneals =
             static_cast<int>(w.warm ? warm_quota : config.num_anneals),
         .num_jobs = w.jobs.size(), .policy = sched::to_string(config.policy),
         .shape = std::to_string(w.shape), .dispatch_us = w.dispatch_us,
         .program_end_us = w.dispatch_us + half_overhead,
         .readout_start_us = w.completion_us - half_overhead,
         .completion_us = w.completion_us, .failed = w.failed,
         .fail_us = w.fail_us});
  for (const Wave& w : waves) {
    if (w.failed) continue;
    for (const std::size_t seq : w.jobs)
      log.dispatches.push_back({.job_id = records[seq].job_id,
                                .wave_id = w.id,
                                .device = static_cast<int>(w.device),
                                .dispatch_us = w.dispatch_us,
                                .completion_us = w.completion_us,
                                .num_bits = records[seq].num_bits});
  }

  // A job ended mid-flight when its record stops at its last wave's abort:
  // the failed-wave ladder ended it there rather than re-queueing it (the
  // ladder never drops, so a drop is always a queue sweep).
  const auto mid_flight = [&](std::size_t seq) {
    const JobRecord& r = records[seq];
    if (r.dropped || r.wave_id >= waves.size()) return false;
    const Wave& w = waves[r.wave_id];
    return w.failed && r.dispatch_us == w.dispatch_us &&
           r.completion_us == w.fail_us &&
           std::binary_search(w.jobs.begin(), w.jobs.end(), seq);
  };
  std::vector<const Wave*> failed;
  for (const Wave& w : waves)
    if (w.failed) failed.push_back(&w);
  std::stable_sort(failed.begin(), failed.end(), [](auto* a, auto* b) {
    return a->fail_us < b->fail_us;
  });
  std::vector<int> attempts(records.size(), 0);
  for (const Wave* w : failed)
    for (const std::size_t seq : w->jobs) {
      ++attempts[seq];
      if (records[seq].wave_id == w->id && mid_flight(seq)) continue;
      log.retries.push_back({.job_id = records[seq].job_id,
                             .wave_id = w->id,
                             .device = static_cast<int>(w->device),
                             .fail_us = w->fail_us,
                             .ready_us = w->fail_us + config.retry_backoff_us,
                             .retry = attempts[seq]});
    }

  std::vector<fault::OutageWindow> outages;
  if (config.fault != nullptr) outages = config.fault->outages;
  std::stable_sort(outages.begin(), outages.end(),
                   [](const auto& a, const auto& b) {
                     return a.start_us < b.start_us;
                   });
  for (const fault::OutageWindow& o : outages)
    log.downs.push_back({.device = static_cast<int>(o.device),
                         .down_us = o.start_us, .up_us = o.end_us});

  std::vector<std::size_t> ended;
  for (std::size_t seq = 0; seq < records.size(); ++seq)
    if (records[seq].dropped || records[seq].failed || records[seq].fallback)
      ended.push_back(seq);
  std::sort(ended.begin(), ended.end(), [&](std::size_t a, std::size_t b) {
    return std::pair(records[a].completion_us, records[a].job_id) <
           std::pair(records[b].completion_us, records[b].job_id);
  });
  for (const std::size_t seq : ended) {
    const JobRecord& r = records[seq];
    if (r.fallback)
      log.fallbacks.push_back({.job_id = r.job_id,
                               .direction = r.direction == Direction::kDownlink,
                               .fallback_us = r.completion_us,
                               .deadline_us = r.deadline_us,
                               .bit_errors = r.bit_errors,
                               .num_bits = r.num_bits,
                               .mid_flight = mid_flight(seq)});
    else
      log.drops.push_back({.job_id = r.job_id, .drop_us = r.completion_us,
                           .deadline_us = r.deadline_us,
                           .mid_flight = mid_flight(seq)});
  }
  return log;
}

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

void RunObserver::observe(const ServiceConfig& cfg,
                          const ServiceReport& report) {
  if (trace_path_.empty() && metrics_path_.empty() && slo_.empty()) return;
  log_ = trace_log(scheduler_config(cfg), report.jobs, report.waves);
  devices_ =
      cfg.device_specs.empty() ? cfg.num_devices : cfg.device_specs.size();
  view_.reset();
}

const WindowedView& RunObserver::view() {
  require(devices_ > 0, "RunObserver::view: no observed run");
  if (view_) return *view_;

  std::vector<obs::SloSpec> specs;
  if (!slo_.empty()) {
    std::string error;
    specs = obs::parse_slo_specs(slo_, &error);
    if (specs.empty()) throw InvalidArgument("--slo: " + error);
  }

  WindowedView& view = view_.emplace(WindowedView{
      obs::WindowedCollector(log_, devices_, window_us_), {}});

  view.slos = obs::evaluate_slos(specs, view.collector);
  for (const obs::SloReport& report : view.slos)
    log_.alerts.insert(log_.alerts.end(), report.alerts.begin(),
                       report.alerts.end());
  return view;
}

namespace {

/// Writes `path` (truncating) through `emit` with its stderr notice; false
/// when it failed.  Never touches stdout.
template <typename Emit>
bool write_file(const char* what, const std::string& path, Emit emit) {
  std::ofstream out(path, std::ios::trunc);
  if (out) emit(out);
  const bool ok = out.good();
  if (ok)
    std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  else
    std::fprintf(stderr, "%s: could not write %s\n", what, path.c_str());
  return ok;
}

}  // namespace

int RunObserver::finish() {
  bool ok = true;
  if (devices_ > 0) {
    if (!metrics_path_.empty() || !slo_.empty()) {
      const WindowedView& windowed = view();
      if (!metrics_path_.empty())
        ok &= write_file("metrics", metrics_path_, [&](std::ostream& out) {
          obs::write_metrics_json(windowed.collector, windowed.slos, out);
        });
    }
    if (!trace_path_.empty())
      ok &= write_file("trace", trace_path_, [&](std::ostream& out) {
        obs::write_chrome_trace(log_, out);
      });
  }
  obs::Profiler& profiler = obs::Profiler::instance();
  if (prof_) profiler.dump(std::cerr, 5);
  if (!prof_json_.empty())
    ok &= write_file("profile json", prof_json_,
                     [&](std::ostream& out) { profiler.dump_json(out); });
  return ok ? 0 : 1;
}

}  // namespace quamax::serve
