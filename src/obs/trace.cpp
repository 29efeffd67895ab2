#include "quamax/obs/trace.hpp"

#include <ostream>
#include <string>

#include "json.hpp"

namespace quamax::obs {
namespace {

using json::escaped;
using json::num;

class EventWriter {
 public:
  explicit EventWriter(std::ostream& out) : out_(out) {
    out_ << "{\"traceEvents\":[";
  }
  void emit(const std::string& body) {
    if (!first_) out_ << ",";
    first_ = false;
    out_ << "\n" << body;
  }
  void finish() { out_ << "\n]}\n"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

std::string meta_thread_name(int tid, const std::string& name) {
  return "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":\"" + escaped(name) +
         "\"}}";
}

std::string slice(const std::string& name, int tid, double ts, double dur,
                  const std::string& args) {
  std::string s = "{\"name\":\"" + escaped(name) +
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                  ",\"ts\":" + num(ts) + ",\"dur\":" + num(dur);
  if (!args.empty()) s += ",\"args\":{" + args + "}";
  return s + "}";
}

}  // namespace

void write_chrome_trace(const TraceLog& log, std::ostream& out) {
  EventWriter w(out);

  int max_device = -1;
  for (const auto& wave : log.waves)
    if (wave.device > max_device) max_device = wave.device;
  for (const auto& down : log.downs)
    if (down.device > max_device) max_device = down.device;

  // Track metadata: tid 0 = arrivals, tid 1+d = modeled device d, and (only
  // when the log carries alerts) one "slo alerts" track after the devices.
  w.emit(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"quamax virtual clock\"}}");
  w.emit(meta_thread_name(0, "arrivals"));
  for (int d = 0; d <= max_device; ++d)
    w.emit(meta_thread_name(1 + d, "device " + std::to_string(d)));
  const int alert_tid = 2 + max_device;
  if (!log.alerts.empty())
    w.emit(meta_thread_name(alert_tid, "slo alerts"));

  // Arrival track: one instant per submit and per drop, plus the flow
  // origin ("s") for each job at its submit time.
  for (const auto& e : log.submits) {
    const std::string name = "job " + std::to_string(e.job_id) + " submit";
    w.emit("{\"name\":\"" + escaped(name) +
           "\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"s\":\"t\",\"ts\":" +
           num(e.submit_us) + ",\"args\":{\"job\":" + std::to_string(e.job_id) +
           ",\"user\":" + std::to_string(e.user) +
           ",\"direction\":" + std::to_string(e.direction) +
           ",\"deadline_us\":" + num(e.deadline_us) + "}}");
    w.emit("{\"name\":\"job " + std::to_string(e.job_id) +
           "\",\"cat\":\"job\",\"ph\":\"s\",\"id\":" +
           std::to_string(e.job_id) + ",\"pid\":1,\"tid\":0,\"ts\":" +
           num(e.submit_us) + "}");
  }
  for (const auto& e : log.drops) {
    w.emit("{\"name\":\"job " + std::to_string(e.job_id) +
           " drop\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"s\":\"t\",\"ts\":" +
           num(e.drop_us) + ",\"args\":{\"job\":" + std::to_string(e.job_id) +
           ",\"deadline_us\":" + num(e.deadline_us) + ",\"mid_flight\":" +
           (e.mid_flight ? "true" : "false") + "}}");
  }
  // Fault-injection instants share the arrival track: retries (a failed
  // wave's member re-queued) and fallbacks (a job degraded to the classical
  // decoder — terminal, so it also closes the job's flow arrow budget).
  for (const auto& e : log.retries) {
    w.emit("{\"name\":\"job " + std::to_string(e.job_id) +
           " retry\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"s\":\"t\",\"ts\":" +
           num(e.fail_us) + ",\"args\":{\"job\":" + std::to_string(e.job_id) +
           ",\"wave\":" + std::to_string(e.wave_id) +
           ",\"device\":" + std::to_string(e.device) +
           ",\"ready_us\":" + num(e.ready_us) +
           ",\"retry\":" + std::to_string(e.retry) + "}}");
  }
  for (const auto& e : log.fallbacks) {
    w.emit("{\"name\":\"job " + std::to_string(e.job_id) +
           " fallback\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"s\":\"t\",\"ts\":" +
           num(e.fallback_us) +
           ",\"args\":{\"job\":" + std::to_string(e.job_id) +
           ",\"direction\":" + std::to_string(e.direction) +
           ",\"deadline_us\":" + num(e.deadline_us) +
           ",\"bit_errors\":" + std::to_string(e.bit_errors) +
           ",\"num_bits\":" + std::to_string(e.num_bits) +
           ",\"mid_flight\":" + (e.mid_flight ? "true" : "false") + "}}");
  }
  // Outage windows as slices on the device tracks.
  for (const auto& e : log.downs) {
    w.emit(slice("outage", 1 + e.device, e.down_us, e.up_us - e.down_us,
                 "\"device\":" + std::to_string(e.device) +
                     ",\"up_us\":" + num(e.up_us)));
  }

  // Device tracks: each wave is a slice with nested program/anneal/readout
  // children.  Children share the parent's tid and nest because their
  // [ts, ts+dur] ranges tile the parent's exactly.
  for (const auto& v : log.waves) {
    const int tid = 1 + v.device;
    const std::string wave_args =
        "\"wave\":" + std::to_string(v.wave_id) +
        ",\"device\":" + std::to_string(v.device) +
        ",\"warm\":" + (v.warm ? std::string("true") : std::string("false")) +
        ",\"num_anneals\":" + std::to_string(v.num_anneals) +
        ",\"num_jobs\":" + std::to_string(v.num_jobs) + ",\"policy\":\"" +
        escaped(v.policy) + "\",\"shape\":\"" + escaped(v.shape) + "\"";
    if (v.failed) {
      // A failed wave occupies the device only until its abort instant and
      // yields no program/anneal/readout decomposition.
      w.emit(slice("wave " + std::to_string(v.wave_id) + " FAILED", tid,
                   v.dispatch_us, v.fail_us - v.dispatch_us,
                   wave_args + ",\"failed\":true,\"fail_us\":" +
                       num(v.fail_us)));
      continue;
    }
    w.emit(slice("wave " + std::to_string(v.wave_id), tid, v.dispatch_us,
                 v.completion_us - v.dispatch_us, wave_args));
    w.emit(slice("program", tid, v.dispatch_us,
                 v.program_end_us - v.dispatch_us, ""));
    w.emit(slice("anneal", tid, v.program_end_us,
                 v.readout_start_us - v.program_end_us,
                 "\"num_anneals\":" + std::to_string(v.num_anneals) +
                     ",\"warm\":" +
                     (v.warm ? std::string("true") : std::string("false"))));
    w.emit(slice("readout", tid, v.readout_start_us,
                 v.completion_us - v.readout_start_us, ""));
  }

  // Flow terminators: each dispatched job's arrow lands on its wave slice
  // ("bp":"e" binds to the enclosing slice at that timestamp).
  for (const auto& e : log.dispatches) {
    w.emit("{\"name\":\"job " + std::to_string(e.job_id) +
           "\",\"cat\":\"job\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" +
           std::to_string(e.job_id) + ",\"pid\":1,\"tid\":" +
           std::to_string(1 + e.device) + ",\"ts\":" + num(e.dispatch_us) +
           ",\"args\":{\"wave\":" + std::to_string(e.wave_id) +
           ",\"completion_us\":" + num(e.completion_us) +
           ",\"num_bits\":" + std::to_string(e.num_bits) + "}}");
  }

  // SLO alert track: one instant per burn-rate breach (obs::evaluate_slos),
  // carrying the breaching window and the short/long-window values so the
  // dip is inspectable next to the device timelines.
  for (const auto& e : log.alerts) {
    w.emit("{\"name\":\"slo-alert " + escaped(e.slo) +
           "\",\"ph\":\"i\",\"pid\":1,\"tid\":" + std::to_string(alert_tid) +
           ",\"s\":\"t\",\"ts\":" + num(e.start_us) +
           ",\"args\":{\"slo\":\"" + escaped(e.slo) +
           "\",\"window\":" + std::to_string(e.window) +
           ",\"window_end_us\":" + num(e.end_us) +
           ",\"value\":" + num(e.value) +
           ",\"long_value\":" + num(e.long_value) +
           ",\"threshold\":" + num(e.threshold) +
           ",\"burn\":" + num(e.burn) + "}}");
  }

  w.finish();
}

}  // namespace quamax::obs
