// Virtual-clock job tracing: the in-memory event log and the
// Chrome/Perfetto trace-event JSON exporter.
//
// A TraceLog is derived after a run from its job records, wave log, fault
// plan and config (serve::trace_log); nothing is emitted while the run is
// served, so observing cannot perturb any result.  Each event vector has
// one order, the derivation's contract:
//
//   submits    — sequence order;
//   waves      — wave id order;
//   dispatches — wave by wave, failed waves skipped, members in sequence
//                order;
//   retries    — failed waves in (fail_us, wave id) order, members in
//                sequence order, none for a member the wave ended;
//   downs      — the plan's outages, stable-sorted by start;
//   drops, fallbacks — (completion, job id) order, the key
//                obs::WindowedCollector sorts job terminals by; a dropped
//                record is never mid-flight.
//
// Span decomposition (QuAMax §7's latency breakdown): a wave occupies its
// device for program_overhead_us + num_anneals * schedule_duration.  The
// overhead models programming + readout, so it is split half-before /
// half-after the anneal span:
//
//   queue   = [submit_us, dispatch_us]
//   program = [dispatch_us, program_end_us]      (overhead / 2)
//   anneal  = [program_end_us, readout_start_us] (num_anneals * duration)
//   readout = [readout_start_us, completion_us]  (overhead / 2)
//
// The four spans tile [submit, completion] exactly, so per-job totals from
// the trace equal the virtual-clock latency to the last bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace quamax::obs {

/// Job admitted to the scheduler queue.
struct JobSubmitEvent {
  std::uint64_t job_id = 0;
  int user = 0;
  int direction = 0;  ///< 0 = uplink decode, 1 = downlink precode
  double submit_us = 0.0;
  double deadline_us = 0.0;
};

/// Job packed into a wave and dispatched to a device.  The virtual clock
/// fixes completion at dispatch time (closed-form wave cost), so one event
/// carries the whole remaining lifecycle.
struct JobDispatchEvent {
  std::uint64_t job_id = 0;
  std::uint64_t wave_id = 0;
  int device = 0;
  double dispatch_us = 0.0;
  double completion_us = 0.0;
  /// Payload bits the job carries (its record's num_bits), so the energy
  /// accounting can compute joules-per-decoded-bit from the trace alone.
  std::size_t num_bits = 0;
};

/// Job swept as a deadline miss before it could be dispatched — also the
/// terminal-failure record (retry budget exhausted with no fallback), which
/// shares this event so downstream tooling needs no third terminal kind.
struct JobDropEvent {
  std::uint64_t job_id = 0;
  double drop_us = 0.0;
  double deadline_us = 0.0;
  /// True when the job was IN FLIGHT on a failed wave when it resolved (the
  /// retry/fallback ladder), false when it was swept out of the queue.  The
  /// windowed queue-depth reconstruction needs the distinction: mid-flight
  /// terminals already left the queue at their wave's dispatch.
  bool mid_flight = false;
};

/// Wave dispatched to a device: the device-occupancy slice plus the
/// program/anneal/readout split (see the header comment) and the scheduling
/// context (policy that ordered admission, warm/cold, anneal quota).
struct WaveEvent {
  std::uint64_t wave_id = 0;
  int device = 0;
  bool warm = false;
  int num_anneals = 0;
  std::size_t num_jobs = 0;
  std::string policy;  ///< queue policy name: "fifo", "edf", "slack"
  std::string shape;   ///< logical variable count of the wave, e.g. "16"
  double dispatch_us = 0.0;
  double program_end_us = 0.0;
  double readout_start_us = 0.0;
  double completion_us = 0.0;
  /// Fault injection (quamax::fault): the wave aborts at fail_us — an
  /// outage or defect growth hits its device mid-flight, or its anneal /
  /// readout draw fails — and yields no samples; members are retried or
  /// degraded.  Failed waves occupy [dispatch_us, fail_us] and have no
  /// program/anneal/readout children.
  bool failed = false;
  double fail_us = 0.0;
};

/// Device is out over a fault::OutageWindow [down_us, up_us].
struct DeviceDownEvent {
  int device = 0;
  double down_us = 0.0;
  double up_us = 0.0;
};

/// Member of a failed wave re-queued for another attempt.
struct JobRetryEvent {
  std::uint64_t job_id = 0;
  std::uint64_t wave_id = 0;  ///< the wave that failed
  int device = 0;             ///< the device it failed on
  double fail_us = 0.0;
  double ready_us = 0.0;  ///< earliest re-dispatch (fail + retry backoff)
  int retry = 0;          ///< failed attempts so far (1 = first retry)
};

/// Job degraded to the classical fallback decoder (fault::classical_decode)
/// — served instantly at fallback_us with classical BER.
struct JobFallbackEvent {
  std::uint64_t job_id = 0;
  int direction = 0;  ///< 0 = uplink decode, 1 = downlink precode
  double fallback_us = 0.0;
  double deadline_us = 0.0;
  std::size_t bit_errors = 0;
  std::size_t num_bits = 0;
  /// See JobDropEvent::mid_flight: true for the failed-wave ladder, false
  /// for queue-side degradations (doomed sweep, unservable shape).
  bool mid_flight = false;
};

/// SLO burn-rate breach (obs::evaluate_slos): the trailing short- AND
/// long-window values both exceeded the spec's threshold at this window.
/// Alerts are a pure function of the windowed series, evaluated after the
/// run on the driver thread, so they are as deterministic as the digest —
/// the exporter renders them as a dedicated Chrome-trace track.
struct AlertEvent {
  std::string slo;            ///< spec name, e.g. "miss_rate<=0.05"
  std::size_t window = 0;     ///< index of the breaching window
  double start_us = 0.0;      ///< breaching window bounds (virtual clock)
  double end_us = 0.0;
  double value = 0.0;         ///< short-window value of the monitored signal
  double long_value = 0.0;    ///< long-window value
  double threshold = 0.0;     ///< the spec's bound
  double burn = 0.0;          ///< value / threshold (burn rate, short window)
};

/// In-memory event log, one vector per event kind, each in the order the
/// header comment states.
struct TraceLog {
  std::vector<JobSubmitEvent> submits;
  std::vector<JobDispatchEvent> dispatches;
  std::vector<JobDropEvent> drops;
  std::vector<WaveEvent> waves;
  std::vector<DeviceDownEvent> downs;
  std::vector<JobRetryEvent> retries;
  std::vector<JobFallbackEvent> fallbacks;
  /// SLO breaches, appended by serve::RunObserver from evaluate_slos.
  std::vector<AlertEvent> alerts;
};

/// Writes the log as Chrome trace-event JSON (catapult "traceEvents"
/// format, loadable in chrome://tracing and Perfetto).  Track layout:
/// tid 0 is the "arrivals" track (submit/drop instant events); tid 1 + d is
/// device d, carrying each wave as a complete ("X") slice with nested
/// program/anneal/readout child slices.  Every job gets a flow arrow
/// (s/f events keyed by job id) from its submit instant to its wave slice.
/// SLO alerts (if the log carries any) get a dedicated "slo alerts" track
/// after the device tracks.  Timestamps are virtual-clock microseconds
/// written verbatim — the trace-event "ts" unit is also microseconds.
/// Never touches stdout — serving binaries diff their stdout in CI.
void write_chrome_trace(const TraceLog& log, std::ostream& out);

}  // namespace quamax::obs
