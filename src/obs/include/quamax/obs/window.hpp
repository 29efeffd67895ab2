// Windowed telemetry: tumbling virtual-clock windows over a finished
// TraceLog (obs v2).
//
// PR 8's tracing answers "what happened to job 17"; the end-of-run digest
// answers "how did the run do on average".  Neither shows miss rate or p99
// *evolving* under a fault storm or a load ramp — the outage dip and the
// recovery are invisible in a single aggregate.  WindowedCollector fills
// that gap: it tiles the virtual-clock timeline [0, H] with N equal-width
// tumbling windows and buckets every trace event into the window containing
// its timestamp, producing a per-window time series of throughput, miss
// rate, retries/fallbacks, queue depth, wave occupancy, and latency
// percentiles (per-window QuantileSketch), plus per-device duty-cycle and
// energy accounting.
//
// Determinism contract (the PR 8 hard rule, unchanged):
//   * The collector is a value computed once from a finished TraceLog.  It
//     consumes no RNG and never touches the scheduler; serving digests are
//     byte-identical with windowing on or off (CI gates it).
//   * The windowed series is a pure function of the event SET —
//     independent of event order, threads, replicas, or poll cadence
//     (tests permute a log to pin it).  Waves and job terminals are sorted
//     by (timestamp, id) before any floating-point accumulation; every
//     other event only feeds order-free integer counts, maxima and the
//     outage union.
//
// Duty-cycle / energy model (arXiv 2109.01465, "A Cost and Power
// Feasibility Analysis of Quantum Annealing for NextG Cellular Wireless
// Networks"): a QA data-center unit draws ~25 kW essentially constantly —
// the cryogenic plant dominates and does not modulate with load — so every
// phase of every device is priced at kDeviceWatts and the interesting
// output is joules-per-decoded-bit, which improves only by decoding MORE
// BITS per wall-second, exactly the paper's throughput argument.  Each
// device's horizon is tiled exactly:
// program + anneal + readout spans from live waves, aborted spans from
// failed waves ([dispatch, fail], costed at the anneal rate), outage time
// (unioned DeviceDown windows), and idle = the remainder — metrics_check.py
// asserts the tiling sums to the horizon per device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "quamax/obs/sketch.hpp"
#include "quamax/obs/trace.hpp"

namespace quamax::obs {

/// Electrical power of one modeled device in every phase (idle, program,
/// anneal, readout, aborted, outage), in watts: arXiv 2109.01465's ~25 kW
/// constant-draw annealing unit (cryogenic plant dominated,
/// load-independent).
inline constexpr double kDeviceWatts = 25000.0;

/// One tumbling window's accumulated series point.  Counters bucket events
/// by timestamp; rates are derived from the window's own counts (miss_rate
/// over RESOLVED jobs, occupancy over device-time).
struct WindowStats {
  std::size_t index = 0;
  double start_us = 0.0;
  double end_us = 0.0;

  std::int64_t submitted = 0;  ///< jobs admitted (JobSubmit)
  std::int64_t completed = 0;  ///< live QA completions (at completion_us)
  std::int64_t fallbacks = 0;  ///< jobs degraded to the classical decoder
  std::int64_t dropped = 0;    ///< queue-side drops (deadline sweep, unservable)
  std::int64_t failed = 0;     ///< mid-flight terminal failures (retry budget)
  std::int64_t retries = 0;    ///< failed-wave members re-queued
  std::int64_t missed = 0;     ///< resolved jobs that missed their deadline
  std::int64_t resolved = 0;   ///< completed + fallbacks + dropped + failed
  std::int64_t waves = 0;      ///< waves dispatched (at dispatch_us)
  std::int64_t failed_waves = 0;
  std::int64_t bits = 0;       ///< payload bits decoded (live + fallback)

  double busy_us = 0.0;    ///< device-time occupied by waves, clipped in
  double outage_us = 0.0;  ///< device-time inside outages, clipped in
  double energy_j = 0.0;   ///< all devices, all phases (idle/outage incl.)

  double miss_rate = 0.0;  ///< missed / resolved (0 when none resolved)
  double occupancy = 0.0;  ///< busy_us / (num_devices * width)
  double watts = 0.0;      ///< energy_j / window seconds (fleet average)
  double cum_joules_per_bit = 0.0;  ///< cumulative energy / cumulative bits

  std::int64_t queue_depth = 0;  ///< jobs queued at window end (exact)

  QuantileSketch latency;  ///< terminal latency (resolve − submit) of jobs
                           ///< resolving in this window (served jobs only)
};

/// One device's duty-cycle tiling over the accounting horizon [0, H].
/// program + anneal + readout + aborted + outage + idle == H exactly
/// (idle is defined as the remainder; the validator asserts it stays >= 0,
/// which holds because waves never overlap outages on their own device).
struct DeviceUsage {
  std::size_t device = 0;
  double program_us = 0.0;
  double anneal_us = 0.0;
  double readout_us = 0.0;
  double aborted_us = 0.0;  ///< failed waves' [dispatch, fail] spans
  double outage_us = 0.0;   ///< unioned DeviceDown windows, clipped to [0,H]
  double idle_us = 0.0;     ///< H - all of the above
  double energy_j = 0.0;
  std::int64_t waves = 0;
  std::int64_t failed_waves = 0;

  /// Wave-occupied device time (everything but outage and idle).
  double busy_us() const noexcept {
    return program_us + anneal_us + readout_us + aborted_us;
  }
};

/// Run-level totals, accumulated from the same canonical event order as the
/// windows so digest cross-checks are exact.  wave_busy_us is computed
/// INDEPENDENTLY of the per-device phase attribution (straight sum of wave
/// extents) — the energy-conservation gate compares the two paths.
struct WindowedTotals {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t fallbacks = 0;
  std::int64_t dropped = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t missed = 0;
  std::int64_t resolved = 0;
  std::int64_t waves = 0;
  std::int64_t failed_waves = 0;
  std::int64_t bits = 0;
  double wave_busy_us = 0.0;
  double energy_j = 0.0;
  double joules_per_bit = 0.0;  ///< energy_j / bits (0 when no bits decoded)
  QuantileSketch latency;
};

/// The windowed series and device accounting of one finished run.  See the
/// header comment for the determinism contract.
class WindowedCollector {
 public:
  /// Windows `log` over a pool of `num_devices` devices (stretched to cover
  /// every device index the events name, so a short count cannot drop
  /// events; idle devices that never saw a wave still need declaring).
  /// `window_us` is the tumbling
  /// window width in virtual-clock microseconds; 0 picks horizon / 20.  The
  /// horizon is the latest event timestamp, and the window count is
  /// ceil(horizon / width) with the last window padded so N * width tiles
  /// [0, H] exactly.
  WindowedCollector(const TraceLog& log, std::size_t num_devices,
                    double window_us = 0.0);

  double width_us() const noexcept { return width_us_; }
  double horizon_us() const noexcept { return horizon_us_; }
  std::size_t num_devices() const noexcept { return devices_.size(); }
  const std::vector<WindowStats>& windows() const { return windows_; }
  const std::vector<DeviceUsage>& devices() const { return devices_; }
  const WindowedTotals& totals() const { return totals_; }

 private:
  double width_us_ = 0.0;
  double horizon_us_ = 0.0;
  std::vector<WindowStats> windows_;
  std::vector<DeviceUsage> devices_;
  WindowedTotals totals_;
};

}  // namespace quamax::obs
