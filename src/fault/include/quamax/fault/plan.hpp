// quamax::fault — deterministic fault schedules for the serving stack
// (ROADMAP north star: "handles as many scenarios as you can imagine";
// availability is the question Kasi et al.'s NextG feasibility analysis
// raises for a QA-backed C-RAN, and the hybrid classical-quantum
// structures line of work argues for a classical fallback path beside the
// annealer).
//
// The paper's deployment story assumes an always-healthy annealer.  A
// production centralized RAN must keep decoding cells when chips drop out,
// anneals or readouts fail, or a chip's defect map grows mid-run.  A
// FaultPlan scripts exactly those events on the VIRTUAL clock, so a faulty
// run is as reproducible as a healthy one:
//
//   * OutageWindow  — device d is down for [start_us, end_us): waves in
//     flight when the outage starts are requeued, and no wave dispatches on
//     d until the window closes (sched::Scheduler defers the device).
//   * DefectGrowth — at time_us, device d's defect map grows by `qubits`
//     (paper §3.3's fabrication faults, now appearing at runtime): waves in
//     flight fail, the device's embedding cache is invalidated (including
//     try_capacity negative entries), and jobs whose shape no longer embeds
//     anywhere degrade to the classical fallback (or fail).
//   * anneal_failure_prob / readout_failure_prob — per-wave injected
//     failures, drawn from a DEDICATED RNG stream keyed by the plan's own
//     seed and the wave id.  The fault family never touches the decode or
//     warm-start key families, so the fault-free path stays bit-compatible
//     with history, and toggling one probability never shifts the other's
//     draws.
//
// Every fault decision is a pure function of (plan, wave id, virtual-clock
// schedule), evaluated by fault::Timeline below: faulty runs keep the v2
// determinism contract — bit-identical at any --threads/--replicas/poll
// cadence per device count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "quamax/chimera/graph.hpp"

namespace quamax::fault {

/// Device `device` is unavailable for [start_us, end_us) on the virtual
/// clock.  Windows may overlap (the union is what counts); end_us must be
/// strictly greater than start_us.
struct OutageWindow {
  std::size_t device = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Device `device`'s defect map grows by `qubits` at time_us: the qubits
/// are disabled on top of whatever faults the chip already carried.
struct DefectGrowth {
  std::size_t device = 0;
  double time_us = 0.0;
  std::vector<chimera::Qubit> qubits;
};

/// Which classical decoder serves jobs the annealing path could not
/// (ServiceConfig::fallback).  kNone preserves the historical behavior:
/// a terminally failed job is simply lost (a deadline miss).
enum class FallbackMode : std::uint8_t { kNone, kZf, kMmse };

/// Parses "none" / "zf" / "mmse"; throws InvalidArgument otherwise.
FallbackMode parse_fallback_mode(const std::string& text);
const char* to_string(FallbackMode mode);

struct FaultPlan {
  std::vector<OutageWindow> outages;
  std::vector<DefectGrowth> growths;
  /// Probability that a wave's anneal batch fails (the wave aborts when its
  /// anneal span ends, before readout).  Drawn per wave id from the
  /// dedicated fault stream.
  double anneal_failure_prob = 0.0;
  /// Probability that a wave's readout fails (the wave aborts at its
  /// completion instant with no samples).  Independent of the anneal draw:
  /// both uniforms are always consumed, so enabling one probability never
  /// shifts the other's stream.
  double readout_failure_prob = 0.0;
  /// Root of the fault-injection stream family — deliberately SEPARATE from
  /// SchedConfig::seed so attaching a plan never re-keys the decode or
  /// warm-start streams.
  std::uint64_t seed = 0xFA017;

  /// True when the plan schedules nothing and injects nothing — the
  /// scheduler then takes the historical fault-free path bit-for-bit.
  bool empty() const noexcept {
    return outages.empty() && growths.empty() && anneal_failure_prob <= 0.0 &&
           readout_failure_prob <= 0.0;
  }

  /// Validates window ordering, probability ranges, and device indices
  /// against a pool of `num_devices`.  Throws InvalidArgument.
  void validate(std::size_t num_devices) const;
};

/// Parses a fault-plan text file (the --fault-plan / QUAMAX_FAULT_PLAN
/// format).  One directive per line; '#' starts a comment:
///
///   outage DEVICE START_US END_US
///   defects DEVICE TIME_US QUBIT [QUBIT...]
///   annealfail PROB
///   readoutfail PROB
///   seed SEED
///
/// Throws InvalidArgument on unreadable files or malformed directives.
FaultPlan load_fault_plan(const std::string& path);

/// A deterministic fault storm for availability experiments: each of
/// `devices` alternates up/down periods (exponential lengths, mean outage
/// `mean_outage_us`, mean uptime scaled so the long-run downtime fraction
/// is `downtime_fraction`) across [0, horizon_us).  Pure function of its
/// arguments — the bench's 25%-downtime storm is storm_plan(..., 0.25, ...).
FaultPlan storm_plan(std::size_t devices, double horizon_us,
                     double downtime_fraction, double mean_outage_us,
                     std::uint64_t seed);

/// Total scheduled downtime of `device` over [0, horizon_us) (overlapping
/// windows are unioned) — the denominator check for availability sweeps.
double scheduled_downtime_us(const FaultPlan& plan, std::size_t device,
                             double horizon_us);

/// A plan's meaning on the virtual clock: the per-device outage windows,
/// the fault RNG key, the applied-growth flags and the one (time,
/// insertion)-ordered event queue the scheduler drains.  It answers the two
/// questions dispatch asks — when is device d up after t, and at what
/// instant does wave w on d abort; what to DO about each event stays with
/// sched::Scheduler.  A null or empty plan builds the inactive timeline: no
/// events, every device always up, no wave ever aborts, no RNG drawn.
class Timeline {
 public:
  /// kOutageEdge is an outage window's start or end.  It carries no action
  /// (up_at/abort_us read the windows), but next_us() wakes an idle device
  /// at an outage start, which re-queues it at the outage's end and so
  /// moves device tie-breaking
  /// (FaultServeTest.OutageEventsRequeueAnIdleDeviceAtTheWindowEnd).
  enum class Kind : std::uint8_t { kOutageEdge, kGrowth, kWaveFail };
  struct Event {
    double t_us = 0.0;
    std::size_t order = 0;  ///< insertion tie-break at equal times
    Kind kind = Kind::kOutageEdge;
    std::size_t index = 0;  ///< outage/growth index in the plan, or wave id
    bool operator>(const Event& other) const {
      if (t_us != other.t_us) return t_us > other.t_us;
      return order > other.order;
    }
  };

  Timeline() = default;
  /// Validates `plan` against a pool whose device d has device_qubits[d]
  /// qubits (growth qubit ids included, so a bad id fails before anything
  /// is served) and queues every outage and growth event.  Throws
  /// InvalidArgument.
  Timeline(std::shared_ptr<const FaultPlan> plan,
           const std::vector<std::size_t>& device_qubits);

  bool active() const noexcept { return plan_ != nullptr; }
  /// Requires active().
  const FaultPlan& plan() const noexcept { return *plan_; }
  bool has_growths() const noexcept {
    return active() && !plan_->growths.empty();
  }

  /// Time of the earliest queued event; +infinity when none.
  double next_us() const;
  /// Pops the earliest event if it is due by `t_us`.  Popping a growth
  /// marks it applied: from then on it aborts no wave.
  std::optional<Event> pop_due(double t_us);
  /// Queues the abort of wave `wave_id` at `fail_us`.
  void push_wave_fail(double fail_us, std::size_t wave_id);

  /// End of the outage (union of overlapping or adjacent windows) covering
  /// `t_us` on `device`; `t_us` itself when the device is up.
  double up_at(std::size_t device, double t_us) const;
  /// The instant a wave on `device` spanning [dispatch, completion) aborts,
  /// or +infinity: the earliest outage start or unapplied defect growth
  /// hitting the span (clamped to dispatch), or an injected failure drawn
  /// from the wave's fault stream — an anneal failure ends the wave at
  /// `readout_start_us`, a readout failure at `completion_us`.  Both
  /// uniforms are always drawn when either probability is set, so toggling
  /// one injection never shifts the other's draw.
  double abort_us(std::size_t device, std::size_t wave_id, double dispatch_us,
                  double readout_start_us, double completion_us) const;

 private:
  void push(double t_us, Kind kind, std::size_t index);

  std::shared_ptr<const FaultPlan> plan_;
  std::uint64_t key_ = 0;  ///< keyed by the PLAN's seed, never the decode seed
  std::vector<std::vector<OutageWindow>> windows_;  ///< per device, by start
  std::vector<char> growth_applied_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::size_t order_ = 0;
};

}  // namespace quamax::fault
