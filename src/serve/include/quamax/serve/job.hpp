// Units of work for the full-duplex C-RAN service (paper §2, §7).
//
// In the paper's deployment story one quantum annealer in a centralized RAN
// serves many base stations.  Since PR 6 that covers BOTH directions of a
// cell:
//
//   * uplink — every (user group, subframe) pair yields one ML detection
//     problem that must be decoded within a HARQ-style latency budget
//     (a reduced sim::Instance);
//   * downlink — every subframe's transmit vector yields one
//     vector-perturbation precoding problem that must be solved before the
//     subframe goes to air (a reduced vpp::PrecodeInstance).
//
// Both are "minimize an Ising objective within a deadline", so one
// sched::Scheduler serves them from one device pool: CellJob is the
// direction-tagged unit the scheduler queues, and a JobRecord is everything
// the service learned about it — when it was dispatched and completed,
// whether the deadline held, and how well the solution scored (decoded bits
// vs transmitted bits uplink; precoded bits surviving the receiver's
// mod-tau slicer downlink).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "quamax/common/error.hpp"
#include "quamax/sim/instance.hpp"
#include "quamax/vpp/precode.hpp"

namespace quamax::serve {

/// Which half of the cell a job belongs to.
enum class Direction : std::uint8_t { kUplink, kDownlink };

/// The scheduler's unit of work: either direction, one interface.  The
/// common timing fields stay public data (the engine reads them in its
/// inner loops); the payload is a closed variant, so routing, packing, and
/// policy code stay direction-blind while decode branches on direction().
struct CellJob {
  std::size_t id = 0;    ///< unique per service run; indexes RNG streams
  std::size_t user = 0;  ///< originating uplink stream / destination group
  double arrival_us = 0.0;   ///< release time (virtual clock, microseconds)
  double deadline_us = 0.0;  ///< absolute completion deadline (virtual clock)
  /// Coherence chain (uplink only): the previous subframe of this user's
  /// coherence block (same channel H, same payload — a HARQ-style
  /// retransmission under fresh noise), whose decoded configuration is a
  /// valid warm-start seed for this job.  Engaged only by coherent
  /// workloads (LoadConfig::coherence > 0); the scheduler warm-starts off
  /// it when the predecessor completed before this job's dispatch.
  std::optional<std::size_t> predecessor;
  /// Uplink: channel use + reduced Ising problem + truth.  Downlink:
  /// precoder + payload + reduced problem.
  std::variant<sim::Instance, vpp::PrecodeInstance> payload;

  Direction direction() const {
    return payload.index() == 0 ? Direction::kUplink : Direction::kDownlink;
  }
  bool downlink() const { return direction() == Direction::kDownlink; }

  const sim::Instance& uplink() const {
    require(!downlink(), "CellJob: uplink payload requested on a downlink job");
    return std::get<sim::Instance>(payload);
  }
  const vpp::PrecodeInstance& precode() const {
    require(downlink(), "CellJob: downlink payload requested on an uplink job");
    return std::get<vpp::PrecodeInstance>(payload);
  }

  /// The Ising problem the wave anneals, either direction.
  const qubo::IsingModel& ising() const {
    return downlink() ? precode().problem.ising : uplink().problem.ising;
  }
  /// Reference energy for ground-state accounting (ML/optimum when an
  /// oracle anchored it, else transmitted-config / zero-forcing energy).
  double reference_energy() const {
    return downlink() ? precode().ground_energy : uplink().ground_energy;
  }

  /// Wave-packing compatibility key (logical variable count).
  std::size_t shape() const { return ising().num_spins(); }
};

/// Completion record for one job, in virtual-clock microseconds.
struct JobRecord {
  std::size_t job_id = 0;
  std::size_t user = 0;
  Direction direction = Direction::kUplink;
  std::size_t wave_id = 0;  ///< wave that served it (undefined when dropped)
  double arrival_us = 0.0;
  double dispatch_us = 0.0;    ///< when its wave started on a device
  double completion_us = 0.0;  ///< when its wave finished (== drop time when dropped)
  double deadline_us = 0.0;
  /// Admission control rejected the job at dispatch time because it could
  /// no longer meet its deadline (ServiceConfig::drop_late); never decoded.
  bool dropped = false;
  /// Failed anneal attempts this job survived (fault::FaultPlan wave
  /// failures); dispatch/completion describe the final attempt.
  std::size_t retries = 0;
  /// Served by the classical fallback decoder (ServiceConfig::fallback)
  /// instead of the annealing path: bit_errors/num_bits carry the classical
  /// decode, completion_us the (instant) fallback time, ground_state false.
  bool fallback = false;
  /// Terminally failed — retry budget exhausted (or shape no longer
  /// embeddable) with no fallback configured; never decoded, counts as a
  /// miss like a drop.
  bool failed = false;

  // Solution quality (zero-initialized for dropped jobs).  Uplink: decoded
  // Gray bits vs transmitted bits.  Downlink: payload bits surviving the
  // receiver mod-tau slicer under the chosen perturbation.
  std::size_t bit_errors = 0;
  std::size_t num_bits = 0;    ///< bits carried by the job
  bool ground_state = false;   ///< best sample reached the reference energy

  double queueing_us() const { return dispatch_us - arrival_us; }
  double service_us() const { return completion_us - dispatch_us; }
  double total_us() const { return completion_us - arrival_us; }
  /// A dropped or terminally failed job is a miss by definition (it never
  /// completed in time); a fallback job misses only if the classical serve
  /// itself landed past the deadline.
  bool missed_deadline() const {
    return dropped || failed || completion_us > deadline_us;
  }
};

/// One chip wave: same-shape jobs decoded by a single anneal batch.
struct Wave {
  std::size_t id = 0;
  std::size_t shape = 0;            ///< logical variable count of every member
  std::vector<std::size_t> jobs;    ///< member job indices, FIFO order
  double dispatch_us = 0.0;         ///< set by the service
  double completion_us = 0.0;       ///< set by the service
  std::size_t device = 0;           ///< modeled QA processor that ran it
  /// Warm-start wave (sched::SchedConfig::warm_start): every member is
  /// reverse-annealed from its coherence-chain predecessor's decoded
  /// configuration at the warm anneal quota.  Waves are
  /// warmness-homogeneous — cold members never share a wave with warm ones.
  bool warm = false;
  /// Warm waves only: each member's predecessor SEQUENCE number, aligned
  /// with `jobs`; the scheduler reads that job's seed slot.  Empty when cold.
  std::vector<std::size_t> seeds;
  /// Fault injection (sched::SchedConfig::fault): the wave aborted at
  /// fail_us — its device hit an outage or defect growth mid-flight, or its
  /// anneal/readout draw failed — yielding no samples.  Members were
  /// retried or degraded; the device was occupied for
  /// [dispatch_us, fail_us] only.  Always false without a fault plan.
  bool failed = false;
  double fail_us = 0.0;
};

}  // namespace quamax::serve
