// SchedClient — the async streaming front end of the scheduler (ROADMAP:
// "an async streaming API (submit/poll) in front of DecodeService").
//
// A RAN front-end does not hand the annealing pool a batch: it streams
// detection jobs as subframes arrive and consumes completions whenever it
// gets around to asking.  SchedClient is that interface over the
// virtual-clock Scheduler:
//
//   SchedClient client(config);
//   Ticket t = client.submit(job);       // non-blocking; advances the clock
//   for (const Completion& c : client.poll())   // completions due by "now"
//     consume(c.ticket, c.record);
//   for (const Completion& c : client.drain())  // flush everything at EOS
//     consume(c.ticket, c.record);
//
// "Now" is the latest submitted arrival: poll() returns exactly the jobs
// whose waves completed on the virtual clock by that instant (dropped jobs
// at their drop instant), each exactly once, ordered by (completion time,
// ticket).  Because every wave's decode draws from its own counter-derived
// stream, the records — and their assignment to tickets — are bit-identical
// at any num_threads / batch_replicas setting AND any submit/poll
// interleaving: polling eagerly, lazily, or never (drain only) yields the
// same per-ticket bytes (tests/sched_test.cpp enforces this).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "quamax/sched/scheduler.hpp"

namespace quamax::sched {

/// Handle for one submitted job; `seq` is the submission sequence number.
struct Ticket {
  std::size_t seq = 0;
};

/// One finished job: its ticket plus the final record (virtual-clock
/// timings, deadline verdict, decode quality).
struct Completion {
  Ticket ticket;
  serve::JobRecord record;
};

class SchedClient {
 public:
  /// `devices` may share a prebuilt DeviceSet; nullptr builds one.
  explicit SchedClient(SchedConfig config,
                       std::shared_ptr<DeviceSet> devices = nullptr);

  const SchedConfig& config() const noexcept { return scheduler_.config(); }
  const std::shared_ptr<DeviceSet>& device_set() const noexcept {
    return scheduler_.device_set();
  }
  double now_us() const noexcept { return scheduler_.now_us(); }
  std::size_t submitted() const noexcept { return scheduler_.num_submitted(); }

  /// Streams one job in (non-decreasing arrival order) — either direction.
  /// Advances the virtual clock to the job's arrival.  Throws CapacityError when no
  /// device can embed the job's shape.
  Ticket submit(serve::CellJob job);

  /// Completions due by the current clock that no earlier poll returned,
  /// ordered by (completion time, ticket seq).
  std::vector<Completion> poll();

  /// End of stream: runs the schedule to completion and returns every
  /// completion not yet polled.
  std::vector<Completion> drain();

  /// Direct access to the underlying engine (records/waves for reporting).
  const Scheduler& scheduler() const noexcept { return scheduler_; }

 private:
  std::vector<Completion> completions_for(const std::vector<std::size_t>& seqs);

  Scheduler scheduler_;
};

}  // namespace quamax::sched
