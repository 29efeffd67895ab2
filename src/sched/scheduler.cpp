#include "quamax/sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/fault/fallback.hpp"

namespace quamax::sched {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The validated config with its device list filled in (one base-chip
/// device when empty).
SchedConfig checked(SchedConfig config) {
  Scheduler::validate(config);
  if (config.devices.empty())
    config.devices = uniform_devices(config.annealer, 1);
  return config;
}

/// The pool a scheduler serves on: the caller's shared one, else one built
/// from the specs.  Defect growth mutates the pool mid-run and a
/// caller-shared DeviceSet must never see that, so a plan with growths
/// always gets a private pool built from the same specs (placements
/// recompile — correctness over reuse here).
std::shared_ptr<DeviceSet> serving_pool(const SchedConfig& config,
                                        std::shared_ptr<DeviceSet> shared) {
  require(shared == nullptr || shared->size() == config.devices.size(),
          "Scheduler: device set size does not match the device specs");
  const bool grows = config.fault != nullptr && !config.fault->growths.empty();
  if (shared == nullptr || grows)
    return std::make_shared<DeviceSet>(config.annealer, config.devices);
  return shared;
}

/// Qubits per device, for checking a fault plan's ids against the pool.
std::vector<std::size_t> device_qubits(const DeviceSet& devices) {
  std::vector<std::size_t> qubits;
  for (std::size_t d = 0; d < devices.size(); ++d)
    qubits.push_back(devices.graph(d).num_qubits());
  return qubits;
}

}  // namespace

void Scheduler::validate(const SchedConfig& config) {
  require(config.num_anneals >= 1, "Scheduler: need at least one anneal");
  require(config.program_overhead_us >= 0.0,
          "Scheduler: negative program overhead");
  config.annealer.schedule.validate();
  require(!config.annealer.schedule.reverse,
          "Scheduler: reverse annealing is single-problem only");
  require(config.warm_num_anneals <= config.num_anneals,
          "Scheduler: the warm quota is a CUT of the cold quota");
  // Checked even when warm_start is off, so a config error surfaces
  // immediately.
  warm_schedule(config).validate();
}

double Scheduler::wave_service_us(const SchedConfig& config) {
  return config.program_overhead_us +
         static_cast<double>(config.num_anneals) *
             config.annealer.schedule.duration_us();
}

anneal::Schedule Scheduler::warm_schedule(const SchedConfig& config) {
  anneal::Schedule schedule = config.annealer.schedule;
  schedule.reverse = true;
  schedule.reverse_depth = config.warm_reverse_depth;
  return schedule;
}

std::size_t Scheduler::warm_quota(const SchedConfig& config) {
  return config.warm_num_anneals > 0 ? config.warm_num_anneals
                                     : config.num_anneals;
}

// The fault stream family is keyed by the PLAN's own seed, never by
// config.seed's root, so attaching a plan keeps every decode and warm
// stream bit-compatible with history.
Scheduler::Scheduler(SchedConfig config, std::shared_ptr<DeviceSet> devices)
    : config_(checked(std::move(config))),
      devices_(serving_pool(config_, std::move(devices))),
      faults_(config_.fault, device_qubits(*devices_)),
      executor_(config_, *devices_) {
  for (std::size_t d = 0; d < devices_->size(); ++d)
    free_devices_.emplace(0.0, d);
}

double Scheduler::warm_wave_service_us() const {
  return config_.program_overhead_us +
         static_cast<double>(warm_quota()) *
             config_.annealer.schedule.duration_us();
}

std::size_t Scheduler::submit(serve::CellJob job) {
  require(job.arrival_us >= now_us_,
          "Scheduler::submit: jobs must arrive in non-decreasing order");
  // Without a fault plan the pool never changes, so an unservable shape is
  // the caller's error.  Under one, a defect growth may eat the last
  // embedding mid-run, so servability is judged after every growth at or
  // before the arrival has been applied, and an unservable job rides
  // the fallback ladder below instead of throwing.
  if (!faults_.active() && devices_->max_capacity(job.shape()) == 0)
    throw CapacityError("Scheduler::submit: no device can embed shape " +
                        std::to_string(job.shape()));
  advance_to(job.arrival_us);
  now_us_ = job.arrival_us;
  // advance_to runs only the rounds strictly before the arrival; a growth
  // AT the arrival would be applied after this returns.  Drain the fault
  // events due by the arrival now, as the next round would before any
  // decision at that instant, so such a growth strands the job here.
  if (faults_.has_growths()) process_faults(job.arrival_us);
  const bool servable =
      !faults_.active() || devices_->max_capacity(job.shape()) > 0;

  const std::size_t seq = jobs_.size();
  serve::JobRecord record;
  record.job_id = job.id;
  record.user = job.user;
  record.direction = job.direction();
  record.arrival_us = job.arrival_us;
  record.deadline_us = job.deadline_us;
  // Coherence chains reference predecessors by JOB id; map to sequence
  // numbers so warm dispatch can find the prior record.
  if (config_.warm_start && !job.downlink()) id_to_seq_[job.id] = seq;
  records_.push_back(record);
  states_.push_back(JobState::kQueued);
  job_ready_us_.push_back(0.0);
  job_retries_.push_back(0);
  jobs_.push_back(std::move(job));
  if (!servable)
    finalize(seq, Miss::kFailed, jobs_[seq].arrival_us, jobs_[seq].arrival_us);
  return seq;
}

void Scheduler::advance_to(double horizon_us) {
  while (round(horizon_us)) {
  }
}

void Scheduler::finish() {
  advance_to(kInfinity);
  require(admit_cursor_ == jobs_.size() && pending_.empty(),
          "Scheduler::finish: undispatched jobs remain");
  executor_.execute_due(kInfinity, waves_, jobs_, records_);
}

// One dispatch attempt for the earliest-free device — the PR-3 event loop's
// body, generalized with policy ordering and shape-aware routing.  The
// round's effective time never reaches `horizon_us`: every arrival a round
// could admit has already been submitted, which is what makes the async
// timeline identical to a batch run of the same workload.
bool Scheduler::round(double horizon_us) {
  if (free_devices_.empty()) return false;
  const auto [freed_us, device] = free_devices_.top();
  free_devices_.pop();
  double t_free = freed_us;
  bool finalized = false;  // process_faults ended a job

  while (true) {
    // An idle device jumps to the next submitted arrival or the next fault
    // event — whichever comes first, so fault processing stays globally
    // time-ordered against every dispatch decision.
    if (pending_.empty()) {
      double next = kInfinity;
      if (admit_cursor_ < jobs_.size())
        next = jobs_[admit_cursor_].arrival_us;
      next = std::min(next, faults_.next_us());
      if (next == kInfinity) {
        // A round whose fault processing finalized a job re-queues its
        // device at t_free, not freed_us: device tie-breaking depends on it.
        free_devices_.emplace(finalized ? t_free : freed_us, device);
        return finalized;
      }
      t_free = std::max(t_free, next);
    }
    if (t_free >= horizon_us) {
      // Re-queue at the ORIGINAL free time, not the jumped one: a round
      // that does nothing must change nothing, or device tie-breaking
      // would depend on how many advance_to() calls a driver happens to
      // make (bench drivers advance once per release on top of submit()'s
      // internal advance, the streaming client only via submit()) — and
      // the async == batch contract would break the moment two devices go
      // free at the same instant (tests/sched_property_test.cpp caught
      // exactly this).
      free_devices_.emplace(freed_us, device);
      return false;
    }

    // Apply the fault timeline up to this instant: defect growth, outage
    // boundaries, failed waves' retry/fallback ladders (which may re-queue
    // members into pending_).  Every event <= t_free is processed
    // before any decision at t_free, in (time, insertion) order — the same
    // order in every driver, whatever its advance_to() cadence.
    if (process_faults(t_free)) finalized = true;

    // A device inside an outage window serves nothing until it ends.
    const double up_us = faults_.up_at(device, t_free);
    if (up_us > t_free) {
      free_devices_.emplace(up_us, device);
      return true;
    }

    // Admit everything released by t_free, then shed doomed jobs (the doom
    // sweep also runs with a fallback configured — doomed jobs are served
    // classically instead of dropped).
    admit_up_to(t_free);
    if (config_.drop_late || config_.fallback != fault::FallbackMode::kNone) {
      const std::size_t before = pending_.size();
      sweep_doomed(t_free);
      if (pending_.empty() && before > 0) {
        // The sweep emptied the queue: requeue the device and let the next
        // round (any device) jump forward.
        free_devices_.emplace(t_free, device);
        return true;
      }
    }
    if (pending_.empty()) continue;  // nothing admitted yet; jump again

    // Shape-aware routing: seed with the policy-best pending job whose
    // shape this device can embed.
    std::size_t seed_seq = jobs_.size();
    bool found = false;
    for (const std::size_t seq : pending_) {
      if (!devices_->fits(device, jobs_[seq].shape())) continue;
      if (!found || policy_before(seq, seed_seq, t_free)) {
        seed_seq = seq;
        found = true;
      }
    }
    if (!found) {
      // Every pending job needs some other device; park until the next
      // admission re-arms us.
      parked_.emplace_back(t_free, device);
      return true;
    }

    dispatch_wave(device, t_free, seed_seq);
    return true;
  }
}

void Scheduler::admit_up_to(double t_us) {
  bool admitted = false;
  while (admit_cursor_ < jobs_.size() &&
         jobs_[admit_cursor_].arrival_us <= t_us) {
    const std::size_t seq = admit_cursor_++;
    // submit() may have finalized a staged job already (shape unservable on
    // arrival under a fault plan) — never re-admit a resolved job.
    if (states_[seq] != JobState::kQueued) continue;
    // Defect growth between staging and admission may have eaten the last
    // embedding for this shape; resolve at admission instead of routing.
    if (faults_.has_growths() &&
        devices_->max_capacity(jobs_[seq].shape()) == 0) {
      finalize(seq, Miss::kFailed, jobs_[seq].arrival_us,
               jobs_[seq].arrival_us);
      continue;
    }
    pending_.push_back(seq);
    admitted = true;
  }
  if (admitted) rearm_parked();
}

void Scheduler::rearm_parked() {
  for (const Device& d : parked_) free_devices_.push(d);
  parked_.clear();
}

void Scheduler::prune_pending() {
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](std::size_t seq) {
                                  return states_[seq] != JobState::kQueued;
                                }),
                 pending_.end());
}

// Deadline-aware admission (ServiceConfig::drop_late and the fallback
// ladder): every queued job that even immediate service — starting at
// start_at(seq, t_free) — can no longer save is shed.  With a fallback
// configured a doomed job completes classically RIGHT NOW instead of
// dropping (the degraded-mode guarantee; fallback wins over drop_late).
// Scans the whole queue, so it is correct for heterogeneous per-job budgets
// (HARQ class mixes).
void Scheduler::sweep_doomed(double t_free_us) {
  const double service_us = wave_service_us();
  for (const std::size_t seq : pending_) {
    const double start_us = start_at(seq, t_free_us);
    if (jobs_[seq].deadline_us < start_us + service_us)
      finalize(seq, Miss::kDropped, start_us, start_us);
  }
  prune_pending();
}

bool Scheduler::process_faults(double t_us) {
  bool finalized = false;
  while (const std::optional<fault::Timeline::Event> ev =
             faults_.pop_due(t_us)) {
    switch (ev->kind) {
      case fault::Timeline::Kind::kOutageEdge:
        break;  // up_at/abort_us read the windows; the pop woke the device

      case fault::Timeline::Kind::kGrowth: {
        const fault::DefectGrowth& growth = faults_.plan().growths[ev->index];
        // Flush every decode due by the growth instant FIRST: those waves
        // annealed on the pre-growth topology and must sample it.
        executor_.execute_due(growth.time_us, waves_, jobs_, records_);
        devices_->grow_defects(growth.device, growth.qubits);
        // Pending jobs whose shape the shrunken pool can no longer embed
        // anywhere resolve now (fallback or terminal failure).
        for (const std::size_t seq : pending_) {
          if (devices_->max_capacity(jobs_[seq].shape()) > 0) continue;
          const double at = std::max(growth.time_us, jobs_[seq].arrival_us);
          finalize(seq, Miss::kFailed, at, at);
          finalized = true;
        }
        prune_pending();
        break;
      }
      case fault::Timeline::Kind::kWaveFail: {
        // The failed wave's members (in sequence order — canonical wave
        // membership order) ride the retry/fallback ladder.
        const serve::Wave& wave = waves_[ev->index];
        bool requeued = false;
        for (const std::size_t seq : wave.jobs) {
          if (states_[seq] != JobState::kInFlight) continue;
          ++job_retries_[seq];
          const double ready = wave.fail_us + config_.retry_backoff_us;
          const bool budget_ok =
              job_retries_[seq] <= config_.max_retries &&
              devices_->max_capacity(jobs_[seq].shape()) > 0;
          const bool slack_ok =
              jobs_[seq].deadline_us >= ready + wave_service_us();
          // Retry while the budget lasts; with a fallback configured only
          // retries that can still make the deadline are worth burning
          // device time on — otherwise degrade immediately.  Without one,
          // a doomed retry is still the job's best remaining shot.
          if (budget_ok &&
              (config_.fallback == fault::FallbackMode::kNone || slack_ok)) {
            states_[seq] = JobState::kQueued;
            job_ready_us_[seq] = ready;
            pending_.insert(
                std::lower_bound(pending_.begin(), pending_.end(), seq), seq);
            requeued = true;
            continue;
          }
          finalize(seq, Miss::kFailed, wave.dispatch_us, wave.fail_us);
          finalized = true;
        }
        if (requeued) rearm_parked();
        break;
      }
    }
  }
  return finalized;
}

void Scheduler::finalize(std::size_t seq, Miss miss, double dispatch_us,
                         double t_us) {
  const serve::CellJob& job = jobs_[seq];
  serve::JobRecord& record = records_[seq];
  record.retries = job_retries_[seq];
  record.dispatch_us = dispatch_us;
  record.completion_us = t_us;
  states_[seq] = JobState::kFinalized;
  undelivered_.emplace(t_us, seq);
  if (config_.fallback != fault::FallbackMode::kNone) {
    const fault::ClassicalDecode decode =
        fault::classical_decode(job, config_.fallback);
    record.fallback = true;
    record.bit_errors = decode.bit_errors;
    record.num_bits = decode.num_bits;
  } else {
    (miss == Miss::kDropped ? record.dropped : record.failed) = true;
  }
}

bool Scheduler::warm_eligible(std::size_t seq, double t_free_us) const {
  if (!config_.warm_start) return false;
  const serve::CellJob& job = jobs_[seq];
  if (job.downlink() || !job.predecessor.has_value()) return false;
  const auto it = id_to_seq_.find(*job.predecessor);
  if (it == id_to_seq_.end()) return false;
  const std::size_t pred = it->second;
  // A dropped predecessor was never decoded; a downlink one (possible only
  // if a driver recycled ids) leaves no spin configuration either.
  if (states_[pred] != JobState::kDispatched) return false;
  if (records_[pred].direction != serve::Direction::kUplink) return false;
  // A seed can only start a problem of the same variable count (coherent
  // chains guarantee this; arbitrary drivers may not).
  if (jobs_[pred].shape() != jobs_[seq].shape()) return false;
  // The seed exists at this dispatch instant only if the predecessor's
  // wave completed by it on the VIRTUAL clock.  (The wave's decode may
  // still be pending on the wall clock — the executor orders it first.)
  return records_[pred].completion_us <= t_free_us;
}

bool Scheduler::policy_before(std::size_t a, std::size_t b, double t_us) const {
  switch (config_.policy) {
    case QueuePolicy::kFifo:
      return a < b;
    case QueuePolicy::kEdf: {
      const double da = jobs_[a].deadline_us;
      const double db = jobs_[b].deadline_us;
      if (da != db) return da < db;
      return a < b;
    }
    case QueuePolicy::kSlack: {
      // Feasible jobs (still able to meet their deadline from this dispatch
      // instant) come first, in deadline order; doomed jobs defer to the
      // back rather than burn device time ahead of winnable work.
      const double service_us = wave_service_us();
      const auto doomed = [&](std::size_t seq) {
        return jobs_[seq].deadline_us < start_at(seq, t_us) + service_us;
      };
      const bool doomed_a = doomed(a);
      const bool doomed_b = doomed(b);
      if (doomed_a != doomed_b) return !doomed_a;
      const double da = jobs_[a].deadline_us;
      const double db = jobs_[b].deadline_us;
      if (da != db) return da < db;
      return a < b;
    }
  }
  return a < b;
}

void Scheduler::dispatch_wave(std::size_t device, double t_free_us,
                              std::size_t seed_seq) {
  const std::size_t shape = jobs_[seed_seq].shape();
  const std::size_t cap =
      clamp_wave_jobs(devices_->capacity(device, shape), config_.packing,
                      config_.max_wave_jobs);
  // Warmness homogeneity: the whole wave runs ONE anneal program (one
  // schedule, one quota), so only jobs matching the seed job's warmness at
  // this instant may fill it; the others stay queued for a later wave.
  const bool warm = warm_eligible(seed_seq, t_free_us);

  // Fill with the policy-best same-shape jobs (the seed is one of them).
  std::vector<std::size_t> same_shape;
  for (const std::size_t seq : pending_)
    if (jobs_[seq].shape() == shape &&
        warm_eligible(seq, t_free_us) == warm)
      same_shape.push_back(seq);
  std::sort(same_shape.begin(), same_shape.end(),
            [&](std::size_t a, std::size_t b) {
              return policy_before(a, b, t_free_us);
            });
  if (same_shape.size() > cap) same_shape.resize(cap);
  // Wave membership is recorded in sequence order whatever the policy, so
  // the wave log (and the job -> sample mapping) has one canonical form.
  std::sort(same_shape.begin(), same_shape.end());

  serve::Wave wave;
  wave.id = waves_.size();
  wave.shape = shape;
  wave.device = device;
  wave.jobs = same_shape;
  wave.warm = warm;
  if (warm)
    for (const std::size_t seq : wave.jobs)
      wave.seeds.push_back(id_to_seq_.at(*jobs_[seq].predecessor));
  // Causality under multiple devices: members admitted at another device's
  // clock may arrive in THIS device's future (and a retried member may
  // still be inside its backoff); the wave starts no earlier than every
  // member's earliest legal start.
  wave.dispatch_us = t_free_us;
  for (const std::size_t seq : wave.jobs)
    wave.dispatch_us = std::max(wave.dispatch_us, start_at(seq, t_free_us));
  wave.completion_us =
      wave.dispatch_us + (warm ? warm_wave_service_us() : wave_service_us());
  // program_overhead_us covers programming + readout, so it brackets the
  // anneal span half-and-half.
  const double half_overhead = config_.program_overhead_us / 2.0;
  const double readout_start_us = wave.completion_us - half_overhead;

  // Fault pre-decision: the wave's fate is fixed AT DISPATCH on the virtual
  // clock (the fail instant is a pure function of the plan and the wave id),
  // so the executor never sees failed waves and the wall clock stays
  // fault-blind.
  const double fail = faults_.abort_us(device, wave.id, wave.dispatch_us,
                                       readout_start_us, wave.completion_us);
  if (fail <= wave.completion_us) {
    wave.failed = true;
    wave.fail_us = fail;
  }

  // A failed wave yields no samples: members go in-flight until the
  // kWaveFail event at the abort instant runs their retry/fallback ladder.
  // No completion record, no delivery — on the virtual clock nothing has
  // been promised yet.
  for (const std::size_t seq : wave.jobs) {
    records_[seq].wave_id = wave.id;
    if (wave.failed) {
      states_[seq] = JobState::kInFlight;
      continue;
    }
    records_[seq].retries = job_retries_[seq];
    records_[seq].dispatch_us = wave.dispatch_us;
    records_[seq].completion_us = wave.completion_us;
    states_[seq] = JobState::kDispatched;
    undelivered_.emplace(wave.completion_us, seq);
  }
  prune_pending();

  // The device idles from t_free to the (possibly later) dispatch, and is
  // occupied only until the abort when the wave fails.
  if (wave.failed)
    faults_.push_wave_fail(wave.fail_us, wave.id);
  else
    executor_.queue(wave);
  free_devices_.emplace(wave.failed ? wave.fail_us : wave.completion_us,
                        device);
  waves_.push_back(std::move(wave));
}

std::vector<std::size_t> Scheduler::collect(double t) {
  // Decode first: every record popped below with completion <= t belongs
  // to a wave executed just now (or earlier) or to a drop.
  executor_.execute_due(t, waves_, jobs_, records_);
  std::vector<std::size_t> done;
  while (!undelivered_.empty() && undelivered_.top().first <= t) {
    done.push_back(undelivered_.top().second);
    undelivered_.pop();
  }
  // Heap pop order IS (completion time, seq) — no sort needed.
  return done;
}

}  // namespace quamax::sched
