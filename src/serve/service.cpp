#include "quamax/serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/sched/scheduler.hpp"

namespace quamax::serve {

// ---------------------------------------------------------------------------
// Arrival feeds: where the event loop's jobs come from.

/// The timeline engine pulls jobs through this interface so open- and
/// closed-loop traffic share one discrete-event loop.  `empty()` means no
/// further job will EVER be released; `next_time()` is the next release
/// instant — +infinity when no release is scheduled YET (closed loop:
/// every pending release is in flight until its wave's on_dispatch);
/// `pop(index)` materializes that job (the engine stores it at `index`);
/// `on_dispatch` tells the feed when a job's wave will complete (the
/// closed-loop feedback edge; dropped jobs report their drop time).
class DecodeService::ArrivalFeed {
 public:
  virtual ~ArrivalFeed() = default;
  virtual bool empty() const = 0;
  virtual double next_time() const = 0;
  virtual CellJob pop(std::size_t index) = 0;
  virtual void on_dispatch(const CellJob& job, double completion_us) {
    (void)job;
    (void)completion_us;
  }
};

/// Pre-materialized workload sorted by arrival time.
class DecodeService::OpenLoopFeed final : public DecodeService::ArrivalFeed {
 public:
  explicit OpenLoopFeed(std::vector<CellJob> jobs) : jobs_(std::move(jobs)) {
    std::stable_sort(jobs_.begin(), jobs_.end(),
                     [](const CellJob& a, const CellJob& b) {
                       return a.arrival_us < b.arrival_us;
                     });
  }
  bool empty() const override { return cursor_ >= jobs_.size(); }
  double next_time() const override { return jobs_[cursor_].arrival_us; }
  CellJob pop(std::size_t index) override {
    (void)index;
    return std::move(jobs_[cursor_++]);
  }

 private:
  std::vector<CellJob> jobs_;
  std::size_t cursor_ = 0;
};

/// Fixed user population; user u's next release is its previous job's wave
/// completion plus the think time.  Release ties break on the user id, so
/// the admission order — and with it the whole run — is deterministic.
class DecodeService::ClosedLoopFeed final : public DecodeService::ArrivalFeed {
 public:
  ClosedLoopFeed(LoadGenerator& generator, std::size_t num_jobs)
      : generator_(&generator), target_(num_jobs) {
    for (std::size_t u = 0; u < generator.config().users; ++u)
      releases_.emplace(0.0, u);
  }
  bool empty() const override { return issued_ >= target_; }
  double next_time() const override {
    return releases_.empty() ? std::numeric_limits<double>::infinity()
                             : releases_.top().first;
  }
  CellJob pop(std::size_t index) override {
    (void)index;
    require(!releases_.empty(), "ClosedLoopFeed: no release scheduled");
    const auto [release_us, user] = releases_.top();
    releases_.pop();
    return generator_->job(issued_++, user, release_us);
  }
  void on_dispatch(const CellJob& job, double completion_us) override {
    if (issued_ < target_)
      releases_.emplace(completion_us + generator_->config().think_time_us,
                        job.user);
  }

 private:
  using Release = std::pair<double, std::size_t>;  ///< (time, user)
  LoadGenerator* generator_;
  std::size_t target_;
  std::size_t issued_ = 0;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> releases_;
};

// ---------------------------------------------------------------------------
// Service.

DecodeService::DecodeService(ServiceConfig config) : config_(std::move(config)) {
  require(config_.num_devices >= 1, "DecodeService: need at least one device");
  sched::Scheduler::validate(sched_config());
  if (config_.device_specs.empty())
    config_.device_specs =
        sched::uniform_devices(config_.annealer, config_.num_devices);
  config_.num_devices = config_.device_specs.size();
  // The device pool (per-device chip graphs + embedding caches) persists
  // across runs; every run's scheduler shares it.
  devices_ = std::make_shared<sched::DeviceSet>(config_.annealer,
                                                config_.device_specs);
}

sched::SchedConfig DecodeService::sched_config() const {
  sched::SchedConfig cfg;
  cfg.annealer = config_.annealer;
  cfg.devices = config_.device_specs;
  cfg.policy = config_.queue_policy;
  cfg.num_anneals = config_.num_anneals;
  cfg.program_overhead_us = config_.program_overhead_us;
  cfg.packing = config_.packing;
  cfg.max_wave_jobs = config_.max_wave_jobs;
  cfg.drop_late = config_.drop_late;
  cfg.num_threads = config_.num_threads;
  cfg.seed = config_.seed;
  cfg.warm_start = config_.warm_start;
  cfg.warm_reverse_depth = config_.warm_reverse_depth;
  cfg.warm_num_anneals = config_.warm_num_anneals;
  cfg.fault = config_.fault;
  cfg.max_retries = config_.max_retries;
  cfg.retry_backoff_us = config_.retry_backoff_us;
  cfg.fallback = config_.fallback;
  cfg.trace = config_.trace;
  return cfg;
}

std::size_t DecodeService::wave_capacity(std::size_t shape) {
  const std::size_t chip = devices_->max_capacity(shape);
  if (chip == 0)
    throw CapacityError("DecodeService: no device can embed shape " +
                        std::to_string(shape));
  return sched::clamp_wave_jobs(chip, config_.packing, config_.max_wave_jobs);
}

double DecodeService::wave_service_us() const {
  return sched::Scheduler::wave_service_us(sched_config());
}

ServiceReport DecodeService::run(std::vector<CellJob> jobs) {
  OpenLoopFeed feed(std::move(jobs));
  return serve(feed);
}

ServiceReport DecodeService::run_closed_loop(LoadGenerator& generator,
                                             std::size_t num_jobs) {
  ClosedLoopFeed feed(generator, num_jobs);
  return serve(feed);
}

// Drive the sched::Scheduler's discrete-event timeline from the feed.  The
// scheduler owns WHEN everything happens (and what each wave contains) and
// runs the decode compute on its lane-local, device-affine workers; this
// loop only moves releases from the feed into the scheduler in arrival
// order, never letting the engine dispatch past the next known release —
// which is what keeps every latency number a pure function of
// (config, workload), exactly as the PR-3 in-line event loop did.
ServiceReport DecodeService::serve(ArrivalFeed& feed) {
  ServiceReport report;
  if (feed.empty()) return report;

  sched::Scheduler scheduler(sched_config(), devices_);
  scheduler.set_dispatch_hook(
      [&feed](const CellJob& job, double completion_us) {
        feed.on_dispatch(job, completion_us);
      });

  while (!feed.empty()) {
    const double next_us = feed.next_time();
    // An idle feed with jobs still owed (closed loop: every pending release
    // in flight) needs a dispatch to schedule the next release.
    if (!std::isfinite(next_us)) {
      require(scheduler.advance_until_dispatch(),
              "DecodeService: idle with no scheduled release");
      continue;
    }
    scheduler.advance_to(next_us);
    // A dispatch hook may have scheduled a release EARLIER than next_us
    // (closed loop with short think times); re-read the feed before popping.
    if (feed.next_time() < next_us) continue;
    scheduler.submit(feed.pop(scheduler.num_submitted()));
  }
  scheduler.finish();

  report.jobs = scheduler.records();
  report.waves = scheduler.waves();
  for (const JobRecord& record : report.jobs) report.stats.add(record);
  for (const Wave& wave : report.waves)
    report.stats.add_wave(wave.jobs.size(), wave.warm,
                          wave.warm ? scheduler.warm_quota()
                                    : config_.num_anneals,
                          wave.failed);
  return report;
}

}  // namespace quamax::serve
