#include "quamax/serve/service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/sched/scheduler.hpp"

namespace quamax::serve {

DecodeService::DecodeService(ServiceConfig config) : config_(std::move(config)) {
  require(config_.num_devices >= 1, "DecodeService: need at least one device");
  sched::Scheduler::validate(scheduler_config(config_));
  if (config_.device_specs.empty())
    config_.device_specs =
        sched::uniform_devices(config_.annealer, config_.num_devices);
  config_.num_devices = config_.device_specs.size();
  // The device pool (per-device chip graphs + embedding caches) persists
  // across runs; every run's scheduler shares it.
  devices_ = std::make_shared<sched::DeviceSet>(config_.annealer,
                                                config_.device_specs);
}

sched::SchedConfig scheduler_config(const ServiceConfig& config) {
  sched::SchedConfig cfg;
  cfg.annealer = config.annealer;
  cfg.devices = config.device_specs;
  cfg.policy = config.queue_policy;
  cfg.num_anneals = config.num_anneals;
  cfg.program_overhead_us = config.program_overhead_us;
  cfg.packing = config.packing;
  cfg.max_wave_jobs = config.max_wave_jobs;
  cfg.drop_late = config.drop_late;
  cfg.num_threads = config.num_threads;
  cfg.seed = config.seed;
  cfg.warm_start = config.warm_start;
  cfg.warm_reverse_depth = config.warm_reverse_depth;
  cfg.warm_num_anneals = config.warm_num_anneals;
  cfg.fault = config.fault;
  cfg.max_retries = config.max_retries;
  cfg.retry_backoff_us = config.retry_backoff_us;
  cfg.fallback = config.fallback;
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
  return sched::Scheduler::wave_service_us(scheduler_config(config_));
}

// Submit every job to a sched::Scheduler in arrival order, then finish.  The
// scheduler owns WHEN everything happens (and what each wave contains) and
// runs the decode compute, one annealer per wave on its device's chip; each
// submit() dispatches every round before its arrival, so every latency
// number is a pure function of (config, workload).
ServiceReport DecodeService::run(std::vector<CellJob> jobs) {
  ServiceReport report;
  if (jobs.empty()) return report;
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const CellJob& a, const CellJob& b) {
                     return a.arrival_us < b.arrival_us;
                   });

  sched::Scheduler scheduler(scheduler_config(config_), devices_);
  for (CellJob& job : jobs) scheduler.submit(std::move(job));
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
