#include "workloads.hpp"

#include <memory>

#include "quamax/common/error.hpp"
#include "quamax/fault/plan.hpp"

namespace quamax::bench {
namespace {

/// The service every workload starts from: 1 us anneals without pause and
/// 10 us of programming + readout per wave, one device, FIFO, packing on.
serve::ServiceConfig base_service(std::size_t num_anneals) {
  serve::ServiceConfig cfg;
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.schedule.pause_time_us = 0.0;
  cfg.num_anneals = num_anneals;
  cfg.program_overhead_us = 10.0;
  return cfg;
}

sim::ProblemClass uplink_class(std::size_t users, wireless::Modulation mod,
                               wireless::ChannelKind kind, double snr_db) {
  sim::ProblemClass cls;
  cls.users = users;
  cls.mod = mod;
  cls.kind = kind;
  cls.snr_db = snr_db;
  return cls;
}

serve::LoadConfig poisson_load(double jobs_per_ms, double deadline_us,
                               const sim::ProblemClass& problem) {
  serve::LoadConfig load;
  load.arrivals = serve::ArrivalKind::kPoisson;
  load.offered_load_jobs_per_ms = jobs_per_ms;
  load.users = 8;
  load.deadline_us = deadline_us;
  load.problem = problem;
  return load;
}

void uplink_saturated(Workload& w) {
  w.load = poisson_load(180.0, 500.0,
                        uplink_class(8, wireless::Modulation::kQpsk,
                                     wireless::ChannelKind::kRayleigh, 20.0));
  w.service = base_service(40);
  w.max_ber = 0.01;
}

void paper_bpsk48(Workload& w) {
  w.load = poisson_load(40.0, 500.0,
                        uplink_class(48, wireless::Modulation::kBpsk,
                                     wireless::ChannelKind::kRayleigh, 20.0));
  w.service = base_service(10);
  w.max_ber = 0.1;
}

void trace_subframe(Workload& w) {
  // examples/cran_service's traffic at a 100 us subframe period.
  w.load.arrivals = serve::ArrivalKind::kSubframe;
  w.load.subframe_period_us = 100.0;
  w.load.users = 8;
  w.load.deadline_us = 600.0;
  w.load.trace_channels = true;
  w.load.trace_pick = 8;
  w.load.trace_mod = wireless::Modulation::kQpsk;
  w.service = base_service(20);
  w.service.annealer.embed.improved_range = true;
  w.max_ber = 0.01;
}

void warm_coherent(Workload& w) {
  w.service = base_service(16);
  w.service.warm_start = true;
  w.service.warm_num_anneals = 4;
  const double cold_wave_us = w.service.program_overhead_us +
                              16.0 * w.service.annealer.schedule.duration_us();
  w.load.arrivals = serve::ArrivalKind::kSubframe;
  w.load.subframe_period_us = 2.0 * cold_wave_us;
  w.load.users = 16;
  w.load.deadline_us = 1000.0;
  w.load.problem = uplink_class(8, wireless::Modulation::kBpsk,
                                wireless::ChannelKind::kRayleigh, 6.0);
  w.load.coherence = 0.9;
  w.max_ber = 0.05;
}

void duplex_storm(Workload& w) {
  constexpr double kJobsPerMs = 120.0;
  constexpr std::size_t kDevices = 4;
  w.service = base_service(16);
  w.service.num_devices = kDevices;
  w.service.queue_policy = sched::QueuePolicy::kEdf;
  w.service.annealer.embed.improved_range = true;
  const double wave_us = w.service.program_overhead_us +
                         16.0 * w.service.annealer.schedule.duration_us();

  w.load = poisson_load(kJobsPerMs, 8.0 * wave_us,
                        uplink_class(8, wireless::Modulation::kBpsk,
                                     wireless::ChannelKind::kRandomPhase, 6.0));
  w.load.downlink_fraction = 0.5;
  w.load.downlink.users = 4;
  w.load.downlink.antennas = 4;
  w.load.downlink.mod = wireless::Modulation::kQpsk;
  w.load.downlink.kind = wireless::ChannelKind::kRayleigh;
  w.load.downlink.snr_db = 18.0;

  // bench_fault's storm: 25% correlated downtime (device 0's windows
  // replicated pool-wide, so routing alone cannot absorb it) with mean
  // outages of six waves, plus 5% injected anneal failures.
  const double horizon_us =
      1.2 * static_cast<double>(w.jobs) / kJobsPerMs * 1000.0;
  auto plan = std::make_shared<fault::FaultPlan>(
      fault::storm_plan(1, horizon_us, 0.25, 6.0 * wave_us, 0xFA11));
  const std::vector<fault::OutageWindow> shared = plan->outages;
  for (std::size_t d = 1; d < kDevices; ++d)
    for (const fault::OutageWindow& window : shared)
      plan->outages.push_back({d, window.start_us, window.end_us});
  plan->anneal_failure_prob = 0.05;
  plan->validate(kDevices);
  w.service.fault = plan;
  w.service.max_retries = 3;
  w.service.retry_backoff_us = 0.5 * wave_us;
  w.service.fallback = fault::FallbackMode::kZf;
  w.max_ber = 0.15;
}

struct Definition {
  const char* name;
  std::uint64_t default_seed;
  std::size_t jobs;
  void (*build)(Workload&);
};

constexpr Definition kDefinitions[] = {
    {"uplink_saturated", 101, 160, uplink_saturated},
    {"paper_bpsk48", 102, 32, paper_bpsk48},
    {"trace_subframe", 103, 256, trace_subframe},
    {"warm_coherent", 104, 4000, warm_coherent},
    {"duplex_storm", 105, 500, duplex_storm},
};

}  // namespace

Workload make_workload(const std::string& name) {
  for (const Definition& d : kDefinitions) {
    if (name != d.name) continue;
    Workload w;
    w.name = d.name;
    w.default_seed = d.default_seed;
    w.jobs = d.jobs;
    d.build(w);
    return w;
  }
  throw InvalidArgument("bench_e2e: unknown workload '" + name + "'");
}

}  // namespace quamax::bench
