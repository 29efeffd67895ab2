// Walkthrough: a centralized-RAN decode service on measured-like traffic
// (paper §2 deployment story + §5.5 trace evaluation, served end to end).
//
// Part 1 — batch service: a base-station cluster submits one QPSK
// detection job per user per LTE subframe, with channels drawn from the
// synthetic Argos-like 96-antenna trace campaign.  A pool of --devices
// modeled QA processors decodes the cluster under the --queue-policy
// dispatch discipline: jobs queue, the scheduler packs same-shape jobs into
// chip waves, and every job's queueing/service/total latency is scored
// against a HARQ-style deadline.  The run then repeats with packing
// disabled to show what §4 parallelization buys a serving system.
//
// Part 2 — async streaming (quamax::sched): the same front-end drives a
// sched::Scheduler directly instead of a batch run: submit() returns a
// sequence number per job as each subframe is released, collect(now)
// surfaces completions due by the virtual clock, and finish() plus
// collect(+inf) drains the tail — the streaming API a RAN front-end would
// actually speak.  The records stream back bit-identical to the batch
// run's.
//
// All output derives from the virtual clock + counter-derived streams:
// re-running at any --threads / --replicas setting prints identical text.
//
// Observability (serve::RunObserver): `--trace FILE` records the packing-ON
// run as a Chrome trace, `--prof` / `--prof-json FILE` profile the compute
// stages, and `--metrics FILE` exports the windowed series.  The packing-ON
// run is always windowed: the walkthrough prints its per-window miss-rate
// series plus any SLO burn-rate alerts (spec `miss_rate<=0.05` unless
// `--slo SPEC`).  File notices go to stderr and stdout stays byte-identical
// observed or not; a failed write makes the exit code non-zero.

#include <cstdio>
#include <limits>
#include <vector>

#include "quamax/sched/scheduler.hpp"
#include "quamax/serve/load_gen.hpp"
#include "quamax/serve/observe.hpp"
#include "quamax/serve/service.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  using sim::Knob;
  // Kernel knobs over the serving defaults, so threshold32 stays the
  // default acceptance rule.
  serve::ServiceConfig cfg;
  cfg.annealer = sim::annealer_config(argc, argv, cfg.annealer);
  cfg.num_threads = cfg.annealer.num_threads;
  const auto devices = sim::knob<std::size_t>(Knob::kDevices, argc, argv);
  const sched::QueuePolicy policy = sched::parse_queue_policy(
      sim::knob<std::string>(Knob::kQueuePolicy, argc, argv));
  // The packing-ON run is always windowed, under --slo or this default.
  serve::RunObserver observer(argc, argv, "miss_rate<=0.05");

  const std::size_t num_jobs = sim::scaled(160);
  sim::print_banner("C-RAN decode service walkthrough",
                    "serve + sched subsystems on trace-driven subframe traffic",
                    "8 users x QPSK over Argos-like traces, " +
                        std::to_string(num_jobs) + " jobs, 1 ms subframes, " +
                        std::to_string(devices) + " device(s), " +
                        sched::to_string(policy) + " queue");

  // Traffic: one job per user per 1 ms subframe, channels from the trace
  // campaign, 600 us decode deadline (a HARQ-tight budget).
  serve::LoadConfig load;
  load.arrivals = serve::ArrivalKind::kSubframe;
  load.subframe_period_us = 1000.0;
  load.users = 8;
  load.deadline_us = 600.0;
  load.trace_channels = true;
  load.trace_pick = 8;
  load.trace_mod = wireless::Modulation::kQpsk;

  // Service: the paper's 2000Q-like chip, 1 us anneals, 40 anneals per wave.
  cfg.annealer.schedule.anneal_time_us = 1.0;
  cfg.annealer.embed.improved_range = true;  // §5.5 trace setting
  cfg.num_anneals = sim::scaled(40);
  cfg.num_devices = devices;
  cfg.queue_policy = policy;
  cfg.program_overhead_us = 10.0;

  for (const bool packing : {true, false}) {
    serve::ServiceConfig run_cfg = cfg;
    run_cfg.packing = packing;
    serve::DecodeService service(run_cfg);
    serve::LoadGenerator generator(load, 0xA2905);
    const serve::ServiceReport report =
        service.run(generator.open_loop(num_jobs));
    // Observe the packing-ON run: its wave structure (8 jobs folded into one
    // chip wave per subframe) is the interesting picture, and the windowed
    // series below is derived from its trace.  The trace is derived after
    // the run, so the walkthrough prints identical text with or without
    // --trace / --metrics.
    if (packing) observer.observe(run_cfg, report);

    std::printf("\n=== packing %s ===\n", packing ? "ON" : "OFF");
    std::printf("capacity for QPSK shape %zu: %zu jobs/wave; wave service %.1f us\n",
                std::size_t{16}, service.wave_capacity(16),
                service.wave_service_us());
    std::printf("%s", report.stats.digest().c_str());

    if (packing) {
      std::printf("\nfirst subframe, job by job:\n");
      sim::print_columns(
          {"job", "user", "arrive us", "dispatch us", "done us", "wave", "errs"});
      for (std::size_t j = 0; j < std::min<std::size_t>(8, report.jobs.size());
           ++j) {
        const serve::JobRecord& rec = report.jobs[j];
        sim::print_row({sim::fmt_count(rec.job_id), sim::fmt_count(rec.user),
                        sim::fmt_us(rec.arrival_us), sim::fmt_us(rec.dispatch_us),
                        sim::fmt_us(rec.completion_us),
                        sim::fmt_count(rec.wave_id),
                        sim::fmt_count(rec.bit_errors)});
      }

      // Windowed telemetry (obs v2): tumble the traced event stream into
      // fixed virtual-clock windows and evaluate the SLO spec with
      // multi-window burn-rate alerting.  Alerts are also injected into the
      // trace (their own "slo alerts" track when --trace is set).
      const serve::WindowedView& view = observer.view();
      std::printf("\nwindowed miss-rate series (window %.0f us, SLO %s):\n",
                  view.collector.width_us(), observer.slo().c_str());
      sim::print_columns({"window", "t [ms]", "miss rate", "completed",
                          "queue", "occupancy", "watts", "p99 [us]"});
      for (const auto& w : view.collector.windows()) {
        sim::print_row({std::to_string(w.index),
                        sim::fmt_double(w.start_us / 1000.0, 1),
                        sim::fmt_double(w.miss_rate, 3),
                        std::to_string(w.completed),
                        std::to_string(w.queue_depth),
                        sim::fmt_double(w.occupancy, 2),
                        sim::fmt_double(w.watts, 0),
                        sim::fmt_double(w.latency.quantile(99.0), 0)});
      }
      std::size_t alerts = 0;
      for (const auto& report : view.slos) {
        for (const auto& alert : report.alerts) {
          ++alerts;
          std::printf("ALERT %s window %zu [%.0f, %.0f) us: value %.4f "
                      "(long %.4f), burn %.2fx\n",
                      alert.slo.c_str(), alert.window, alert.start_us,
                      alert.end_us, alert.value, alert.long_value, alert.burn);
        }
      }
      if (alerts == 0)
        std::printf("no SLO alerts: every window held %s\n",
                    observer.slo().c_str());
      const auto& totals = view.collector.totals();
      std::printf("energy accounting: %.3f J over the run, %.6f J per "
                  "decoded bit\n",
                  totals.energy_j, totals.joules_per_bit);
    }
  }

  // -------------------------------------------------------------------
  // Async streaming: the same subframe traffic through Scheduler::submit.
  // Each subframe's jobs are submitted as they release; collect(now) after
  // each subframe returns whatever the pool finished by then.
  std::printf("\n=== async streaming (sched::Scheduler) ===\n");
  sched::SchedConfig async_cfg;
  async_cfg.annealer = cfg.annealer;
  async_cfg.devices = sched::uniform_devices(cfg.annealer, devices);
  async_cfg.policy = policy;
  async_cfg.num_anneals = cfg.num_anneals;
  async_cfg.num_threads = cfg.num_threads;
  async_cfg.program_overhead_us = cfg.program_overhead_us;
  async_cfg.seed = cfg.seed;
  sched::Scheduler scheduler(async_cfg);

  serve::LoadGenerator stream_gen(load, 0xA2905);
  const std::size_t async_jobs = std::min<std::size_t>(num_jobs, 32);
  const std::vector<serve::CellJob> stream = stream_gen.open_loop(async_jobs);

  std::size_t submitted = 0, polled = 0, errors = 0;
  const auto count_errors = [&](const std::vector<std::size_t>& done) {
    for (const std::size_t seq : done)
      errors += scheduler.records()[seq].bit_errors;
  };
  double last_subframe = 0.0;
  for (const serve::CellJob& job : stream) {
    if (job.arrival_us > last_subframe) {
      // Subframe boundary: collect everything the pool completed so far.
      const std::vector<std::size_t> done =
          scheduler.collect(scheduler.now_us());
      polled += done.size();
      count_errors(done);
      std::printf("t = %7.0f us: polled %zu completion(s), %zu in flight\n",
                  last_subframe, done.size(), submitted - polled);
      last_subframe = job.arrival_us;
    }
    scheduler.submit(job);
    ++submitted;
  }
  scheduler.finish();
  const std::vector<std::size_t> tail =
      scheduler.collect(std::numeric_limits<double>::infinity());
  polled += tail.size();
  count_errors(tail);
  std::printf("drain: %zu remaining completion(s); total %zu/%zu jobs, "
              "%zu bit errors\n",
              tail.size(), polled, async_jobs, errors);

  std::printf(
      "\nReading: with packing ON, the 8 users of each subframe share one\n"
      "chip wave, so the whole cluster decodes in one anneal batch and the\n"
      "deadline holds with a wide margin; with packing OFF each job queues\n"
      "behind its neighbors' full service times — the §4 parallelization is\n"
      "what makes one annealer a plausible cluster-scale decode appliance.\n"
      "The async client streams the identical schedule: submit() as\n"
      "subframes release, poll() per subframe, drain() at end of stream.\n");

  return observer.finish();
}
