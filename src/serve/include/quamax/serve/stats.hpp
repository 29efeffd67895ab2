// Per-job latency and deadline accounting for the decode service.
//
// The feasibility follow-on to the paper (Kasi et al.) makes
// throughput-per-deadline the headline metric of a QA-backed C-RAN: what
// matters is not one problem's TTS but how many jobs per second the
// processor sustains while holding a hard latency budget.  ServiceStats
// aggregates exactly that: queueing / service / total latency distributions
// (p50/p95/p99), the deadline-miss rate, decode quality, and wave occupancy
// (the §4 packing win made visible).
//
// Every number is computed from virtual-clock job records, which are a pure
// function of (config, jobs, seed) — so two runs of the same workload at
// different thread counts produce BIT-IDENTICAL stats (tests/serve_test.cpp
// checks digest equality property-style).
//
// Latency distributions are held in obs::QuantileSketch — O(1) memory per
// metric instead of the historical O(records) arrays (the ROADMAP #2
// blocker).  mean/max stay exact; p50/p95/p99 carry the sketch's bounded
// relative error (<1%, gated against stored-record values by the serve-load
// bench).  Digest determinism is unchanged: records fold in on the driver
// thread in admission order, and the sketch layout is fixed.
#pragma once

#include <cstddef>
#include <string>

#include "quamax/obs/sketch.hpp"
#include "quamax/serve/job.hpp"

namespace quamax::serve {

/// Latency distribution cut the way deadline SLOs are quoted.
struct LatencySummary {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

class ServiceStats {
 public:
  /// Folds one completed (or dropped) job into the aggregates.
  void add(const JobRecord& record);

  /// Folds one dispatched wave into the occupancy stats.  `warm` marks a
  /// warm-start wave (reverse anneal from predecessor seeds); `anneals` is
  /// the N_a quota the wave was charged (0 = unknown, excluded from the
  /// anneal-quota aggregate).  A `failed` wave (fault injection) yielded no
  /// samples: it is counted in failed_waves() only and excluded from the
  /// wave / occupancy / anneal-quota aggregates.
  void add_wave(std::size_t occupancy, bool warm = false,
                std::size_t anneals = 0, bool failed = false);

  std::size_t jobs() const noexcept { return jobs_; }
  std::size_t misses() const noexcept { return misses_; }
  std::size_t drops() const noexcept { return drops_; }
  /// Fraction of jobs that missed their deadline (drops included).
  double miss_rate() const;

  LatencySummary queueing() const;  ///< arrival -> dispatch
  LatencySummary service() const;   ///< dispatch -> completion
  LatencySummary total() const;     ///< arrival -> completion

  std::size_t waves() const noexcept { return waves_; }
  /// Mean jobs per wave — 1.0 with packing disabled, up to the chip
  /// capacity when the queue keeps waves full.
  double mean_wave_occupancy() const;

  /// Warm-start accounting: waves served by reverse anneals from
  /// predecessor seeds, the jobs they carried, and the total anneal quota
  /// charged across ALL waves (the annealer-time budget the warm path
  /// cuts — bench_warmstart's "anneal-quota cut" gate reads this).
  std::size_t warm_waves() const noexcept { return warm_waves_; }
  std::size_t warm_jobs() const noexcept { return warm_jobs_; }
  std::size_t total_anneals() const noexcept { return total_anneals_; }

  /// Fault accounting (quamax::fault; all zero on fault-free runs, and the
  /// digest omits the fault block entirely then — zero-fault digests are
  /// byte-identical to pre-fault history).  `retries` sums failed anneal
  /// attempts across jobs; `fallbacks` / `failed` count terminal outcomes;
  /// `failed_waves` counts aborted waves (excluded from waves()).
  std::size_t retries() const noexcept { return retries_; }
  std::size_t fallbacks() const noexcept { return fallbacks_; }
  std::size_t failed() const noexcept { return failed_; }
  std::size_t failed_waves() const noexcept { return failed_waves_; }
  /// BER of the classically-served (fallback) jobs alone — their bits are
  /// NOT folded into ber()/bit_errors(), so the annealing path's decode
  /// quality stays comparable across fault and fault-free runs.
  std::size_t fallback_bit_errors() const noexcept { return fallback_bit_errors_; }
  std::size_t fallback_bits() const noexcept { return fallback_bits_; }
  double fallback_ber() const;

  /// Aggregate decode quality over served jobs.
  std::size_t bit_errors() const noexcept { return bit_errors_; }
  std::size_t total_bits() const noexcept { return total_bits_; }
  double ber() const;
  /// Fraction of served jobs whose best sample hit the reference energy.
  double ground_state_rate() const;

  /// Per-direction breakdown of a full-duplex run (uplink detection vs
  /// downlink VPP precoding); zeros for the direction a run never saw.
  struct DirectionStats {
    std::size_t jobs = 0;
    std::size_t misses = 0;
    std::size_t bit_errors = 0;
    std::size_t total_bits = 0;
    /// Fault split (zero on fault-free runs): classically-served jobs and
    /// their bits (kept out of bit_errors/total_bits), terminal failures.
    std::size_t fallbacks = 0;
    std::size_t fallback_bit_errors = 0;
    std::size_t fallback_bits = 0;
    std::size_t failed = 0;
    double fallback_ber() const {
      return fallback_bits == 0 ? 0.0
                                : static_cast<double>(fallback_bit_errors) /
                                      static_cast<double>(fallback_bits);
    }
    double miss_rate() const {
      return jobs == 0 ? 0.0
                       : static_cast<double>(misses) / static_cast<double>(jobs);
    }
    double ber() const {
      return total_bits == 0 ? 0.0
                             : static_cast<double>(bit_errors) /
                                   static_cast<double>(total_bits);
    }
  };
  const DirectionStats& uplink() const noexcept { return uplink_; }
  const DirectionStats& downlink() const noexcept { return downlink_; }

  /// Served (non-dropped) jobs per millisecond of busy horizon
  /// (first arrival -> last completion).
  double achieved_jobs_per_ms() const;
  /// Deadline-meeting jobs per millisecond of busy horizon — the metric the
  /// bench_serve_load curves plot against offered load.
  double goodput_jobs_per_ms() const;

  /// Deterministic multi-line text rendering of every aggregate, suitable
  /// for diffing runs (the CI thread-determinism smoke) and for reports.
  std::string digest() const;

 private:
  std::size_t jobs_ = 0;
  std::size_t misses_ = 0;
  std::size_t drops_ = 0;
  std::size_t waves_ = 0;
  std::size_t packed_jobs_ = 0;  ///< total jobs across waves
  std::size_t warm_waves_ = 0;
  std::size_t warm_jobs_ = 0;
  std::size_t total_anneals_ = 0;  ///< sum of per-wave N_a quotas
  std::size_t retries_ = 0;        ///< failed attempts summed across jobs
  std::size_t fallbacks_ = 0;      ///< jobs served classically
  std::size_t failed_ = 0;         ///< terminal failures (never served)
  std::size_t failed_waves_ = 0;   ///< aborted waves (fault injection)
  std::size_t fallback_bit_errors_ = 0;
  std::size_t fallback_bits_ = 0;
  std::size_t bit_errors_ = 0;
  std::size_t total_bits_ = 0;
  std::size_t ground_states_ = 0;
  DirectionStats uplink_;
  DirectionStats downlink_;
  double first_arrival_us_ = 0.0;
  double last_completion_us_ = 0.0;
  bool any_ = false;
  obs::QuantileSketch queueing_us_;
  obs::QuantileSketch service_us_;
  obs::QuantileSketch total_us_;
};

}  // namespace quamax::serve
