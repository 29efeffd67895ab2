// Deterministic load generation for the decode service.
//
// The ROADMAP north star is "heavy traffic from millions of users"; a
// serving experiment is only trustworthy if the traffic is exactly
// reproducible.  LoadGenerator therefore derives EVERY stochastic choice —
// inter-arrival gaps, channel realizations, payload bits — from
// counter-derived Rng streams keyed by the job index, so a (config, seed)
// pair pins the entire workload bit-for-bit regardless of who consumes it,
// in what order, or at what thread count.
//
// Two arrival processes:
//   * kPoisson  — open-loop Poisson arrivals at offered_load_jobs_per_ms
//     (exponential gaps; job k's gap comes from stream k);
//   * kSubframe — LTE-style synchronized subframes: every user releases one
//     job per subframe_period_us tick, modeling the bursty frame-aligned
//     uplink the paper's C-RAN would actually see.
//
// Two instance sources:
//   * a sim::ProblemClass (random-phase/Rayleigh channels, any modulation,
//     optional AWGN) — job k's instance is drawn from stream k; or
//   * the synthetic Argos-like wireless::TraceChannelModel (§5.5): the
//     fading process advances one frame per job, so instances are produced
//     sequentially and cached by job index to keep job(k) a pure lookup.
//
// Full-duplex mixes: downlink_fraction > 0 turns job k into a downlink VPP
// precoding job (vpp::PrecodeInstance from `downlink`) with probability
// downlink_fraction, decided by job k's own direction stream — so the mix
// knob reshuffles nothing: uplink job k keeps the exact channel it had in a
// pure-uplink run, and downlink_fraction = 0 reproduces the PR-3..5
// workloads bit-for-bit.
//
// Coherent subframes: coherence = rho > 0 replaces the i.i.d. per-job
// instance draw with per-user chains of coherence blocks of
// L = max(1, round(1/(1-rho))) subframes.  Within a block the channel H
// and the payload bits are EXACTLY constant (the HARQ chase-combining
// framing: each subframe retransmits the block payload) and only the AWGN
// realization is fresh per job; at block boundaries the channel takes a
// Gauss-Markov step H <- rho H + sqrt(1-rho^2) W (Rayleigh innovation W)
// and the payload is redrawn.  Same-block successors carry
// CellJob::predecessor so the scheduler can warm-start them.  Each chain
// keeps its block's reduction, so a same-block successor recomputes only
// the received-vector fields (core::update_ml_fields on a copy — bit-equal
// to a full core::reduce_ml).  The coherent keys are drawn AFTER every
// existing key family, so coherence = 0 reproduces prior workloads
// bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "quamax/anneal/warm_start.hpp"
#include "quamax/core/reduction.hpp"
#include "quamax/serve/job.hpp"
#include "quamax/sim/instance.hpp"
#include "quamax/vpp/precode.hpp"
#include "quamax/wireless/trace.hpp"

namespace quamax::serve {

enum class ArrivalKind {
  kPoisson,   ///< open-loop Poisson at offered_load_jobs_per_ms
  kSubframe,  ///< one job per user per subframe_period_us tick
};

struct LoadConfig {
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  double offered_load_jobs_per_ms = 1.0;  ///< Poisson rate (kPoisson)
  double subframe_period_us = 1000.0;     ///< tick spacing (kSubframe)
  std::size_t users = 8;     ///< distinct uplink streams (round-robin owners)
  double deadline_us = 1000.0;   ///< per-job budget: deadline = arrival + this

  /// Instance source: trace_channels selects the Argos-like trace campaign,
  /// otherwise `problem` describes the random instance family.
  bool trace_channels = false;
  sim::ProblemClass problem{};
  wireless::TraceConfig trace{};
  std::size_t trace_pick = 8;  ///< antennas sampled per trace use (paper: 8 of 96)
  wireless::Modulation trace_mod = wireless::Modulation::kBpsk;
  /// Anchor ground energies with the Sphere Decoder on noisy instances
  /// (classical cost per job; unnecessary for noise-free serving sweeps).
  bool ml_oracle = false;

  /// Full-duplex mix knob: probability that a job is a DOWNLINK precoding
  /// job.  0 = pure uplink (bit-identical to the pre-full-duplex
  /// workloads), 1 = pure downlink.  Knob: --downlink / QUAMAX_DOWNLINK.
  double downlink_fraction = 0.0;
  /// Downlink instance family (channel, modulation, tau, encoding width).
  vpp::VppConfig downlink{};
  /// Downlink budget: deadline = arrival + this; 0 = use deadline_us.
  /// Precoding typically runs a TIGHTER budget than detection — the
  /// subframe cannot go to air without it.
  double downlink_deadline_us = 0.0;
  /// Anchor downlink ground energies by brute force (test/bench scale).
  bool downlink_opt_oracle = false;

  /// Channel coherence across consecutive subframes of the same user
  /// chain, in [0, 1): 0 = i.i.d. per-job instances (the historical
  /// workload, bit-for-bit), rho > 0 = coherence blocks of
  /// max(1, round(1/(1-rho))) subframes with constant H/payload and fresh
  /// noise (see the header comment).  Incompatible with trace_channels
  /// (the trace fading process has its own coherence).  Knob:
  /// --coherence / QUAMAX_COHERENCE.
  double coherence = 0.0;
};

class LoadGenerator {
 public:
  LoadGenerator(LoadConfig config, std::uint64_t seed);

  const LoadConfig& config() const noexcept { return config_; }

  /// The full open-loop workload: `num_jobs` jobs with ids 0..num_jobs-1 in
  /// arrival order, owners round-robin over `users`, deadlines at arrival +
  /// the direction's budget.  Pure in (config, seed, num_jobs).
  std::vector<CellJob> open_loop(std::size_t num_jobs);

  /// Job `id` for `user`, released at `release_us` — the single-job entry
  /// point open_loop() is built on, and what streaming drivers call.
  /// Instances are keyed by `id` alone, so the job content is independent
  /// of the release time.  Trace-mode and coherent instances are produced
  /// sequentially (the fading process and the channel chains have state)
  /// and retained in a sliding window of the most recent kTraceWindow ids,
  /// keeping memory bounded on arbitrarily long serving runs; requesting
  /// an id that slid out of the window throws InvalidArgument.
  CellJob job(std::size_t id, std::size_t user, double release_us);

  /// Whether job `id` is a downlink job under the configured mix (a pure
  /// function of (seed, id) — independent of every other draw).
  bool is_downlink(std::size_t id) const;

  /// Coherence-block length in subframes: max(1, round(1/(1-coherence))),
  /// 1 when coherence = 0 (every subframe is its own block).
  std::size_t coherence_block() const;

  /// The warm-start predecessor of job `id`: the previous subframe of the
  /// same user chain when both live in the same coherence block and both
  /// are uplink; disengaged otherwise.  Pure in (config, seed, id).
  std::optional<std::size_t> predecessor(std::size_t id) const;

  /// Reduction-compiler counters for the coherent path (how many jobs took
  /// the field-only delta vs a full reduce).
  const anneal::WarmStartStats& compile_stats() const noexcept {
    return compile_stats_;
  }

  /// Retention window of the sequential instance sources (see job()).  Far
  /// larger than any queue a service run sustains — the service consumes
  /// ids almost in order.
  static constexpr std::size_t kTraceWindow = 4096;

 private:
  sim::Instance instance_for(std::size_t id);
  sim::Instance make_coherent_instance(std::size_t id);

  LoadConfig config_;
  std::uint64_t arrival_key_ = 0;
  std::uint64_t instance_key_ = 0;
  std::uint64_t direction_key_ = 0;
  std::uint64_t downlink_key_ = 0;
  std::unique_ptr<wireless::TraceChannelModel> trace_model_;
  Rng trace_rng_;
  /// Sequential-source instances with ids [window_base_, + size).
  std::deque<sim::Instance> window_;
  std::size_t window_base_ = 0;

  /// One Gauss-Markov channel chain per user (coherence > 0).  Blocks are
  /// materialized strictly in order, so H_u(block) is a pure function of
  /// (seed, u, block) however job ids are requested.
  struct ChainState {
    linalg::CMat h;             ///< channel of blocks_done - 1
    wireless::BitVec bits;      ///< the block payload (retransmitted per subframe)
    linalg::CVec symbols;       ///< Gray-modulated payload
    std::size_t blocks_done = 0;  ///< blocks materialized so far
    /// Full reduction of block `reduced_block`'s first job; its couplings
    /// serve every job of that block.
    std::optional<core::MlProblem> reduced;
    std::size_t reduced_block = 0;
  };

  std::uint64_t coherent_channel_key_ = 0;  ///< per-(user, block) draws
  std::uint64_t coherent_use_key_ = 0;      ///< per-id noise draws
  std::vector<ChainState> chains_;
  anneal::WarmStartStats compile_stats_;
};

}  // namespace quamax::serve
