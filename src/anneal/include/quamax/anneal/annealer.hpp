// Quantum-annealer stand-ins implementing core::IsingSampler.
//
//  * ChimeraAnnealer — the faithful pipeline: compile the logical problem
//    onto the Chimera chip (clique embedding, |J_F| chains, dynamic-range
//    normalization), perturb the programmed coefficients with ICE noise per
//    anneal, run the SA kernel on the *physical* graph, and majority-vote
//    unembed each anneal's configuration back to logical variables.
//
//  * LogicalAnnealer — ablation: same SA kernel applied directly to the
//    logical fully-connected problem, rescaled to unit max |coefficient|
//    (no chains, optional ICE).  Isolates the cost of embedding; also the
//    "highly optimized simulated annealing on the latest Intel processors"
//    comparator mentioned in §6.
//
//  * BruteForceSampler — exhaustive oracle, returns the true ground state
//    on every "anneal"; for tests and small-problem verification.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "quamax/anneal/ice.hpp"
#include "quamax/anneal/sa_engine.hpp"
#include "quamax/anneal/schedule.hpp"
#include "quamax/chimera/embedding.hpp"
#include "quamax/chimera/embedding_cache.hpp"
#include "quamax/chimera/graph.hpp"
#include "quamax/core/sampler.hpp"
#include "quamax/core/thread_pool.hpp"

namespace quamax::anneal {

struct AnnealerConfig {
  Schedule schedule;
  IceConfig ice;
  chimera::EmbedParams embed;  ///< |J_F| and dynamic-range option
  std::size_t chip_size = 16;  ///< Chimera C_M grid (2000Q: 16)
  std::size_t chip_shore = 4;  ///< cell half-size (2000Q: 4; §8 next-gen: 12)
  std::size_t chip_defects = 0;
  std::uint64_t chip_seed = 7;
  /// Explicit fault map: these qubits are disabled on top of the
  /// `chip_defects` random ones (a measured defect pattern rather than a
  /// random draw); ids outside the chip throw at construction.
  std::vector<chimera::Qubit> chip_disabled;
  /// Ablation: disable the chain-collective Metropolis pass (leaving pure
  /// single-spin dynamics, which cannot cross frozen chains — see
  /// sa_engine.hpp).  bench_ablations quantifies the difference.
  bool chain_collective_moves = true;
  /// Ablation: instead of majority-voting broken chains (paper §3.3), drop
  /// any anneal containing a broken chain entirely.  sample() then may
  /// return fewer configurations than requested.
  bool discard_broken_chain_samples = false;
  /// Lanes of the annealer's thread pool, fixed at construction: 1 = serial
  /// baseline, 0 = one lane per hardware thread, N = exactly N.  Anneals use
  /// counter-derived RNG streams (core::run_stream_blocks), so samples for a
  /// fixed seed are bit-identical at any setting.
  std::size_t num_threads = 1;
  /// Replicas per SaEngine::anneal_batch_with call: each lane's anneal quota
  /// is served in blocks of up to this many replicas swept together by the
  /// batched kernel (1 = the scalar per-sample path).  Sample `a` always
  /// draws from Rng::for_stream stream `a`, so samples for a fixed seed are
  /// bit-identical at ANY replica count — this knob only trades sweep
  /// throughput (see bench_micro_kernels' BM_SaSweep* pair).
  std::size_t batch_replicas = 8;
  /// Acceptance rule of the sweep kernel (see anneal::AcceptMode).  kExact
  /// preserves the v1 bit-exact contract; kThreshold32 trades it
  /// for the branch-free threshold kernel — statistically equivalent
  /// samples, still bit-identical at any num_threads/batch_replicas, but a
  /// DIFFERENT stream of results than kExact for the same seed.  Knob:
  /// --accept-mode / QUAMAX_ACCEPT_MODE.
  AcceptMode accept_mode = AcceptMode::kExact;
};

class ChimeraAnnealer final : public core::IsingSampler {
 public:
  /// Builds the config's chip (chimera::make_chip) and a private embedding
  /// cache for it.
  explicit ChimeraAnnealer(AnnealerConfig config);

  /// Anneals on `embeddings`' chip, sharing its compiled placements with
  /// every other annealer built on it (one per wave on a sched::DeviceSet
  /// device).  The chip is the cache's graph: `config.chip_size` and
  /// `chip_shore` must match it (else InvalidArgument), and the config's
  /// defect fields are not consulted.
  ChimeraAnnealer(AnnealerConfig config,
                  std::shared_ptr<chimera::EmbeddingCache> embeddings);

  /// One problem: a one-slot wave of the sample_batch path, placed by the
  /// defect-aware clique search (EmbeddingCache::clique).
  std::vector<qubo::SpinVec> sample(const qubo::IsingModel& problem,
                                    std::size_t num_anneals, Rng& rng) override;

  /// The sweep fan-out behind the Fig. 4-15 benches: draws problem p
  /// `num_anneals` times with sample() on stream Rng::for_stream(key, p),
  /// where key is ONE draw from `rng`, and returns the sample sets in input
  /// order.  Problems may differ in shape; each is annealed on its own
  /// clique placement (this is not the §4 wave path — see sample_batch).
  /// The problems spread over this annealer's config().num_threads lanes,
  /// each sampled by sample()'s own path with its replica blocks run inline
  /// on its lane — so set_initial_state and discard_broken_chain_samples
  /// apply exactly as in sample().  sample() is pure in (problem,
  /// num_anneals, stream), so the result is bit-identical at any lane count
  /// and equals per-problem sample() calls on a one-lane annealer.
  /// `broken`, when non-null, receives each problem's broken-chain fraction
  /// (what last_broken_chain_fraction() would read after that sample()
  /// call); last_broken_chain_fraction() itself is not written.
  std::vector<std::vector<qubo::SpinVec>> sample_each(
      const std::vector<const qubo::IsingModel*>& problems,
      std::size_t num_anneals, Rng& rng, std::vector<double>* broken = nullptr);

  /// Paper §4 parallelization, realized: decodes MANY same-size problems
  /// (e.g. different subcarriers) per anneal batch by placing disjoint
  /// clique embeddings across the chip and annealing them together.  Every
  /// wave of up to ~P_f problems costs ONE anneal's wall clock.  Returns
  /// one sample set per input problem, in order.
  std::vector<std::vector<qubo::SpinVec>> sample_batch(
      const std::vector<const qubo::IsingModel*>& problems,
      std::size_t num_anneals, Rng& rng);

  /// Warm-started wave decode: sample_batch with a per-problem initial
  /// LOGICAL configuration and a caller-supplied REVERSE schedule.  Each
  /// slot's seed is broadcast along its chains into the merged physical
  /// wave (the multi-problem analogue of set_initial_state + sample with
  /// schedule.reverse), so every replica of the wave starts from the
  /// seeds and anneals back out from `schedule.reverse_depth`.  The
  /// schedule must have reverse = true and is used for this call only —
  /// config().schedule (which must stay forward, see the constructor) is
  /// untouched, as are the cold sample()/sample_batch() RNG streams: the
  /// caller keys warm and cold calls off disjoint Rng::for_stream
  /// families (sched::Executor's warm_key_ vs decode_key_).
  /// `initial_states` must parallel `problems` with non-null entries of
  /// matching variable count.  Used by the coherent serving path
  /// (sched::Executor supplies each member's predecessor decode).
  std::vector<std::vector<qubo::SpinVec>> sample_batch_seeded(
      const std::vector<const qubo::IsingModel*>& problems,
      const std::vector<const qubo::SpinVec*>& initial_states,
      const Schedule& schedule, std::size_t num_anneals, Rng& rng);

  double anneal_duration_us() const override { return config_.schedule.duration_us(); }

  double parallelization_factor(std::size_t num_logical) const override {
    return chimera::parallelization_factor(num_logical, graph());
  }

  /// The simulated chip graph: the embedding cache's.
  const chimera::ChimeraGraph& graph() const noexcept { return embeddings_->graph(); }
  /// The active configuration (see set_config for what may change).
  const AnnealerConfig& config() const noexcept { return config_; }

  /// Replaces annealing parameters (used by the Fig. 5-7 parameter sweeps)
  /// without discarding the cached embeddings.  The chip fields and
  /// num_threads (the lane pool) are fixed at construction: changing them
  /// throws InvalidArgument.
  void set_config(const AnnealerConfig& config);

  /// The shape-keyed embedding cache (placements only — coefficients are
  /// compiled per problem) this annealer was built on; never null.
  const std::shared_ptr<chimera::EmbeddingCache>& embedding_cache() const noexcept {
    return embeddings_;
  }

  /// Fraction of chains broken (non-unanimous) across the last sample()
  /// call — the embedding-health diagnostic used when tuning |J_F|.
  double last_broken_chain_fraction() const noexcept {
    return last_broken_chain_fraction_;
  }

  /// Seeds reverse annealing (schedule.reverse = true): each anneal starts
  /// from this LOGICAL configuration (broadcast along chains) instead of a
  /// random state.  Typically a linear detector's solution (§8: warm-started
  /// reverse annealing "may close the gap to Opt").  Pass std::nullopt to
  /// clear.  The state must match the next problem's variable count.
  void set_initial_state(std::optional<qubo::SpinVec> logical_state) {
    initial_state_ = std::move(logical_state);
  }

 private:
  /// sample() without its write to last_broken_chain_fraction_: one problem
  /// on its clique placement, replica blocks fanned over `pool` (null =
  /// inline).  `broken_fraction` receives the broken-chain fraction.  Reads
  /// only state shared read-only across sample_each's lanes.
  std::vector<qubo::SpinVec> sample_one(const qubo::IsingModel& problem,
                                        std::size_t num_anneals, Rng& rng,
                                        core::ThreadPool* pool,
                                        double& broken_fraction) const;

  /// The one anneal path behind sample, sample_batch and
  /// sample_batch_seeded: embeds `problems` onto `slots` (placements, used
  /// as a prefix), anneals them in waves of min(slots, problems) and
  /// unembeds.  sample() is a one-slot wave on the clique placement.
  /// Replica blocks run on `pool` (null = inline).  `initial_states` null =>
  /// cold anneal from random states.  `broken`, when non-null, receives per
  /// anneal the broken chains summed over the problems.
  std::vector<std::vector<qubo::SpinVec>> sample_waves(
      const std::vector<const qubo::IsingModel*>& problems,
      const std::vector<chimera::Embedding>& slots,
      const std::vector<const qubo::SpinVec*>* initial_states,
      const Schedule& schedule, std::size_t num_anneals, Rng& rng,
      core::ThreadPool* pool, std::vector<std::size_t>* broken = nullptr) const;

  AnnealerConfig config_;
  std::shared_ptr<chimera::EmbeddingCache> embeddings_;
  std::optional<qubo::SpinVec> initial_state_;
  double last_broken_chain_fraction_ = 0.0;
  core::ThreadPool pool_;  ///< config_.num_threads lanes
};

struct LogicalAnnealerConfig {
  Schedule schedule;
  IceConfig ice{.enabled = false};  ///< ICE is a hardware artifact; off by default
  std::size_t num_threads = 1;      ///< thread-pool lanes (see AnnealerConfig)
  std::size_t batch_replicas = 8;   ///< replicas per batched kernel call (ditto)
  /// Sweep-kernel acceptance rule (see AnnealerConfig::accept_mode).
  AcceptMode accept_mode = AcceptMode::kExact;
};

class LogicalAnnealer final : public core::IsingSampler {
 public:
  explicit LogicalAnnealer(LogicalAnnealerConfig config)
      : config_(config), pool_(config_.num_threads) {
    config_.schedule.validate();
  }

  std::vector<qubo::SpinVec> sample(const qubo::IsingModel& problem,
                                    std::size_t num_anneals, Rng& rng) override;

  double anneal_duration_us() const override { return config_.schedule.duration_us(); }

 private:
  LogicalAnnealerConfig config_;
  core::ThreadPool pool_;  ///< config_.num_threads lanes
};

class BruteForceSampler final : public core::IsingSampler {
 public:
  std::vector<qubo::SpinVec> sample(const qubo::IsingModel& problem,
                                    std::size_t num_anneals, Rng& rng) override;
  double anneal_duration_us() const override { return 1.0; }
};

}  // namespace quamax::anneal
