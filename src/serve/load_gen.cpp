#include "quamax/serve/load_gen.hpp"

#include <cmath>
#include <limits>

#include "quamax/common/error.hpp"

namespace quamax::serve {

LoadGenerator::LoadGenerator(LoadConfig config, std::uint64_t seed)
    : config_(config), trace_rng_(seed) {
  require(config_.users >= 1, "LoadGenerator: need at least one user");
  require(config_.deadline_us > 0.0, "LoadGenerator: deadline must be positive");
  if (config_.arrivals == ArrivalKind::kPoisson)
    require(config_.offered_load_jobs_per_ms > 0.0,
            "LoadGenerator: offered load must be positive");
  else
    require(config_.subframe_period_us > 0.0,
            "LoadGenerator: subframe period must be positive");

  require(config_.downlink_fraction >= 0.0 && config_.downlink_fraction <= 1.0,
          "LoadGenerator: downlink fraction must lie in [0, 1]");
  require(config_.coherence >= 0.0 && config_.coherence < 1.0,
          "LoadGenerator: coherence must lie in [0, 1)");
  require(!(config_.coherence > 0.0 && config_.trace_channels),
          "LoadGenerator: coherence is for the random instance family; the "
          "trace fading process has its own coherence");

  // Independent key families for arrivals and instances, derived from the
  // single seed: changing the offered load must not change the channels.
  // The full-duplex keys are drawn after the originals, and the coherence
  // keys after those, so a pure-uplink incoherent config reproduces the
  // historical stream assignment bit-for-bit.
  Rng root(seed);
  arrival_key_ = root();
  instance_key_ = root();
  if (config_.trace_channels)
    trace_model_ =
        std::make_unique<wireless::TraceChannelModel>(config_.trace, root());
  direction_key_ = root();
  downlink_key_ = root();
  coherent_channel_key_ = root();
  coherent_use_key_ = root();
  if (config_.coherence > 0.0) chains_.resize(config_.users);
}

bool LoadGenerator::is_downlink(std::size_t id) const {
  if (config_.downlink_fraction <= 0.0) return false;
  if (config_.downlink_fraction >= 1.0) return true;
  Rng stream = Rng::for_stream(direction_key_, id);
  return stream.uniform() < config_.downlink_fraction;
}

std::size_t LoadGenerator::coherence_block() const {
  if (config_.coherence <= 0.0) return 1;
  const long long len = std::llround(1.0 / (1.0 - config_.coherence));
  return len < 1 ? 1 : static_cast<std::size_t>(len);
}

std::optional<std::size_t> LoadGenerator::predecessor(std::size_t id) const {
  if (config_.coherence <= 0.0) return std::nullopt;
  const std::size_t subframe = id / config_.users;
  // First subframe of a block has no same-channel/same-payload forerunner.
  if (subframe % coherence_block() == 0) return std::nullopt;
  const std::size_t pred = id - config_.users;
  // Only an uplink decode leaves a spin configuration to seed from.
  if (is_downlink(id) || is_downlink(pred)) return std::nullopt;
  return pred;
}

sim::Instance LoadGenerator::make_coherent_instance(std::size_t id) {
  const std::size_t user = id % config_.users;
  const std::size_t block = (id / config_.users) / coherence_block();
  const std::size_t nt = config_.problem.users;
  const bool noisy = config_.problem.snr_db.has_value();
  ChainState& chain = chains_[user];

  // Materialize the chain's blocks up to `block` in order: each block's
  // channel step and payload come from the (user, block) stream, so
  // H_u(block) is a pure function of (seed, user, block).
  while (chain.blocks_done <= block) {
    const std::uint64_t b = chain.blocks_done;
    Rng stream = Rng::for_stream(
        coherent_channel_key_, (static_cast<std::uint64_t>(user) << 32) | b);
    if (b == 0) {
      // Fresh draw per the instance family (random phase when noise-free,
      // mirroring make_noise_free_use).
      chain.h =
          (noisy && config_.problem.kind == wireless::ChannelKind::kRayleigh)
              ? wireless::rayleigh_channel(nt, nt, stream)
              : wireless::random_phase_channel(nt, nt, stream);
    } else {
      // Gauss-Markov step: unit-variance Rayleigh innovation keeps the
      // average channel energy stationary at any coherence.
      const linalg::CMat w = wireless::rayleigh_channel(nt, nt, stream);
      const double rho = config_.coherence;
      const double innovation = std::sqrt(1.0 - rho * rho);
      for (std::size_t r = 0; r < nt; ++r)
        for (std::size_t c = 0; c < nt; ++c)
          chain.h(r, c) = rho * chain.h(r, c) + innovation * w(r, c);
    }
    chain.bits.resize(
        nt * static_cast<std::size_t>(wireless::bits_per_symbol(config_.problem.mod)));
    for (auto& bit : chain.bits) bit = stream.coin() ? 1u : 0u;
    chain.symbols = wireless::modulate_gray(chain.bits, config_.problem.mod);
    ++chain.blocks_done;
  }

  wireless::ChannelUse use;
  use.mod = config_.problem.mod;
  use.h = chain.h;
  use.tx_bits = chain.bits;
  use.tx_symbols = chain.symbols;
  use.y = use.h * use.tx_symbols;
  Rng stream = Rng::for_stream(coherent_use_key_, id);
  if (noisy) {
    use.snr_db = *config_.problem.snr_db;
    use.noise_sigma = wireless::noise_sigma_for_snr(use.h, use.mod, use.snr_db);
    wireless::add_awgn(use.y, use.noise_sigma, stream);
  } else {
    use.snr_db = std::numeric_limits<double>::infinity();
    use.noise_sigma = 0.0;
  }

  // Same-block successors reuse the cached couplings (they depend only on
  // H) and recompute just the received-vector fields — bit-equal to a full
  // reduction, so the instance is independent of the compile path taken.
  core::MlProblem problem;
  if (chain.reduced.has_value() && chain.reduced_block == block) {
    ++compile_stats_.delta_compiles;
    problem = *chain.reduced;
    core::update_ml_fields(problem, use.h, use.y);
  } else {
    ++compile_stats_.full_compiles;
    problem = core::reduce_ml(use.h, use.y, use.mod);
    chain.reduced = problem;
    chain.reduced_block = block;
  }
  return sim::make_instance_with_problem(std::move(use), std::move(problem),
                                         /*ml_oracle=*/false);
}

sim::Instance LoadGenerator::instance_for(std::size_t id) {
  if (config_.coherence <= 0.0 && trace_model_ == nullptr) {
    Rng stream = Rng::for_stream(instance_key_, id);
    return sim::make_instance(config_.problem, stream, /*ml_oracle=*/false);
  }
  // The trace's fading and the coherent channel chains are sequential (the
  // constructor admits at most one of them): materialize instances up to
  // `id` once, retaining only a sliding window of recent ones so a long
  // serving run does not accumulate every channel use ever drawn.
  require(id >= window_base_,
          "LoadGenerator: instance " + std::to_string(id) +
              " slid out of the retention window");
  while (window_base_ + window_.size() <= id) {
    if (config_.coherence > 0.0) {
      window_.push_back(make_coherent_instance(window_base_ + window_.size()));
    } else {
      trace_model_->advance_frame();
      window_.push_back(sim::make_instance_from_use(
          trace_model_->sample_use(config_.trace_pick, config_.trace_mod,
                                   trace_rng_),
          /*ml_oracle=*/false));
    }
    if (window_.size() > kTraceWindow) {
      window_.pop_front();
      ++window_base_;
    }
  }
  return window_[id - window_base_];
}

std::vector<CellJob> LoadGenerator::open_loop(std::size_t num_jobs) {
  std::vector<CellJob> jobs;
  jobs.reserve(num_jobs);
  double clock_us = 0.0;
  for (std::size_t k = 0; k < num_jobs; ++k) {
    if (config_.arrivals == ArrivalKind::kPoisson) {
      // Exponential gap with mean 1000/lambda us, from job k's own stream:
      // the arrival sequence is a pure prefix function — extending the run
      // never reshuffles earlier arrivals.
      Rng stream = Rng::for_stream(arrival_key_, k);
      const double mean_gap_us = 1000.0 / config_.offered_load_jobs_per_ms;
      clock_us += -mean_gap_us * std::log1p(-stream.uniform());
    } else {
      clock_us = static_cast<double>(k / config_.users) *
                 config_.subframe_period_us;
    }
    jobs.push_back(job(k, k % config_.users, clock_us));
  }
  return jobs;
}

CellJob LoadGenerator::job(std::size_t id, std::size_t user, double release_us) {
  if (config_.coherence > 0.0)
    require(user == id % config_.users,
            "LoadGenerator: coherent chains key users by id; pass "
            "user = id % users");
  if (is_downlink(id)) {
    Rng stream = Rng::for_stream(downlink_key_, id);
    return CellJob{.id = id,
                   .user = user,
                   .arrival_us = release_us,
                   .deadline_us = release_us + (config_.downlink_deadline_us > 0.0
                                                    ? config_.downlink_deadline_us
                                                    : config_.deadline_us),
                   .predecessor = std::nullopt,
                   .payload = vpp::make_precode_instance(config_.downlink,
                                                         stream)};
  }
  sim::Instance instance = instance_for(id);
  return CellJob{.id = id,
                 .user = user,
                 .arrival_us = release_us,
                 .deadline_us = release_us + config_.deadline_us,
                 .predecessor = predecessor(id),
                 .payload = std::move(instance)};
}

}  // namespace quamax::serve
