#include "quamax/anneal/annealer.hpp"

#include <algorithm>
#include <span>

namespace quamax::anneal {
namespace {

/// Anneals one replica block of the batch runtime: replica j draws its ICE
/// realization (fields, then couplings) from streams[j], exactly the scalar
/// path's order, so the batched samples stay bit-identical to per-sample
/// anneals.  ICE off skips the perturbation: a disabled ICE copies the base
/// arrays and draws no RNG, so anneal_batch, which hands the kernel the
/// base arrays at a replica stride of 0, is bit-identical while skipping
/// the O(R*(N+M)) block copies.
std::vector<qubo::SpinVec> anneal_block(const SaEngine& engine,
                                        const IceConfig& ice,
                                        const std::vector<double>& betas,
                                        std::vector<Rng>& streams,
                                        const qubo::SpinVec* initial,
                                        AcceptMode mode) {
  if (!ice.enabled) return engine.anneal_batch(betas, streams, initial, mode);
  // Lane-local scratch: every element is overwritten per block, so reuse
  // across blocks is safe and keeps the hot loop allocation-free.
  thread_local std::vector<double> fields, couplings, f1, c1;
  const std::size_t nf = engine.base_fields().size();
  const std::size_t nc = engine.base_couplings().size();
  fields.resize(streams.size() * nf);
  couplings.resize(streams.size() * nc);
  for (std::size_t j = 0; j < streams.size(); ++j) {
    ice.perturb_fields(engine.base_fields(), f1, streams[j]);
    ice.perturb_couplings(engine.base_couplings(), c1, streams[j]);
    std::copy(f1.begin(), f1.end(),
              fields.begin() + static_cast<std::ptrdiff_t>(j * nf));
    std::copy(c1.begin(), c1.end(),
              couplings.begin() + static_cast<std::ptrdiff_t>(j * nc));
  }
  return engine.anneal_batch_with(betas, fields, couplings, streams, initial,
                                  mode);
}

}  // namespace

ChimeraAnnealer::ChimeraAnnealer(AnnealerConfig config)
    : ChimeraAnnealer(config, std::make_shared<chimera::EmbeddingCache>(
                                  chimera::make_chip(config.chip_size,
                                                     config.chip_shore,
                                                     config.chip_defects,
                                                     config.chip_seed,
                                                     config.chip_disabled))) {}

ChimeraAnnealer::ChimeraAnnealer(AnnealerConfig config,
                                 std::shared_ptr<chimera::EmbeddingCache> embeddings)
    : config_(std::move(config)),
      embeddings_(std::move(embeddings)),
      pool_(config_.num_threads) {
  require(embeddings_ != nullptr, "ChimeraAnnealer: null embedding cache");
  require(embeddings_->graph().grid_size() == config_.chip_size &&
              embeddings_->graph().shore_size() == config_.chip_shore,
          "ChimeraAnnealer: chip_size/chip_shore do not match the cache's chip");
  config_.schedule.validate();
}

void ChimeraAnnealer::set_config(const AnnealerConfig& config) {
  require(config.chip_size == config_.chip_size &&
              config.chip_shore == config_.chip_shore &&
              config.chip_defects == config_.chip_defects &&
              config.chip_seed == config_.chip_seed &&
              config.chip_disabled == config_.chip_disabled,
          "ChimeraAnnealer::set_config: cannot change the chip; build a new "
          "annealer");
  require(config.num_threads == config_.num_threads,
          "ChimeraAnnealer::set_config: cannot change num_threads; build a new "
          "annealer");
  config.schedule.validate();
  config_ = config;
}

std::vector<qubo::SpinVec> ChimeraAnnealer::sample(const qubo::IsingModel& problem,
                                                   std::size_t num_anneals,
                                                   Rng& rng) {
  return sample_one(problem, num_anneals, rng, &pool_,
                    last_broken_chain_fraction_);
}

std::vector<qubo::SpinVec> ChimeraAnnealer::sample_one(
    const qubo::IsingModel& problem, std::size_t num_anneals, Rng& rng,
    core::ThreadPool* pool, double& broken_fraction) const {
  // Reverse annealing starts every anneal from the logical warm-start state.
  std::vector<const qubo::SpinVec*> seed;
  if (config_.schedule.reverse) {
    require(initial_state_.has_value(),
            "ChimeraAnnealer: reverse annealing needs set_initial_state()");
    require(initial_state_->size() == problem.num_spins(),
            "ChimeraAnnealer: initial state size does not match the problem");
    seed.push_back(&*initial_state_);
  }

  // A one-slot wave on the defect-aware clique placement.
  std::vector<std::size_t> broken;
  std::vector<qubo::SpinVec> raw = std::move(
      sample_waves({&problem}, {*embeddings_->clique(problem.num_spins())},
                   seed.empty() ? nullptr : &seed, config_.schedule,
                   num_anneals, rng, pool, &broken)
          .front());

  std::size_t broken_total = 0;
  for (const std::size_t b : broken) broken_total += b;
  broken_fraction =
      static_cast<double>(broken_total) /
      static_cast<double>(num_anneals * problem.num_spins());

  if (!config_.discard_broken_chain_samples) return raw;
  std::vector<qubo::SpinVec> kept;
  kept.reserve(num_anneals);
  for (std::size_t a = 0; a < num_anneals; ++a)
    if (broken[a] == 0) kept.push_back(std::move(raw[a]));
  return kept;
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::sample_each(
    const std::vector<const qubo::IsingModel*>& problems,
    std::size_t num_anneals, Rng& rng, std::vector<double>* broken) {
  for (const auto* p : problems)
    require(p != nullptr, "sample_each: null problem pointer");
  std::vector<std::vector<qubo::SpinVec>> results(problems.size());
  std::vector<double> fractions(problems.size(), 0.0);
  // One problem per lane job; its replica blocks run inline on that lane.
  core::run_stream_blocks(&pool_, problems.size(), 1, rng,
                          [&](std::size_t p, std::vector<Rng>& streams) {
                            results[p] = sample_one(*problems[p], num_anneals,
                                                    streams.front(), nullptr,
                                                    fractions[p]);
                          });
  if (broken != nullptr) *broken = std::move(fractions);
  return results;
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::sample_batch(
    const std::vector<const qubo::IsingModel*>& problems,
    std::size_t num_anneals, Rng& rng) {
  require(!config_.schedule.reverse,
          "sample_batch: reverse annealing needs per-problem seeds; use "
          "sample_batch_seeded");
  require(!problems.empty(), "sample_batch: no problems");
  for (const auto* p : problems)
    require(p != nullptr, "sample_batch: null problem pointer");
  return sample_waves(problems,
                      *embeddings_->parallel(problems.front()->num_spins()),
                      nullptr, config_.schedule, num_anneals, rng, &pool_);
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::sample_batch_seeded(
    const std::vector<const qubo::IsingModel*>& problems,
    const std::vector<const qubo::SpinVec*>& initial_states,
    const Schedule& schedule, std::size_t num_anneals, Rng& rng) {
  schedule.validate();
  require(schedule.reverse,
          "sample_batch_seeded: the seeded batch is the reverse-annealing "
          "path; use sample_batch for forward waves");
  require(initial_states.size() == problems.size(),
          "sample_batch_seeded: one initial state per problem");
  for (std::size_t s = 0; s < problems.size(); ++s)
    require(problems[s] != nullptr && initial_states[s] != nullptr &&
                initial_states[s]->size() == problems[s]->num_spins(),
            "sample_batch_seeded: each initial state must match its problem's "
            "variable count");
  require(!problems.empty(), "sample_batch: no problems");
  return sample_waves(problems,
                      *embeddings_->parallel(problems.front()->num_spins()),
                      &initial_states, schedule, num_anneals, rng, &pool_);
}

std::vector<std::vector<qubo::SpinVec>> ChimeraAnnealer::sample_waves(
    const std::vector<const qubo::IsingModel*>& problems,
    const std::vector<chimera::Embedding>& slots,
    const std::vector<const qubo::SpinVec*>* initial_states,
    const Schedule& schedule, std::size_t num_anneals, Rng& rng,
    core::ThreadPool* pool, std::vector<std::size_t>* broken) const {
  require(num_anneals >= 1, "ChimeraAnnealer: need at least one anneal");
  const std::size_t n = problems.front()->num_spins();
  for (const auto* p : problems)
    require(p->num_spins() == n,
            "sample_batch: all problems must have the same variable count");

  // Only min(placements, problems) slots are used per wave: a prefix of the
  // maximal tiling equals what a smaller compilation would return.
  const std::size_t num_slots = std::min(slots.size(), problems.size());
  const std::vector<double> betas = schedule.betas();

  // Standard dynamic range admits gauge averaging, which cancels the ICE
  // mean shift; improved range precludes it (paper §4).
  IceConfig ice = config_.ice;
  ice.suppress_bias = ice.suppress_bias || !config_.embed.improved_range;

  std::vector<std::vector<qubo::SpinVec>> results(problems.size());
  if (broken != nullptr) broken->assign(num_anneals, 0);

  // Process the problems in waves of `num_slots` instances per chip anneal.
  for (std::size_t wave_start = 0; wave_start < problems.size();
       wave_start += num_slots) {
    const std::size_t wave_size =
        std::min(num_slots, problems.size() - wave_start);

    // Embed every slot straight into one chip-wide Ising problem: each
    // slot's placement was compiled with the cache entry, so this is the
    // per-job scale-and-scatter only.  A one-slot merge reproduces the
    // embedded model exactly.
    const chimera::MergedWave wave = chimera::merge_embedded(
        {problems.begin() + static_cast<std::ptrdiff_t>(wave_start),
         problems.begin() + static_cast<std::ptrdiff_t>(wave_start + wave_size)},
        slots, config_.embed);

    SaEngine engine(wave.physical);
    // Chain-collective moves: the classical counterpart of the annealer's
    // coherent multi-qubit dynamics (see sa_engine.hpp).
    if (config_.chain_collective_moves) engine.set_groups(wave.chains);

    // Warm start: broadcast every slot's logical seed along its chains into
    // the merged physical wave, offset to the slot's qubit range.  Every
    // replica starts from this configuration.
    qubo::SpinVec physical_initial;
    const qubo::SpinVec* initial = nullptr;
    if (initial_states != nullptr) {
      physical_initial.resize(wave.physical.num_spins());
      for (std::size_t s = 0; s < wave_size; ++s) {
        const qubo::SpinVec& seed = *(*initial_states)[wave_start + s];
        const auto& chains = slots[s].compact_chains;
        for (std::size_t i = 0; i < chains.size(); ++i)
          for (const std::uint32_t q : chains[i])
            physical_initial[wave.offsets[s] + q] = seed[i];
      }
      initial = &physical_initial;
    }

    // One chip anneal decodes the whole wave; the anneal loop fans across
    // `pool` in replica blocks of per-anneal streams, each block
    // writing slots [begin, begin + R) of every problem in the wave.  Anneal
    // `a` draws its ICE realization, SA trajectory, and tie-breaks from
    // stream `a` whatever block it lands in, so samples are bit-identical at
    // any batch_replicas/num_threads setting — the engine is shared
    // read-only.
    for (std::size_t s = 0; s < wave_size; ++s)
      results[wave_start + s].resize(num_anneals);
    core::run_stream_blocks(
        pool, num_anneals, config_.batch_replicas, rng,
        [&](std::size_t begin, std::vector<Rng>& streams) {
          const std::vector<qubo::SpinVec> physical = anneal_block(
              engine, ice, betas, streams, initial, config_.accept_mode);
          for (std::size_t j = 0; j < streams.size(); ++j) {
            for (std::size_t s = 0; s < wave_size; ++s) {
              const std::span<const std::int8_t> slice(
                  physical[j].data() + wave.offsets[s],
                  slots[s].compact_to_qubit.size());
              std::size_t chains_broken = 0;
              results[wave_start + s][begin + j] = chimera::unembed(
                  slice, slots[s].compact_chains, streams[j], &chains_broken);
              if (broken != nullptr) (*broken)[begin + j] += chains_broken;
            }
          }
        });
  }
  return results;
}

std::vector<qubo::SpinVec> LogicalAnnealer::sample(const qubo::IsingModel& problem,
                                                   std::size_t num_anneals,
                                                   Rng& rng) {
  require(num_anneals >= 1, "LogicalAnnealer::sample: need at least one anneal");

  // Rescale to unit max |coefficient|.
  qubo::IsingModel scaled = problem;
  const double max_coeff = problem.max_abs_coefficient();
  if (max_coeff > 0.0) {
    qubo::IsingModel normalized(problem.num_spins());
    for (std::size_t i = 0; i < problem.num_spins(); ++i)
      normalized.field(i) = problem.field(i) / max_coeff;
    for (const qubo::Coupling& c : problem.couplings())
      normalized.add_coupling(c.i, c.j, c.g / max_coeff);
    scaled = std::move(normalized);
  }

  const SaEngine engine(scaled);
  const std::vector<double> betas = config_.schedule.betas();

  std::vector<qubo::SpinVec> samples(num_anneals);
  core::run_stream_blocks(
      &pool_, num_anneals, config_.batch_replicas, rng,
      [&](std::size_t begin, std::vector<Rng>& streams) {
        std::vector<qubo::SpinVec> block = anneal_block(
            engine, config_.ice, betas, streams, nullptr, config_.accept_mode);
        for (std::size_t j = 0; j < streams.size(); ++j)
          samples[begin + j] = std::move(block[j]);
      });
  return samples;
}

std::vector<qubo::SpinVec> BruteForceSampler::sample(const qubo::IsingModel& problem,
                                                     std::size_t num_anneals,
                                                     Rng& rng) {
  (void)rng;
  const qubo::GroundState ground = qubo::brute_force_ground_state(problem);
  return std::vector<qubo::SpinVec>(num_anneals, ground.spins);
}

}  // namespace quamax::anneal
