// Micro-benchmarks (google-benchmark) for the library's compute kernels.
// Not a paper figure — these quantify the claims the paper makes in passing:
//   * §3.2.2: the closed-form Ising coefficients make the ML->QA conversion
//     cheap ("computational time ... can be neglected") — compare generic
//     norm expansion against the closed forms;
//   * embedding costs (per-placement compile, per-job fill) and unembedding;
//   * the SA substitute's per-anneal cost (the classical analog of Ta), in
//     both the scalar and the multi-replica batched kernel (BM_SaSweep*:
//     the items/s column is spin-updates per second, so the batched-kernel
//     speedup is the ratio of the two at equal replica count);
//   * lane scaling of the anneal fan-out (BM_LogicalSampleLanes);
//   * baseline detector costs (Sphere Decoder, zero-forcing).

#include <benchmark/benchmark.h>

#include <string>

#include "quamax/anneal/annealer.hpp"
#include "quamax/anneal/sa_engine.hpp"
#include "quamax/core/detector.hpp"
#include "quamax/detect/linear.hpp"
#include "quamax/detect/sphere.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/runner.hpp"

namespace {

using namespace quamax;
using wireless::Modulation;

wireless::ChannelUse make_use(std::size_t users, Modulation mod, double snr_db) {
  Rng rng{0xBE7C};
  return wireless::make_channel_use(users, users, mod,
                                    wireless::ChannelKind::kRayleigh, snr_db, rng);
}

void BM_ReductionGeneric(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kQpsk, 20.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::reduce_ml_to_ising(use.h, use.y, use.mod));
}
BENCHMARK(BM_ReductionGeneric)->Arg(8)->Arg(16)->Arg(32);

void BM_ReductionClosedForm(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kQpsk, 20.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::reduce_ml_to_ising_closed_form(use.h, use.y, use.mod));
}
BENCHMARK(BM_ReductionClosedForm)->Arg(8)->Arg(16)->Arg(32);

// Embedding cost in its two halves: the placement search plus its layout
// compile, paid once per (shape, chip) and cached; and the per-job
// scale-and-scatter of one problem's coefficients onto that layout.
void BM_PlacementCompile(benchmark::State& state) {
  const chimera::ChimeraGraph chip(16);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(chimera::find_clique_embedding(n, chip));
}
BENCHMARK(BM_PlacementCompile)->Arg(16)->Arg(36)->Arg(60);

void BM_EmbedFill(benchmark::State& state) {
  const chimera::ChimeraGraph chip(16);
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 20.0);
  const auto problem = core::reduce_ml_to_ising(use.h, use.y, use.mod);
  const auto embedding = chimera::find_clique_embedding(problem.num_vars(), chip);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        chimera::embed(problem.ising, embedding, chimera::EmbedParams{}));
}
BENCHMARK(BM_EmbedFill)->Arg(16)->Arg(36)->Arg(60);

void BM_SaAnnealEmbedded(benchmark::State& state) {
  // One anneal at Ta = 1 us on the embedded problem (per-anneal CPU cost of
  // the QA substitute).
  const chimera::ChimeraGraph chip(16);
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 20.0);
  const auto problem = core::reduce_ml_to_ising(use.h, use.y, use.mod);
  const auto embedding = chimera::find_clique_embedding(problem.num_vars(), chip);
  const auto embedded =
      chimera::embed(problem.ising, embedding, chimera::EmbedParams{});
  const anneal::SaEngine engine(embedded.physical);
  const anneal::Schedule schedule;
  const std::vector<double> betas = schedule.betas();
  Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(engine.anneal(betas, rng));
}
BENCHMARK(BM_SaAnnealEmbedded)->Arg(16)->Arg(36)->Arg(60);

// The merged-wave problem ChimeraAnnealer::sample_batch anneals: as many
// disjoint 16-variable clique embeddings as fit on the chip, compiled and
// merged into ONE chip-wide Ising model (chimera::merge_embedded — the
// exact code path sample_batch uses) with all chains registered as
// collective-move groups.  This is the hottest input shape in the system
// (every §4-parallelized decode sweeps it), so it is the throughput yard-
// stick for the scalar-vs-batched kernel comparison.
const chimera::MergedWave& merged_wave_problem() {
  static const chimera::MergedWave wave = [] {
    const chimera::ChimeraGraph chip(16);
    const std::size_t n = 16;  // logical variables per slot (16-user BPSK)
    const auto slots = chimera::find_parallel_embeddings(n, 64, chip);
    Rng rng{0x3A7E};
    // One random clique instance per slot ("identical or not" — §4).
    std::vector<qubo::IsingModel> logical(slots.size(), qubo::IsingModel(n));
    std::vector<const qubo::IsingModel*> problems;
    for (qubo::IsingModel& problem : logical) {
      for (std::size_t i = 0; i < n; ++i) problem.field(i) = rng.normal();
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
          problem.add_coupling(i, j, rng.normal());
      problems.push_back(&problem);
    }
    return chimera::merge_embedded(problems, slots, chimera::EmbedParams{});
  }();
  return wave;
}

const anneal::SaEngine& merged_wave_engine() {
  static const anneal::SaEngine engine = [] {
    anneal::SaEngine e(merged_wave_problem().physical);
    e.set_groups(merged_wave_problem().chains);
    return e;
  }();
  return engine;
}

// R scalar anneal() calls on the merged wave — the per-sample baseline the
// annealers used before the batched kernel.  items/s = spin-updates/s.
void BM_SaSweepScalar(benchmark::State& state) {
  const auto R = static_cast<std::size_t>(state.range(0));
  const anneal::SaEngine& engine = merged_wave_engine();
  const std::vector<double> betas = anneal::Schedule{}.betas();
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < R; ++r) {
      Rng stream = Rng::for_stream(round, r);
      benchmark::DoNotOptimize(engine.anneal(betas, stream));
    }
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * R * betas.size() * engine.num_spins()));
}
BENCHMARK(BM_SaSweepScalar)->Arg(1)->Arg(8)->Arg(16);

// The same R replicas through one anneal_batch() call (bit-identical output;
// batch_replica_test proves it).  anneal_batch hands the problem's own
// arrays to the one interleaved kernel at a replica stride of 0, so each
// call's coefficient transpose is timed, as in BM_SaSweepIceThreshold32.
// Compare items/s against BM_SaSweepScalar at the same R for the
// batched-kernel sweep-throughput speedup, and against
// BM_SaSweepBatchedThreshold32 at the same R for the accept-mode speedup.
// items/s is spin-updates per second; the quamax_spin_updates_per_s counter
// repeats it under a stable name (the quamax_ prefix is what
// tools/bench_to_json.py carries into the artifact).
void sweep_batched_mode(benchmark::State& state, anneal::AcceptMode mode) {
  const auto R = static_cast<std::size_t>(state.range(0));
  const anneal::SaEngine& engine = merged_wave_engine();
  const std::vector<double> betas = anneal::Schedule{}.betas();
  std::uint64_t round = 0;
  for (auto _ : state) {
    std::vector<Rng> streams;
    streams.reserve(R);
    for (std::size_t r = 0; r < R; ++r)
      streams.push_back(Rng::for_stream(round, r));
    benchmark::DoNotOptimize(engine.anneal_batch(betas, streams, nullptr, mode));
    ++round;
  }
  const auto updates = static_cast<std::int64_t>(state.iterations() * R *
                                                 betas.size() *
                                                 engine.num_spins());
  state.SetItemsProcessed(updates);
  state.counters["quamax_spin_updates_per_s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["quamax_replicas"] = static_cast<double>(R);
}

void BM_SaSweepBatched(benchmark::State& state) {
  sweep_batched_mode(state, anneal::AcceptMode::kExact);
}
BENCHMARK(BM_SaSweepBatched)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

// Branch-free threshold acceptance over float32 state/coefficients
// (AcceptMode::kThreshold32, the serving default): no exp(), no
// data-dependent RNG consumption — the accept pass vectorizes at double
// the float64 SIMD width, and on an AVX2 host runs the kernel's AVX2 copy
// (32-byte parts) while exact keeps 16-byte parts.  The ratio to
// BM_SaSweepBatched at equal R is the accept-mode speedup: ~2.3-2.9x at
// R = 8 on a 4-vCPU AVX2 VM.  CI gates it at >= 1.15x at R = 8
// (tools/bench_to_json.py --enforce-ratio BM_SaSweepBatchedThreshold32/8
// BM_SaSweepBatched/8 1.15).
void BM_SaSweepBatchedThreshold32(benchmark::State& state) {
  sweep_batched_mode(state, anneal::AcceptMode::kThreshold32);
}
BENCHMARK(BM_SaSweepBatchedThreshold32)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

// The input serving anneals: threshold32 with ICE on, so every replica
// carries its own perturbed coefficient block through anneal_batch_with
// (the blocks are drawn once outside the timed loop; the kernel's per-call
// rounding and interleaving is timed).  Same kernel as
// BM_SaSweepBatchedThreshold32, which reads one block at a replica stride
// of 0; items/s is spin-updates per second, comparable with it.
void BM_SaSweepIceThreshold32(benchmark::State& state) {
  const auto R = static_cast<std::size_t>(state.range(0));
  const anneal::SaEngine& engine = merged_wave_engine();
  const std::vector<double> betas = anneal::Schedule{}.betas();
  const anneal::IceConfig ice;
  Rng ice_rng{0x1CE};
  std::vector<double> fields, couplings, block;
  for (std::size_t r = 0; r < R; ++r) {
    ice.perturb_fields(engine.base_fields(), block, ice_rng);
    fields.insert(fields.end(), block.begin(), block.end());
    ice.perturb_couplings(engine.base_couplings(), block, ice_rng);
    couplings.insert(couplings.end(), block.begin(), block.end());
  }
  std::uint64_t round = 0;
  for (auto _ : state) {
    std::vector<Rng> streams;
    streams.reserve(R);
    for (std::size_t r = 0; r < R; ++r)
      streams.push_back(Rng::for_stream(round, r));
    benchmark::DoNotOptimize(engine.anneal_batch_with(
        betas, fields, couplings, streams, nullptr,
        anneal::AcceptMode::kThreshold32));
    ++round;
  }
  const auto updates = static_cast<std::int64_t>(state.iterations() * R *
                                                 betas.size() *
                                                 engine.num_spins());
  state.SetItemsProcessed(updates);
  state.counters["quamax_spin_updates_per_s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["quamax_replicas"] = static_cast<double>(R);
}
BENCHMARK(BM_SaSweepIceThreshold32)->Arg(4)->Arg(8);

// The full batched decode path at bench scale: ChimeraAnnealer::sample with
// the configured replica block size (QUAMAX_REPLICAS; the benchmark
// library owns argv, so only the environment knob applies here).
void BM_ChimeraSampleBatchedPath(benchmark::State& state) {
  Rng rng{0xBA7C};
  anneal::ChimeraAnnealer annealer(sim::annealer_config(0, nullptr));
  const auto use = make_use(16, Modulation::kBpsk, 20.0);
  const auto problem = core::reduce_ml_to_ising(use.h, use.y, use.mod);
  for (auto _ : state)
    benchmark::DoNotOptimize(annealer.sample(problem.ising, 64, rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_ChimeraSampleBatchedPath);

// Lane scaling of the anneal fan-out: 1000 anneals of a dense 64-spin
// problem on LogicalAnnealer at range(0) lanes, timed on the wall clock.
// CI gates the 8-lane / 1-lane items/s ratio (the samples themselves are
// bit-identical at any lane count; parallel_sampler_test pins that).
void BM_LogicalSampleLanes(benchmark::State& state) {
  Rng rng{0xBEEF};
  qubo::IsingModel problem(64);
  for (std::size_t i = 0; i < 64; ++i) problem.field(i) = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = i + 1; j < 64; ++j)
      problem.add_coupling(i, j, rng.uniform(-1.0, 1.0));
  anneal::LogicalAnnealerConfig config;
  config.num_threads = static_cast<std::size_t>(state.range(0));
  anneal::LogicalAnnealer annealer(config);
  for (auto _ : state)
    benchmark::DoNotOptimize(annealer.sample(problem, 1000, rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 1000));
}
BENCHMARK(BM_LogicalSampleLanes)->Arg(1)->Arg(8)->UseRealTime();

void BM_Unembed(benchmark::State& state) {
  const auto embedding = chimera::find_clique_embedding(36, chimera::ChimeraGraph(16));
  qubo::SpinVec physical(embedding.compact_to_qubit.size(), 1);
  Rng rng{2};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        chimera::unembed(physical, embedding.compact_chains, rng));
}
BENCHMARK(BM_Unembed);

void BM_SphereDecode(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 13.0);
  const detect::SphereDecoder decoder;
  for (auto _ : state) benchmark::DoNotOptimize(decoder.detect(use));
}
BENCHMARK(BM_SphereDecode)->Arg(12)->Arg(21)->Arg(30);

void BM_ZeroForcing(benchmark::State& state) {
  const auto use = make_use(static_cast<std::size_t>(state.range(0)),
                            Modulation::kBpsk, 13.0);
  for (auto _ : state) benchmark::DoNotOptimize(detect::zero_forcing_detect(use));
}
BENCHMARK(BM_ZeroForcing)->Arg(12)->Arg(30)->Arg(60);

void BM_Eq9ExpectedBer(benchmark::State& state) {
  Rng rng{3};
  anneal::AnnealerConfig config;
  // The benchmark library owns argv: env-only read.
  config.num_threads = sim::knob<std::size_t>(sim::Knob::kThreads);
  anneal::ChimeraAnnealer annealer(config);
  const sim::Instance inst = sim::make_instance(
      {.users = 16, .mod = Modulation::kBpsk, .kind = {}, .snr_db = {}}, rng);
  const sim::RunOutcome outcome = sim::run_instance(inst, annealer, 500, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(outcome.stats.expected_ber(1000));
}
BENCHMARK(BM_Eq9ExpectedBer);

}  // namespace

// BENCHMARK_MAIN, plus the sweep kernel's dispatched instruction sets in
// the run context (quamax_kernel_isa), so a record says which copy of the
// kernel its BM_SaSweep* numbers measure.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "quamax_kernel_isa",
      std::string("threshold32=") + anneal::kernel_isa(anneal::AcceptMode::kThreshold32) +
          " exact=" + anneal::kernel_isa(anneal::AcceptMode::kExact));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
