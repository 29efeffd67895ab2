// Experiment-harness tests: instance construction (ground-state anchoring),
// run orchestration, the Fix/Opt sweep aggregation logic of §5.3.2, and the
// knob table every bench/example binary reads its settings through.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/runner.hpp"

namespace quamax::sim {
namespace {

using wireless::Modulation;

TEST(InstanceTest, NoiseFreeGroundIsTransmittedConfiguration) {
  Rng rng{1};
  const ProblemClass cls{.users = 6, .mod = Modulation::kQpsk, .kind = {}, .snr_db = {}};
  const Instance inst = make_instance(cls, rng);
  EXPECT_TRUE(inst.ground_is_ml);
  EXPECT_DOUBLE_EQ(inst.ground_energy, inst.tx_energy);
  EXPECT_EQ(inst.num_vars(), 12u);
  // Absolute energy of the ground state is the zero residual.
  EXPECT_NEAR(inst.tx_energy + inst.problem.ising.offset(), 0.0, 1e-7);
}

TEST(InstanceTest, NoisyGroundComesFromSphereDecoderAndIsNoHigherThanTx) {
  Rng rng{2};
  const ProblemClass cls{.users = 6,
                         .mod = Modulation::kQpsk,
                         .kind = wireless::ChannelKind::kRayleigh,
                         .snr_db = 8.0};
  const Instance inst = make_instance(cls, rng, /*ml_oracle=*/true);
  EXPECT_TRUE(inst.ground_is_ml);
  // ML minimizes the metric, so its energy cannot exceed the transmitted
  // configuration's energy.
  EXPECT_LE(inst.ground_energy, inst.tx_energy + 1e-9);
}

TEST(InstanceTest, OracleCanBeDisabled) {
  Rng rng{3};
  const ProblemClass cls{.users = 4,
                         .mod = Modulation::kBpsk,
                         .kind = wireless::ChannelKind::kRayleigh,
                         .snr_db = 10.0};
  const Instance inst = make_instance(cls, rng, /*ml_oracle=*/false);
  EXPECT_FALSE(inst.ground_is_ml);
  EXPECT_DOUBLE_EQ(inst.ground_energy, inst.tx_energy);
}

TEST(RunnerTest, RunInstanceProducesAnchoredStats) {
  Rng rng{4};
  const ProblemClass cls{.users = 4, .mod = Modulation::kBpsk, .kind = {}, .snr_db = {}};
  const Instance inst = make_instance(cls, rng);

  anneal::AnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;
  anneal::ChimeraAnnealer annealer(config);

  const RunOutcome outcome = run_instance(inst, annealer, 100, rng);
  EXPECT_EQ(outcome.stats.total_anneals(), 100u);
  EXPECT_DOUBLE_EQ(outcome.duration_us, 2.0);
  EXPECT_GT(outcome.parallel_factor, 1.0);
  // Noise-free 4-user BPSK is easy: the ground state shows up.
  EXPECT_GT(outcome.stats.p0(), 0.0);
  EXPECT_LT(outcome_tts_us(outcome), std::numeric_limits<double>::infinity());
}

TEST(RunnerTest, BruteForceOracleYieldsPerfectOutcome) {
  Rng rng{5};
  const ProblemClass cls{.users = 5, .mod = Modulation::kBpsk, .kind = {}, .snr_db = {}};
  const Instance inst = make_instance(cls, rng);
  anneal::BruteForceSampler oracle;
  const RunOutcome outcome = run_instance(inst, oracle, 4, rng);
  EXPECT_DOUBLE_EQ(outcome.stats.p0(), 1.0);
  EXPECT_DOUBLE_EQ(outcome.stats.expected_ber(1), 0.0);
  const auto ttb = outcome_ttb_us(outcome, 1e-6, 1 << 10);
  ASSERT_TRUE(ttb.has_value());
}

void expect_same_outcome(const RunOutcome& got, const RunOutcome& want) {
  EXPECT_EQ(got.duration_us, want.duration_us);
  EXPECT_EQ(got.parallel_factor, want.parallel_factor);
  EXPECT_EQ(got.broken_chain_fraction, want.broken_chain_fraction);
  EXPECT_EQ(got.stats.total_anneals(), want.stats.total_anneals());
  EXPECT_EQ(got.stats.num_bits(), want.stats.num_bits());
  EXPECT_EQ(got.stats.min_energy(), want.stats.min_energy());
  EXPECT_EQ(got.stats.p0(), want.stats.p0());
  ASSERT_EQ(got.stats.ranked().size(), want.stats.ranked().size());
  for (std::size_t r = 0; r < want.stats.ranked().size(); ++r) {
    const metrics::RankedSolution& g = got.stats.ranked()[r];
    const metrics::RankedSolution& w = want.stats.ranked()[r];
    EXPECT_EQ(g.spins, w.spins) << "rank " << r;
    EXPECT_EQ(g.energy, w.energy) << "rank " << r;
    EXPECT_EQ(g.count, w.count) << "rank " << r;
    EXPECT_EQ(g.probability, w.probability) << "rank " << r;
    EXPECT_EQ(g.bit_errors, w.bit_errors) << "rank " << r;
    EXPECT_EQ(g.relative_gap, w.relative_gap) << "rank " << r;
  }
}

TEST(RunnerTest, RunInstancesEqualsPerInstanceStreams) {
  // Instance p of run_instances must equal run_instance on a fresh one-lane
  // annealer drawn with stream p, field for field, at any lane count, with
  // mixed shapes, and after set_config swaps |J_F| between calls.
  Rng gen{6};
  std::vector<Instance> insts;
  for (const auto& [users, mod] :
       {std::pair<std::size_t, Modulation>{4, Modulation::kBpsk},
        {3, Modulation::kQpsk},
        {4, Modulation::kBpsk},
        {3, Modulation::kQpsk}})
    insts.push_back(
        make_instance({.users = users, .mod = mod, .kind = {}, .snr_db = {}}, gen));

  anneal::AnnealerConfig config;
  config.schedule.anneal_time_us = 2.0;
  for (const std::size_t lanes : {1ul, 3ul}) {
    config.num_threads = lanes;
    anneal::ChimeraAnnealer annealer(config);
    Rng rng{8};
    for (const double jf : {0.1, 1.0}) {
      anneal::AnnealerConfig setting = config;
      setting.embed.jf = jf;
      annealer.set_config(setting);
      Rng key_rng = rng;
      const std::uint64_t key = key_rng();
      const std::vector<RunOutcome> outcomes = run_instances(insts, annealer, 40, rng);
      ASSERT_EQ(outcomes.size(), insts.size());
      EXPECT_EQ(rng(), key_rng()) << "run_instances must draw exactly one key";
      if (jf < 0.5) {  // weak chains break, so the fraction is really compared
        double broken = 0.0;
        for (const RunOutcome& outcome : outcomes)
          broken += outcome.broken_chain_fraction;
        EXPECT_GT(broken, 0.0);
      }

      setting.num_threads = 1;
      for (std::size_t p = 0; p < insts.size(); ++p) {
        SCOPED_TRACE("lanes " + std::to_string(lanes) + " jf " +
                     std::to_string(jf) + " instance " + std::to_string(p));
        anneal::ChimeraAnnealer fresh(setting);
        Rng stream = Rng::for_stream(key, p);
        expect_same_outcome(outcomes[p], run_instance(insts[p], fresh, 40, stream));
      }
    }
  }
}

TEST(SweepTest, FixAndOptAggregation) {
  // 3 settings x 4 instances.
  const SweepMatrix matrix{
      {10.0, 20.0, 30.0, 40.0},   // median 25
      {15.0, 5.0, 50.0, 100.0},   // median 32.5
      {12.0, 18.0, 28.0, 200.0},  // median 23 -> Fix
  };
  EXPECT_EQ(best_fixed_setting(matrix), 2u);
  EXPECT_EQ(fix_values(matrix), matrix[2]);
  EXPECT_EQ(opt_per_instance(matrix), (std::vector<double>{10.0, 5.0, 28.0, 40.0}));
}

TEST(SweepTest, InfinitiesAreHandled) {
  const double inf = std::numeric_limits<double>::infinity();
  const SweepMatrix matrix{{inf, inf, inf}, {inf, 3.0, 5.0}};
  EXPECT_EQ(best_fixed_setting(matrix), 1u);  // median 5 beats median inf
  EXPECT_EQ(opt_per_instance(matrix), (std::vector<double>{inf, 3.0, 5.0}));
}

TEST(SweepTest, RaggedMatrixThrows) {
  EXPECT_THROW(opt_per_instance(SweepMatrix{{1.0, 2.0}, {1.0}}), InvalidArgument);
  EXPECT_THROW(best_fixed_setting(SweepMatrix{}), InvalidArgument);
}

TEST(EnvScaleTest, DefaultsOverridesAndValidation) {
  ::unsetenv("QUAMAX_SCALE");
  EXPECT_DOUBLE_EQ(knob<double>(Knob::kScale), 1.0);
  EXPECT_EQ(scaled(10), 10u);

  ::setenv("QUAMAX_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(knob<double>(Knob::kScale), 0.25);
  EXPECT_EQ(scaled(10), 3u);   // rounded
  EXPECT_EQ(scaled(1), 1u);    // floored at 1

  // A malformed or non-positive scale is an error naming the knob, never a
  // silent full-scale run.
  for (const char* bad : {"garbage", "o.5", "0", "-1", "", "inf"}) {
    ::setenv("QUAMAX_SCALE", bad, 1);
    try {
      scaled(10);
      ADD_FAILURE() << "QUAMAX_SCALE=" << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("QUAMAX_SCALE"), std::string::npos);
    }
  }
  ::unsetenv("QUAMAX_SCALE");
}

TEST(CliKnobsTest, AcceptModeNamesRoundTrip) {
  EXPECT_STREQ(anneal::to_string(anneal::AcceptMode::kExact), "exact");
  EXPECT_STREQ(anneal::to_string(anneal::AcceptMode::kThreshold32),
               "threshold32");
}

/// One valid spelling per row, and a malformed one where the row validates
/// (nullptr: the row transports any text).
struct KnobSample {
  const char* valid;
  const char* malformed;
};

constexpr std::array<KnobSample, Knob::kCount> kSamples{{
    {"0.5", "o.5"},                // kScale
    {"4", "-2"},                   // kThreads
    {"16", "0"},                   // kReplicas
    {"threshold32", "threshold"},  // kAcceptMode
    {"4", "pool"},                 // kDevices
    {"edf", nullptr},              // kQueuePolicy
    {"0.5", "1.5"},                // kDownlink
    {"8", "-4"},                   // kTau
    {"0.9", "1"},                  // kCoherence
    {"plan.txt", ""},              // kFaultPlan
    {"3", "lots"},                 // kMaxRetries
    {"zf", nullptr},               // kFallback
    {"run.json", ""},              // kTrace
    {"0", nullptr},                // kProf
    {"prof.json", ""},             // kProfJson
    {"metrics.json", ""},          // kMetrics
    {"250", "-1"},                 // kMetricsWindow
    {"miss_rate<=0.05", nullptr},  // kSlo
    {"out.json", ""},              // kJson
}};

using Argv = std::vector<std::string>;

std::optional<KnobValue> lookup(Knob::Id id, Argv args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return knob_lookup(id, static_cast<int>(argv.size()), argv.data());
}

Argv positionals(Argv args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return positional_args(static_cast<int>(argv.size()), argv.data());
}

/// Runs `fn`, which must throw InvalidArgument prefixed with the row label.
template <typename Fn>
void expect_knob_error(const Knob& row, Fn fn) {
  try {
    fn();
    ADD_FAILURE() << row.label() << ": accepted a bad value";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(row.label() + ": ", 0), 0u) << e.what();
  }
}

TEST(KnobTableTest, EveryRowHonoursTheLookupContract) {
  ASSERT_EQ(knob_table().size(), std::size_t{Knob::kCount});
  for (const Knob& row : knob_table()) {
    SCOPED_TRACE(row.label());
    ASSERT_EQ(&row, &knob_table()[row.id]);
    ASSERT_FALSE(row.flag.empty() && row.env.empty());
    EXPECT_FALSE(row.doc.empty());
    const KnobSample sample = kSamples[row.id];
    const std::string flag(row.flag);
    const std::string env(row.env);
    const KnobValue valid = row.rule(sample.valid, row.label());
    // The default has the type the rule produces.
    EXPECT_EQ(valid.index(), row.fallback.index());
    // A value that must lose to the flag: malformed where the row
    // validates, else merely different.
    const std::string other = sample.malformed != nullptr && *sample.malformed
                                  ? sample.malformed
                                  : row.takes_value() ? "garbage" : "1";
    if (!env.empty()) ::unsetenv(env.c_str());

    if (!flag.empty()) {
      // Both spellings; the first occurrence wins.
      const std::string eq = flag + "=" + sample.valid;
      EXPECT_EQ(lookup(row.id, {eq}), valid);
      EXPECT_EQ(lookup(row.id, {eq, flag + "=" + other}), valid);
      if (row.takes_value()) {
        EXPECT_EQ(lookup(row.id, {flag, sample.valid}), valid);
        expect_knob_error(row, [&] { lookup(row.id, {flag}); });
      } else {
        EXPECT_EQ(lookup(row.id, {flag}), KnobValue(true));
      }
      if (sample.malformed != nullptr)
        expect_knob_error(row, [&] { lookup(row.id, {flag + "=" + sample.malformed}); });
      // positional_args skips every spelling of the flag.
      const Argv spaced = row.takes_value() ? Argv{flag, sample.valid} : Argv{flag};
      Argv args{"alpha"};
      args.insert(args.end(), spaced.begin(), spaced.end());
      args.insert(args.end(), {"beta", eq, "gamma"});
      EXPECT_EQ(positionals(args), (Argv{"alpha", "beta", "gamma"}));
    }

    EXPECT_EQ(lookup(row.id, {}), std::nullopt);
    if (!env.empty()) {
      ::setenv(env.c_str(), sample.valid, 1);
      EXPECT_EQ(lookup(row.id, {}), valid);
      ::setenv(env.c_str(), other.c_str(), 1);
      if (!flag.empty()) {
        // A bad environment variable never aborts a run with a valid flag.
        EXPECT_EQ(lookup(row.id, {flag + "=" + sample.valid}), valid);
      }
      if (sample.malformed != nullptr && *sample.malformed)
        expect_knob_error(row, [&] { lookup(row.id, {}); });
      ::unsetenv(env.c_str());
    }
  }
}

TEST(CliKnobsTest, InfinityIsRejected) {
  // std::stod parses "inf"; a numeric row must still reject it.
  for (const Knob::Id id : {Knob::kMetricsWindow, Knob::kTau}) {
    const Knob& row = knob_table()[id];
    SCOPED_TRACE(row.label());
    expect_knob_error(row, [&] { lookup(id, {std::string(row.flag) + "=inf"}); });
  }
}

TEST(KnobTableTest, TypedReadsFallBackToTheDefault) {
  ::unsetenv("QUAMAX_ACCEPT_MODE");
  ::unsetenv("QUAMAX_REPLICAS");
  ::unsetenv("QUAMAX_PROF");
  EXPECT_EQ(knob<std::size_t>(Knob::kReplicas), 8u);
  EXPECT_EQ(knob<anneal::AcceptMode>(Knob::kAcceptMode), anneal::AcceptMode::kExact);
  EXPECT_EQ(knob_if_set<anneal::AcceptMode>(Knob::kAcceptMode), std::nullopt);
  EXPECT_FALSE(knob<bool>(Knob::kProf));
  // An empty path variable means "off", not a malformed path.
  ::setenv("QUAMAX_TRACE", "", 1);
  EXPECT_EQ(knob<std::string>(Knob::kTrace), "");
  ::unsetenv("QUAMAX_TRACE");
  // Boolean rows: --prof=0 is parsed, not left behind as a positional.
  const char* argv[] = {"bench", "--prof=0", "smoke", "--prof=1"};
  EXPECT_FALSE(knob<bool>(Knob::kProf, 4, const_cast<char**>(argv)));
  EXPECT_EQ(positional_args(4, const_cast<char**>(argv)), (Argv{"smoke"}));
}

anneal::AnnealerConfig annealer_config_of(Argv args,
                                          anneal::AnnealerConfig base = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return annealer_config(static_cast<int>(argv.size()), argv.data(), base);
}

TEST(AnnealerConfigTest, LaysSetKernelRowsOntoTheBase) {
  for (const char* env : {"QUAMAX_THREADS", "QUAMAX_REPLICAS", "QUAMAX_ACCEPT_MODE"})
    ::unsetenv(env);
  // The rows' defaults are AnnealerConfig{}'s, so the default base is a
  // no-op: every binary prints what it printed with hand-copied knobs.
  const anneal::AnnealerConfig plain;
  EXPECT_EQ(knob_table()[Knob::kThreads].fallback, KnobValue(plain.num_threads));
  EXPECT_EQ(knob_table()[Knob::kReplicas].fallback, KnobValue(plain.batch_replicas));
  EXPECT_EQ(knob_table()[Knob::kAcceptMode].fallback, KnobValue(plain.accept_mode));
  const anneal::AnnealerConfig env_only = annealer_config(0, nullptr);
  EXPECT_EQ(env_only.num_threads, plain.num_threads);
  EXPECT_EQ(env_only.batch_replicas, plain.batch_replicas);
  EXPECT_EQ(env_only.accept_mode, plain.accept_mode);

  // A serving-style base keeps threshold32 and its other fields unless a
  // row is set.
  anneal::AnnealerConfig serving;
  serving.accept_mode = anneal::AcceptMode::kThreshold32;
  serving.schedule.anneal_time_us = 7.0;
  const anneal::AnnealerConfig kept = annealer_config_of({"smoke"}, serving);
  EXPECT_EQ(kept.accept_mode, anneal::AcceptMode::kThreshold32);
  EXPECT_EQ(kept.num_threads, 1u);
  EXPECT_EQ(kept.batch_replicas, 8u);
  EXPECT_EQ(kept.schedule.anneal_time_us, 7.0);

  EXPECT_EQ(annealer_config_of({"--accept-mode", "exact"}, serving).accept_mode,
            anneal::AcceptMode::kExact);
  EXPECT_EQ(annealer_config_of({"--threads", "3"}, serving).num_threads, 3u);
  EXPECT_EQ(annealer_config_of({"--replicas=2"}, serving).batch_replicas, 2u);

  // The environment is read when the flag is absent; the flag wins.
  ::setenv("QUAMAX_ACCEPT_MODE", "threshold32", 1);
  EXPECT_EQ(annealer_config_of({}).accept_mode, anneal::AcceptMode::kThreshold32);
  EXPECT_EQ(annealer_config_of({"--accept-mode=exact"}).accept_mode,
            anneal::AcceptMode::kExact);
  ::unsetenv("QUAMAX_ACCEPT_MODE");
}

}  // namespace
}  // namespace quamax::sim
