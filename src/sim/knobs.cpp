#include "quamax/sim/knobs.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "quamax/common/error.hpp"

namespace quamax::sim {
namespace {

KnobValue count(const std::string& text, const std::string& label) {
  std::size_t pos = 0;
  unsigned long long v = 0;
  // stoull accepts and wraps a leading '-'; reject it up front.
  const bool negative = !text.empty() && text.front() == '-';
  try {
    v = std::stoull(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  require(!negative && pos == text.size() && !text.empty(),
          label + ": expected a non-negative integer, got '" + text + "'");
  require(v <= 4096, label + ": " + text + " is not plausible");
  return static_cast<std::size_t>(v);
}

KnobValue at_least_one(const std::string& text, const std::string& label) {
  const KnobValue v = count(text, label);
  require(std::get<std::size_t>(v) >= 1, label + ": need at least one");
  return v;
}

KnobValue nonnegative(const std::string& text, const std::string& label) {
  double v = 0.0;
  std::size_t pos = 0;
  try {
    v = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  // stod parses "inf"; no knob means anything by an infinite value.
  require(pos == text.size() && !text.empty() && std::isfinite(v) && v >= 0.0,
          label + ": expected a non-negative number, got '" + text + "'");
  return v;
}

KnobValue positive(const std::string& text, const std::string& label) {
  const KnobValue v = nonnegative(text, label);
  require(std::get<double>(v) > 0.0,
          label + ": must be positive, got '" + text + "'");
  return v;
}

KnobValue fraction(const std::string& text, const std::string& label) {
  const KnobValue v = nonnegative(text, label);
  require(std::get<double>(v) <= 1.0, label + ": fraction must be in [0, 1]");
  return v;
}

KnobValue coherence(const std::string& text, const std::string& label) {
  const KnobValue v = nonnegative(text, label);
  require(std::get<double>(v) < 1.0, label + ": coherence must be in [0, 1)");
  return v;
}

KnobValue text(const std::string& text, const std::string&) { return text; }

KnobValue path(const std::string& text, const std::string& label) {
  require(!text.empty(), label + ": need a file path");
  return text;
}

/// Any value but "" and "0" switches a boolean row on.
KnobValue boolean(const std::string& text, const std::string&) {
  return !text.empty() && text != "0";
}

KnobValue accept_mode(const std::string& text, const std::string& label) {
  if (text == "exact") return anneal::AcceptMode::kExact;
  if (text == "threshold32") return anneal::AcceptMode::kThreshold32;
  throw InvalidArgument(label +
                        ": expected exact or threshold32, got '" +
                        text + "'");
}

using std::size_t;
using std::string;

// Rows sit at their Id's index (sim_test checks it): knob_table()[id] is
// the lookup.  A function-local static, so the table is built before any
// first read.
const std::array<Knob, Knob::kCount>& table() {
  static const std::array<Knob, Knob::kCount> rows{{
      {Knob::kScale, "", "QUAMAX_SCALE", 1.0, positive,
       "multiplier on instance and anneal counts, smoke to paper scale"},
      {Knob::kThreads, "--threads", "QUAMAX_THREADS", size_t{1}, count,
       "batch-runtime lanes; 0 = one per hardware thread"},
      {Knob::kReplicas, "--replicas", "QUAMAX_REPLICAS", size_t{8}, at_least_one,
       "replicas per batched SA kernel call; 1 = scalar path"},
      {Knob::kAcceptMode, "--accept-mode", "QUAMAX_ACCEPT_MODE",
       anneal::AcceptMode::kExact, accept_mode,
       "sweep-kernel acceptance rule: exact or threshold32"},
      {Knob::kDevices, "--devices", "QUAMAX_DEVICES", size_t{1}, at_least_one,
       "modeled QA processors in the decode scheduler's pool"},
      {Knob::kQueuePolicy, "--queue-policy", "QUAMAX_QUEUE_POLICY", string("fifo"),
       text, "dispatch discipline, validated by sched::parse_queue_policy"},
      {Knob::kDownlink, "--downlink", "QUAMAX_DOWNLINK", 0.0, fraction,
       "fraction of serve releases that are downlink VPP jobs, in [0, 1]"},
      {Knob::kTau, "--tau", "QUAMAX_TAU", 0.0, nonnegative,
       "VPP perturbation modulus override; 0 = constellation default"},
      {Knob::kCoherence, "--coherence", "QUAMAX_COHERENCE", 0.0, coherence,
       "subframe channel coherence in [0, 1); 0 = i.i.d. channels"},
      {Knob::kFaultPlan, "--fault-plan", "QUAMAX_FAULT_PLAN", string(), path,
       "fault::load_fault_plan schedule file; empty = fault-free"},
      {Knob::kMaxRetries, "--max-retries", "QUAMAX_MAX_RETRIES", size_t{0}, count,
       "per-job requeue budget for members of failed waves"},
      {Knob::kFallback, "--fallback", "QUAMAX_FALLBACK", string("none"), text,
       "classical decode ladder, validated by fault::parse_fallback_mode"},
      {Knob::kTrace, "--trace", "QUAMAX_TRACE", string(), path,
       "Chrome trace-event JSON of the observed run; empty = off"},
      {Knob::kProf, "--prof", "QUAMAX_PROF", false, boolean,
       "wall-clock stage profile, dumped to stderr at exit"},
      {Knob::kProfJson, "--prof-json", "QUAMAX_PROF_JSON", string(), path,
       "per-stage profile as JSON; implies --prof"},
      {Knob::kMetrics, "--metrics", "QUAMAX_METRICS", string(), path,
       "windowed telemetry JSON (quamax-metrics-v1); empty = off"},
      {Knob::kMetricsWindow, "--metrics-window", "QUAMAX_METRICS_WINDOW", 0.0,
       nonnegative, "tumbling-window width in virtual us; 0 = horizon / 20"},
      {Knob::kSlo, "--slo", "QUAMAX_SLO", string(), text,
       "SLO specs, validated by obs::parse_slo_specs; empty = none"},
      {Knob::kJson, "--json", "", string(), path,
       "google-benchmark-shaped record of every measured arm"},
  }};
  return rows;
}

/// How many argv entries `row`'s flag occupies at argv[i] (`--f V`, `--f=V`,
/// or a bare boolean `--f`), 0 when argv[i] is not that flag; sets the raw
/// value.  The one definition of flag syntax, shared by the lookup and
/// positional_args.
int flag_at(const Knob& row, int argc, char** argv, int i,
            std::string_view& value) {
  if (row.flag.empty()) return 0;
  const std::string_view arg = argv[i];
  if (arg == row.flag) {
    if (!row.takes_value()) {
      value = "1";
      return 1;
    }
    require(i + 1 < argc, row.label() + ": missing value");
    value = argv[i + 1];
    return 2;
  }
  if (!arg.starts_with(row.flag) || arg.size() == row.flag.size() ||
      arg[row.flag.size()] != '=')
    return 0;
  value = arg.substr(row.flag.size() + 1);
  return 1;
}

}  // namespace

bool Knob::takes_value() const {
  return !std::holds_alternative<bool>(fallback);
}

std::string Knob::label() const {
  if (flag.empty()) return std::string(env);
  if (env.empty()) return std::string(flag);
  return std::string(flag) + " / " + std::string(env);
}

std::span<const Knob> knob_table() { return table(); }

std::optional<KnobValue> knob_lookup(Knob::Id id, int argc, char** argv) {
  const Knob& row = table()[id];
  std::string_view value;
  for (int i = 1; i < argc; ++i)
    if (flag_at(row, argc, argv, i, value) != 0)
      return row.rule(std::string(value), row.label());
  if (row.env.empty()) return std::nullopt;
  const char* raw = std::getenv(std::string(row.env).c_str());
  if (raw == nullptr) return std::nullopt;
  // An empty path or spec variable means "off", like leaving it unset.
  if (*raw == '\0' && row.fallback == KnobValue(string())) return std::nullopt;
  return row.rule(raw, row.label());
}

anneal::AnnealerConfig annealer_config(int argc, char** argv,
                                       anneal::AnnealerConfig base) {
  if (auto v = knob_if_set<std::size_t>(Knob::kThreads, argc, argv))
    base.num_threads = *v;
  if (auto v = knob_if_set<std::size_t>(Knob::kReplicas, argc, argv))
    base.batch_replicas = *v;
  if (auto v = knob_if_set<anneal::AcceptMode>(Knob::kAcceptMode, argc, argv))
    base.accept_mode = *v;
  return base;
}

std::size_t scaled(std::size_t base) {
  const double v =
      std::round(static_cast<double>(base) * knob<double>(Knob::kScale));
  return static_cast<std::size_t>(std::max(1.0, v));
}

std::vector<std::string> positional_args(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc;) {
    int consumed = 0;
    std::string_view value;
    for (const Knob& row : table())
      if ((consumed = flag_at(row, argc, argv, i, value)) != 0) break;
    if (consumed == 0) out.emplace_back(argv[i]);
    i += std::max(consumed, 1);
  }
  return out;
}

}  // namespace quamax::sim
