#include "quamax/fault/plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "quamax/common/error.hpp"
#include "quamax/common/rng.hpp"

namespace quamax::fault {
namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}  // namespace

FallbackMode parse_fallback_mode(const std::string& text) {
  if (text == "none") return FallbackMode::kNone;
  if (text == "zf") return FallbackMode::kZf;
  if (text == "mmse") return FallbackMode::kMmse;
  throw InvalidArgument("fallback mode must be none|zf|mmse, got '" + text +
                        "'");
}

const char* to_string(FallbackMode mode) {
  switch (mode) {
    case FallbackMode::kNone: return "none";
    case FallbackMode::kZf: return "zf";
    case FallbackMode::kMmse: return "mmse";
  }
  return "?";
}

void FaultPlan::validate(std::size_t num_devices) const {
  for (const auto& w : outages) {
    if (w.device >= num_devices)
      throw InvalidArgument("FaultPlan: outage device out of range");
    if (!(w.end_us > w.start_us) || w.start_us < 0.0)
      throw InvalidArgument("FaultPlan: outage window needs 0 <= start < end");
  }
  for (const auto& g : growths) {
    if (g.device >= num_devices)
      throw InvalidArgument("FaultPlan: defect growth device out of range");
    if (g.time_us < 0.0)
      throw InvalidArgument("FaultPlan: defect growth time must be >= 0");
    if (g.qubits.empty())
      throw InvalidArgument("FaultPlan: defect growth lists no qubits");
  }
  if (anneal_failure_prob < 0.0 || anneal_failure_prob > 1.0 ||
      readout_failure_prob < 0.0 || readout_failure_prob > 1.0)
    throw InvalidArgument("FaultPlan: failure probabilities must be in [0,1]");
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("fault plan: cannot open '" + path + "'");
  FaultPlan plan;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank / comment-only line
    const auto fail = [&](const char* what) {
      throw InvalidArgument("fault plan " + path + ":" +
                            std::to_string(lineno) + ": " + what);
    };
    // Every directive must consume its whole line: a trailing token or a
    // number with junk glued on is an error, never silently dropped.
    const auto line_done = [&ls] { return (ls >> std::ws).eof(); };
    if (word == "outage") {
      OutageWindow w;
      if (!(ls >> w.device >> w.start_us >> w.end_us) || !line_done())
        fail("expected 'outage DEVICE START_US END_US'");
      plan.outages.push_back(w);
    } else if (word == "defects") {
      DefectGrowth g;
      if (!(ls >> g.device >> g.time_us))
        fail("expected 'defects DEVICE TIME_US QUBIT...'");
      chimera::Qubit q = 0;
      while (ls >> q) g.qubits.push_back(q);
      if (!ls.eof()) fail("expected 'defects DEVICE TIME_US QUBIT...'");
      if (g.qubits.empty()) fail("defect growth lists no qubits");
      plan.growths.push_back(std::move(g));
    } else if (word == "annealfail") {
      if (!(ls >> plan.anneal_failure_prob) || !line_done())
        fail("expected 'annealfail P'");
    } else if (word == "readoutfail") {
      if (!(ls >> plan.readout_failure_prob) || !line_done())
        fail("expected 'readoutfail P'");
    } else if (word == "seed") {
      if (!(ls >> plan.seed) || !line_done()) fail("expected 'seed S'");
    } else {
      fail("unknown directive");
    }
  }
  return plan;
}

FaultPlan storm_plan(std::size_t devices, double horizon_us,
                     double downtime_fraction, double mean_outage_us,
                     std::uint64_t seed) {
  if (devices == 0) throw InvalidArgument("storm_plan: devices must be > 0");
  if (downtime_fraction <= 0.0 || downtime_fraction >= 1.0)
    throw InvalidArgument("storm_plan: downtime_fraction must be in (0,1)");
  if (mean_outage_us <= 0.0 || horizon_us <= 0.0)
    throw InvalidArgument("storm_plan: horizon and mean outage must be > 0");
  FaultPlan plan;
  plan.seed = seed;
  const double mean_up_us =
      mean_outage_us * (1.0 - downtime_fraction) / downtime_fraction;
  for (std::size_t d = 0; d < devices; ++d) {
    Rng rng = Rng::for_stream(seed, d);
    const auto exp_draw = [&](double mean) {
      // uniform() is in [0,1); 1-u is in (0,1], so the log is finite.
      return -mean * std::log(1.0 - rng.uniform());
    };
    // Random phase into the up/down cycle so devices don't all start "just
    // rebooted": begin with a partial uptime.
    double t = exp_draw(mean_up_us) * rng.uniform();
    while (t < horizon_us) {
      const double down = exp_draw(mean_outage_us);
      plan.outages.push_back({d, t, std::min(t + down, horizon_us)});
      t += down + exp_draw(mean_up_us);
    }
  }
  return plan;
}

double scheduled_downtime_us(const FaultPlan& plan, std::size_t device,
                             double horizon_us) {
  std::vector<std::pair<double, double>> spans;
  for (const auto& w : plan.outages) {
    if (w.device != device || w.start_us >= horizon_us) continue;
    spans.emplace_back(w.start_us, std::min(w.end_us, horizon_us));
  }
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double cursor = 0.0;
  for (const auto& [s, e] : spans) {
    const double lo = std::max(s, cursor);
    if (e > lo) {
      total += e - lo;
      cursor = e;
    }
  }
  return total;
}

Timeline::Timeline(std::shared_ptr<const FaultPlan> plan,
                   const std::vector<std::size_t>& device_qubits) {
  if (plan == nullptr || plan->empty()) return;
  plan->validate(device_qubits.size());
  for (std::size_t i = 0; i < plan->growths.size(); ++i) {
    const DefectGrowth& g = plan->growths[i];
    for (const chimera::Qubit q : g.qubits)
      if (q >= device_qubits[g.device])
        throw InvalidArgument(
            "FaultPlan: defect growth " + std::to_string(i) +
            " disables qubit " + std::to_string(q) + ", outside device " +
            std::to_string(g.device) + "'s " +
            std::to_string(device_qubits[g.device]) + "-qubit chip");
  }
  plan_ = std::move(plan);
  key_ = Rng(plan_->seed)();
  windows_.assign(device_qubits.size(), {});
  for (std::size_t i = 0; i < plan_->outages.size(); ++i) {
    const OutageWindow& w = plan_->outages[i];
    windows_[w.device].push_back(w);
    push(w.start_us, Kind::kOutageEdge, i);
    push(w.end_us, Kind::kOutageEdge, i);
  }
  for (auto& windows : windows_)
    std::sort(windows.begin(), windows.end(),
              [](const OutageWindow& a, const OutageWindow& b) {
                return a.start_us < b.start_us;
              });
  growth_applied_.assign(plan_->growths.size(), 0);
  for (std::size_t i = 0; i < plan_->growths.size(); ++i)
    push(plan_->growths[i].time_us, Kind::kGrowth, i);
}

void Timeline::push(double t_us, Kind kind, std::size_t index) {
  events_.push({t_us, order_++, kind, index});
}

void Timeline::push_wave_fail(double fail_us, std::size_t wave_id) {
  push(fail_us, Kind::kWaveFail, wave_id);
}

double Timeline::next_us() const {
  return events_.empty() ? kInfinity : events_.top().t_us;
}

std::optional<Timeline::Event> Timeline::pop_due(double t_us) {
  if (events_.empty() || events_.top().t_us > t_us) return std::nullopt;
  const Event ev = events_.top();
  events_.pop();
  if (ev.kind == Kind::kGrowth) growth_applied_[ev.index] = 1;
  return ev;
}

double Timeline::up_at(std::size_t device, double t_us) const {
  if (!active()) return t_us;
  // Extend past every window covering t until a fixpoint; the list is
  // start-sorted, so one forward pass suffices.
  double t = t_us;
  for (const OutageWindow& w : windows_[device])
    if (w.start_us <= t && t < w.end_us) t = w.end_us;
  return t;
}

double Timeline::abort_us(std::size_t device, std::size_t wave_id,
                          double dispatch_us, double readout_start_us,
                          double completion_us) const {
  if (!active()) return kInfinity;
  double fail = kInfinity;
  for (const OutageWindow& w : windows_[device])
    if (w.start_us < completion_us && w.end_us > dispatch_us)
      fail = std::min(fail, std::max(dispatch_us, w.start_us));
  for (std::size_t i = 0; i < plan_->growths.size(); ++i) {
    const DefectGrowth& g = plan_->growths[i];
    // A device may pop with a free time predating an already-applied
    // growth, but its wave anneals on the post-growth topology.
    if (growth_applied_[i] == 0 && g.device == device &&
        g.time_us < completion_us)
      fail = std::min(fail, std::max(dispatch_us, g.time_us));
  }
  if (plan_->anneal_failure_prob > 0.0 || plan_->readout_failure_prob > 0.0) {
    Rng draw = Rng::for_stream(key_, wave_id);
    const double u_anneal = draw.uniform();
    const double u_readout = draw.uniform();
    if (u_anneal < plan_->anneal_failure_prob)
      fail = std::min(fail, readout_start_us);
    else if (u_readout < plan_->readout_failure_prob)
      fail = std::min(fail, completion_us);
  }
  return fail;
}

}  // namespace quamax::fault
