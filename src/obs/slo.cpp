#include "quamax/obs/slo.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace quamax::obs {
namespace {

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool parse_clause(const std::string& clause, SloSpec* spec,
                  std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      std::string msg = "bad SLO clause '";
      msg += clause;
      msg += "': ";
      msg += why;
      *error = std::move(msg);
    }
    return false;
  };
  const auto le = clause.find("<=");
  if (le == std::string::npos) return fail("expected '<='");
  const std::string signal = strip(clause.substr(0, le));
  if (signal == "miss_rate") {
    spec->kind = SloSpec::Kind::kMissRate;
  } else if (signal == "p99") {
    spec->kind = SloSpec::Kind::kP99;
  } else {
    std::string why = "unknown signal '";
    why += signal;
    why += "' (miss_rate or p99)";
    return fail(why);
  }

  std::string rest = strip(clause.substr(le + 2));
  std::string window_suffix;
  const auto at = rest.find('@');
  if (at != std::string::npos) {
    const std::string win = strip(rest.substr(at + 1));
    rest = strip(rest.substr(0, at));
    const auto slash = win.find('/');
    if (slash == std::string::npos) return fail("expected LONG/SHORT after @");
    // Named strings: `end` points into them after strtol returns.
    const std::string long_str = win.substr(0, slash);
    char* end = nullptr;
    const long lw = std::strtol(long_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || lw <= 0)
      return fail("bad long-window count");
    const std::string short_str = win.substr(slash + 1);
    const long sw = std::strtol(short_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || sw <= 0 || sw > lw)
      return fail("bad short-window count (need 0 < SHORT <= LONG)");
    spec->long_windows = static_cast<std::size_t>(lw);
    spec->short_windows = static_cast<std::size_t>(sw);
    // Keep the explicit depths in the display name: two specs differing
    // only in trailing-window counts must not alias in the alert track.
    char suffix[48];
    std::snprintf(suffix, sizeof(suffix), "@%ld/%ld", lw, sw);
    window_suffix = suffix;
  }

  char* end = nullptr;
  spec->threshold = std::strtod(rest.c_str(), &end);
  // isfinite rejects nan, inf and overflow (1e999): a NaN threshold
  // compares false against everything, and neither prints as valid JSON.
  if (end == nullptr || *end != '\0' || rest.empty() ||
      !std::isfinite(spec->threshold) || spec->threshold <= 0.0) {
    std::string why = "bad threshold '";
    why += rest;
    why += "'";
    return fail(why);
  }
  spec->name = signal;
  spec->name += "<=";
  spec->name += rest;
  spec->name += window_suffix;
  return true;
}

/// Trailing aggregate of `spec.kind` over windows (w - depth, w].
double trailing_value(const std::vector<WindowStats>& windows, std::size_t w,
                      std::size_t depth, SloSpec::Kind kind) {
  const std::size_t k = std::min(depth, w + 1);
  const std::size_t first = w + 1 - k;
  if (kind == SloSpec::Kind::kMissRate) {
    std::int64_t missed = 0;
    std::int64_t resolved = 0;
    for (std::size_t i = first; i <= w; ++i) {
      missed += windows[i].missed;
      resolved += windows[i].resolved;
    }
    return resolved > 0
               ? static_cast<double>(missed) / static_cast<double>(resolved)
               : 0.0;
  }
  QuantileSketch merged;
  for (std::size_t i = first; i <= w; ++i) merged.merge(windows[i].latency);
  return merged.quantile(99.0);
}

}  // namespace

std::vector<SloSpec> parse_slo_specs(const std::string& text,
                                     std::string* error) {
  std::vector<SloSpec> specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const std::string clause = strip(
        text.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos));
    if (!clause.empty()) {
      SloSpec spec;
      if (!parse_clause(clause, &spec, error)) return {};
      specs.push_back(std::move(spec));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return specs;
}

std::vector<SloReport> evaluate_slos(const std::vector<SloSpec>& specs,
                                     const WindowedCollector& collector) {
  const auto& windows = collector.windows();
  std::vector<SloReport> reports;
  reports.reserve(specs.size());
  for (const auto& spec : specs) {
    SloReport report;
    report.spec = spec;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const double short_v =
          trailing_value(windows, w, spec.short_windows, spec.kind);
      if (short_v <= spec.threshold) continue;
      const double long_v =
          trailing_value(windows, w, spec.long_windows, spec.kind);
      if (long_v <= spec.threshold) continue;
      AlertEvent alert;
      alert.slo = spec.name;
      alert.window = w;
      alert.start_us = windows[w].start_us;
      alert.end_us = windows[w].end_us;
      alert.value = short_v;
      alert.long_value = long_v;
      alert.threshold = spec.threshold;
      alert.burn = short_v / spec.threshold;
      report.worst_burn = std::max(report.worst_burn, alert.burn);
      report.alerts.push_back(std::move(alert));
    }
    report.breached_windows = report.alerts.size();
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace quamax::obs
