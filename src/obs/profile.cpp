#include "quamax/obs/profile.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace quamax::obs {

struct LaneTable;

namespace {

struct StageCell {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

/// Global profiler state lives outside the Profiler object so LaneTable
/// destructors (thread exit) and the leaked singleton share one home with
/// no destruction-order hazard.
struct GlobalState {
  std::mutex mutex;
  std::vector<std::string> stage_names;
  std::unordered_map<std::string, int> stage_ids;
  std::vector<LaneTable*> live_lanes;
  /// Per-stage totals folded in from exited threads; lanes_retired counts
  /// distinct exited threads that hit the stage at least once.
  std::vector<StageCell> retired;
  std::vector<int> retired_lanes;
};

GlobalState& global() {
  static GlobalState* g = new GlobalState;  // leaked: outlives all threads
  return *g;
}

}  // namespace

/// One thread's (= one pool lane's) sample table.  record() touches only
/// this; the global mutex is involved only at registration and retirement.
struct LaneTable {
  std::vector<StageCell> cells;

  LaneTable() {
    GlobalState& g = global();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.live_lanes.push_back(this);
  }

  ~LaneTable() {
    GlobalState& g = global();
    std::lock_guard<std::mutex> lock(g.mutex);
    flush_locked(g);
    g.live_lanes.erase(
        std::find(g.live_lanes.begin(), g.live_lanes.end(), this));
  }

  void flush_locked(GlobalState& g) {
    if (g.retired.size() < cells.size()) {
      g.retired.resize(cells.size());
      g.retired_lanes.resize(cells.size(), 0);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].calls == 0) continue;
      g.retired[i].calls += cells[i].calls;
      g.retired[i].total_ns += cells[i].total_ns;
      ++g.retired_lanes[i];
      cells[i] = StageCell{};
    }
  }
};

namespace {
LaneTable& lane() {
  thread_local LaneTable table;
  return table;
}
}  // namespace

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler;  // leaked: see header
  return *p;
}

int Profiler::register_stage(const std::string& name) {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lock(g.mutex);
  auto it = g.stage_ids.find(name);
  if (it != g.stage_ids.end()) return it->second;
  const int id = static_cast<int>(g.stage_names.size());
  g.stage_names.push_back(name);
  g.stage_ids.emplace(name, id);
  return id;
}

void Profiler::record(int stage, std::uint64_t elapsed_ns) {
  LaneTable& t = lane();
  if (t.cells.size() <= static_cast<std::size_t>(stage))
    t.cells.resize(static_cast<std::size_t>(stage) + 1);
  StageCell& cell = t.cells[static_cast<std::size_t>(stage)];
  ++cell.calls;
  cell.total_ns += elapsed_ns;
}

std::vector<Profiler::StageTotals> Profiler::table() {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lock(g.mutex);
  const std::size_t n = g.stage_names.size();
  std::vector<StageTotals> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i].name = g.stage_names[i];
  for (std::size_t i = 0; i < n && i < g.retired.size(); ++i) {
    out[i].calls = g.retired[i].calls;
    out[i].total_ns = g.retired[i].total_ns;
    out[i].lanes = g.retired_lanes[i];
  }
  for (const LaneTable* t : g.live_lanes) {
    for (std::size_t i = 0; i < n && i < t->cells.size(); ++i) {
      if (t->cells[i].calls == 0) continue;
      out[i].calls += t->cells[i].calls;
      out[i].total_ns += t->cells[i].total_ns;
      ++out[i].lanes;
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const StageTotals& s) { return s.calls == 0; }),
            out.end());
  std::sort(out.begin(), out.end(),
            [](const StageTotals& a, const StageTotals& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return out;
}

void Profiler::dump(std::ostream& out, std::size_t top_n) {
  std::vector<StageTotals> rows = table();
  if (top_n != 0 && rows.size() > top_n) rows.resize(top_n);
  out << "stage                              calls      total_ms   lanes\n";
  for (const StageTotals& r : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s %9llu  %12.3f  %6d\n",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.calls),
                  static_cast<double>(r.total_ns) / 1e6, r.lanes);
    out << line;
  }
}

std::string Profiler::counter_prefix(const std::string& name) {
  std::string out = "quamax_prof_";
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += '_';
    }
  }
  return out;
}

void Profiler::dump_json(std::ostream& out) {
  const std::vector<StageTotals> rows = table();
  out << "{\"stages\":[";
  bool first = true;
  for (const StageTotals& r : rows) {
    out << (first ? "\n" : ",\n");
    first = false;
    const std::string prefix = counter_prefix(r.name);
    out << "{\"stage\":\"" << r.name << "\",\"calls\":" << r.calls
        << ",\"total_ns\":" << r.total_ns << ",\"lanes\":" << r.lanes << ",\""
        << prefix << "_calls\":" << r.calls << ",\"" << prefix
        << "_total_ns\":" << r.total_ns << "}";
  }
  out << "\n]}\n";
}

void Profiler::reset() {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lock(g.mutex);
  for (LaneTable* t : g.live_lanes)
    for (StageCell& c : t->cells) c = StageCell{};
  for (StageCell& c : g.retired) c = StageCell{};
  for (int& lanes : g.retired_lanes) lanes = 0;
}

}  // namespace quamax::obs
