#include "quamax/sim/report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "quamax/common/error.hpp"

namespace quamax::sim {
namespace {

constexpr int kCellWidth = 14;

/// Shortest round-trip spelling.
std::string json_number(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `, "key": value` for each field.
std::string json_fields(const std::vector<BenchField>& fields) {
  std::string out;
  for (const auto& [key, value] : fields)
    out += ", \"" + key + "\": " + json_number(value);
  return out;
}

}  // namespace

void print_banner(std::string_view experiment, std::string_view paper_artifact,
                  std::string_view parameters) {
  std::printf("\n================================================================\n");
  std::printf("%.*s\n", static_cast<int>(experiment.size()), experiment.data());
  std::printf("Reproduces: %.*s\n", static_cast<int>(paper_artifact.size()),
              paper_artifact.data());
  if (!parameters.empty())
    std::printf("Parameters: %.*s\n", static_cast<int>(parameters.size()),
                parameters.data());
  std::printf("================================================================\n");
}

void print_columns(const std::vector<std::string>& columns) {
  for (const auto& c : columns) std::printf("%-*s", kCellWidth, c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size() * kCellWidth; ++i) std::printf("-");
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%-*s", kCellWidth, c.c_str());
  std::printf("\n");
}

std::string fmt_double(double v, int precision) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (std::isnan(v)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_us(double v) {
  if (std::isinf(v)) return "inf";
  if (std::isnan(v)) return "n/a";
  char buf[64];
  if (v >= 1000.0)
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  else
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string fmt_ber(double v) {
  if (std::isnan(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1e", v);
  return buf;
}

std::string fmt_count(std::size_t v) { return std::to_string(v); }

void write_bench_json(const std::string& path, std::string_view executable,
                      const std::vector<BenchField>& context,
                      const std::vector<BenchRecord>& records) {
  std::string text = "{\n  \"context\": {\"executable\": \"" +
                     std::string(executable) + "\"" + json_fields(context) +
                     "},\n  \"benchmarks\": [\n";
  std::size_t timed = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    const std::string ns = json_number(std::round(r.wall_s * 1e9));
    text += "    {\"name\": \"" + r.name +
            "\", \"run_type\": \"iteration\", \"iterations\": 1, "
            "\"real_time\": " + ns + ", \"cpu_time\": " + ns +
            ", \"time_unit\": \"ns\"";
    if (r.wall_s > 0.0) {
      text += ", \"items_per_second\": " +
              json_number(static_cast<double>(r.items) / r.wall_s);
      ++timed;
    }
    text += json_fields(r.counters) + (i + 1 < records.size() ? "},\n" : "}\n");
  }
  text += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  require(f != nullptr,
          std::string(executable) + ": cannot open --json path " + path);
  const bool written = std::fputs(text.c_str(), f) >= 0;
  require(std::fclose(f) == 0 && written,
          std::string(executable) + ": cannot write --json path " + path);
  std::printf("\nwrote %zu benchmark points to %s\n", timed, path.c_str());
}

}  // namespace quamax::sim
