// Reporting for the paper-reproduction benchmark binaries: console
// headers that identify the table/figure being regenerated, aligned value
// rows, formatting that mirrors the units the paper uses (microseconds, BER
// as powers of ten), and the one writer of the google-benchmark-shaped
// `--json FILE` record that tools/bench_to_json.py converts.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quamax::sim {

/// Prints a banner naming the experiment and the paper artifact it
/// regenerates, plus the run parameters (so results are self-describing).
void print_banner(std::string_view experiment, std::string_view paper_artifact,
                  std::string_view parameters);

/// Prints a rule-separated table header.
void print_columns(const std::vector<std::string>& columns);

/// Prints one value row aligned with print_columns (same column count).
void print_row(const std::vector<std::string>& cells);

/// Fixed-width number formatting helpers.
std::string fmt_double(double v, int precision = 3);
std::string fmt_us(double v);            ///< "12.3" or "inf" (microseconds)
std::string fmt_ber(double v);           ///< scientific, e.g. "3.2e-05"
std::string fmt_count(std::size_t v);

/// One `"key": number` pair of a --json record, written in list order.
using BenchField = std::pair<std::string, double>;

/// One entry of a --json record: a measured arm, or a pseudo-entry with no
/// wall time (bench_fault's `prof` counters).
struct BenchRecord {
  std::string name;
  double wall_s = 0.0;     ///< real_time = cpu_time; 0 = not a timed arm
  std::size_t items = 0;   ///< items_per_second = items / wall_s
  std::vector<BenchField> counters;  ///< quamax_*-prefixed keys
};

/// Writes `records` as a google-benchmark-shaped JSON file, context
/// {"executable": executable, then `context` in order}.  items_per_second
/// is written only for a positive wall time.  Prints "wrote N benchmark
/// points to PATH", N counting the timed records; throws InvalidArgument
/// when the file cannot be written.
void write_bench_json(const std::string& path, std::string_view executable,
                      const std::vector<BenchField>& context,
                      const std::vector<BenchRecord>& records);

}  // namespace quamax::sim
