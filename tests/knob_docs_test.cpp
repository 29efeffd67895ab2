// Documentation check for the knob table: the knob tables of README.md and
// docs/REPRODUCING.md must list every sim::knob_table() row (its flag and
// environment variable) and no knob the code table lacks.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "quamax/sim/knobs.hpp"

namespace quamax::sim {
namespace {

/// The `--flag` and `QUAMAX_*` spellings in one table cell.
void collect_spellings(const std::string& cell, std::set<std::string>& flags,
                       std::set<std::string>& envs) {
  const auto word_end = [&](std::size_t from, auto in_word) {
    while (from < cell.size() && in_word(cell[from])) ++from;
    return from;
  };
  for (std::size_t i = 0; i < cell.size(); ++i) {
    if (cell.compare(i, 2, "--") == 0) {
      const std::size_t end = word_end(i + 2, [](char c) {
        return std::islower(static_cast<unsigned char>(c)) || c == '-' ||
               std::isdigit(static_cast<unsigned char>(c));
      });
      if (end > i + 2) flags.insert(cell.substr(i, end - i));
      i = end;
    } else if (cell.compare(i, 7, "QUAMAX_") == 0) {
      const std::size_t end = word_end(i + 7, [](char c) {
        return std::isupper(static_cast<unsigned char>(c)) || c == '_';
      });
      envs.insert(cell.substr(i, end - i));
      i = end;
    }
  }
}

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream in(line.substr(1));  // drop the leading '|'
  for (std::string cell; std::getline(in, cell, '|');) cells.push_back(cell);
  return cells;
}

/// The (flag, env) spellings of every row of the Markdown table whose header
/// has "Flag" and "Default" columns, read from the cells left of "Default".
/// A spelling the row does not have is "".
std::vector<std::pair<std::string, std::string>> documented_knobs(
    const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::vector<std::pair<std::string, std::string>> rows;
  enum { kOutside, kKnobTable, kOtherTable } state = kOutside;
  std::size_t default_column = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() != '|') {
      state = kOutside;
      continue;
    }
    const std::vector<std::string> cells = split_cells(line);
    if (state == kOutside) {  // a header row
      default_column = 0;
      for (std::size_t c = 0; c < cells.size(); ++c)
        if (cells[c].find("Default") != std::string::npos) default_column = c;
      const bool knobs = line.find("Flag") != std::string::npos && default_column > 0;
      state = knobs ? kKnobTable : kOtherTable;
      continue;
    }
    if (state == kOtherTable || line.rfind("|---", 0) == 0) continue;
    std::set<std::string> flags, envs;
    for (std::size_t c = 0; c < default_column && c < cells.size(); ++c)
      collect_spellings(cells[c], flags, envs);
    EXPECT_LE(flags.size(), 1u) << path << ": " << line;
    EXPECT_LE(envs.size(), 1u) << path << ": " << line;
    rows.emplace_back(flags.empty() ? "" : *flags.begin(),
                      envs.empty() ? "" : *envs.begin());
  }
  return rows;
}

class KnobDocsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KnobDocsTest, KnobTableMatchesTheCode) {
  const std::string path = std::string(QUAMAX_SOURCE_DIR) + "/" + GetParam();
  const auto documented = documented_knobs(path);
  ASSERT_FALSE(documented.empty()) << path << ": no knob table found";

  std::set<std::pair<std::string, std::string>> code;
  for (const Knob& row : knob_table())
    code.emplace(std::string(row.flag), std::string(row.env));
  for (const auto& row : documented)
    EXPECT_TRUE(code.count(row))
        << path << " documents '" << row.first << "' / '" << row.second
        << "', which is not a row of sim::knob_table()";
  const std::set<std::pair<std::string, std::string>> docs(documented.begin(),
                                                           documented.end());
  for (const auto& row : code)
    EXPECT_TRUE(docs.count(row))
        << path << " lacks the knob '" << row.first << "' / '" << row.second
        << "'";
}

INSTANTIATE_TEST_SUITE_P(Docs, KnobDocsTest,
                         ::testing::Values("README.md", "docs/REPRODUCING.md"));

}  // namespace
}  // namespace quamax::sim
