// Tests for exp::print_grid_figures, the size x healer tables a
// finished `dash_lab run` prints on stderr: which tables appear and in
// what order, how rows and columns are laid out, and that every cell is
// the per-cell mean of the runs the grid already holds.
#include "exp/figure.h"

#include <gtest/gtest.h>

#include <charconv>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "api/suite.h"

namespace dash::exp {
namespace {

constexpr const char* kGrid =
    "n=16|32 healer=graph|dash scenario=until-half instances=2 seed=5";

const std::vector<std::string> kTitles{
    "Figure 8: maximum degree increase vs graph size",
    "Figure 9(a): max ID changes per node vs graph size",
    "Figure 9(b): max messages sent per node vs graph size",
    "Healing edges added vs graph size (total over the schedule)",
    "Figure 10: max stretch vs graph size (max over sampled rounds)",
};

/// The metric each table of kTitles tabulates, in the same order.
const std::vector<std::function<double(const api::Metrics&)>> kMetrics{
    [](const api::Metrics& m) { return static_cast<double>(m.max_delta); },
    [](const api::Metrics& m) {
      return static_cast<double>(m.max_id_changes);
    },
    [](const api::Metrics& m) {
      return static_cast<double>(m.max_messages_sent);
    },
    [](const api::Metrics& m) { return static_cast<double>(m.edges_added); },
    [](const api::Metrics& m) { return m.max_stretch; },
};

struct PrintedTable {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

std::vector<std::string> words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

/// Every "== title ==" block of `text`: its table header and rows (the
/// ASCII plot after the blank line that ends the table is skipped).
std::vector<PrintedTable> parse_tables(const std::string& text) {
  std::vector<PrintedTable> tables;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("== ", 0) != 0) continue;
    PrintedTable t;
    t.title = line.substr(3, line.size() - 6);
    std::getline(in, line);  // family=... metric=...
    std::getline(in, line);  // blank
    std::getline(in, line);
    t.header = words(line);
    std::getline(in, line);  // dashes
    while (std::getline(in, line) && !line.empty()) {
      t.rows.push_back(words(line));
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

std::string two_decimals(double v) {
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 2);
  EXPECT_EQ(ec, std::errc{});
  return std::string(buf, end);
}

struct Printed {
  std::vector<CellResult> results;
  std::vector<PrintedTable> tables;
};

Printed print(const std::string& grid) {
  const ExperimentSpec spec = ExperimentSpec::parse_line(grid);
  RunnerOptions opt;
  opt.threads = 1;
  Printed p;
  p.results = run(spec, opt);
  std::ostringstream out;
  print_grid_figures(out, spec, p.results);
  p.tables = parse_tables(out.str());
  return p;
}

std::vector<std::string> titles(const std::vector<PrintedTable>& tables) {
  std::vector<std::string> out;
  for (const auto& t : tables) out.push_back(t.title);
  return out;
}

TEST(GridFigures, TablesInOrderWithoutStretch) {
  const Printed p = print(kGrid);
  const std::vector<std::string> want(kTitles.begin(), kTitles.end() - 1);
  EXPECT_EQ(titles(p.tables), want);
}

TEST(GridFigures, StretchTableOnlyWhenTheGridSamplesStretch) {
  const Printed p = print(std::string(kGrid) + " stretch_every=2");
  EXPECT_EQ(titles(p.tables), kTitles);
}

TEST(GridFigures, RowsAreSizesAndColumnsFirstSeenHealers) {
  const Printed p = print(kGrid);
  ASSERT_EQ(p.tables.size(), 4u);
  // graph before dash, as the grid lists them (not sorted by label).
  EXPECT_EQ(p.tables[0].header,
            (std::vector<std::string>{"n", "GraphHeal", "DASH", "2log2(n)"}));
  EXPECT_EQ(p.tables[1].header,
            (std::vector<std::string>{"n", "GraphHeal", "DASH", "2ln(n)"}));
  for (std::size_t t : {2u, 3u}) {
    EXPECT_EQ(p.tables[t].header,
              (std::vector<std::string>{"n", "GraphHeal", "DASH"}))
        << p.tables[t].title;
  }
  for (const auto& table : p.tables) {
    ASSERT_EQ(table.rows.size(), 2u) << table.title;
    EXPECT_EQ(table.rows[0][0], "16");
    EXPECT_EQ(table.rows[1][0], "32");
  }
}

TEST(GridFigures, EveryCellIsTheMeanOfItsRuns) {
  const Printed p = print(std::string(kGrid) + " stretch_every=2");
  ASSERT_EQ(p.tables.size(), kMetrics.size());
  for (std::size_t t = 0; t < kMetrics.size(); ++t) {
    const PrintedTable& table = p.tables[t];
    for (const CellResult& r : p.results) {
      const std::size_t row = r.cell.n == 16 ? 0 : 1;
      const std::size_t col = r.cell.healer == "graph" ? 1 : 2;
      ASSERT_LT(col, table.rows[row].size()) << table.title;
      EXPECT_EQ(table.rows[row][col],
                two_decimals(api::summarize_metric(r.runs, kMetrics[t]).mean))
          << table.title << " n=" << r.cell.n << " " << r.cell.healer;
    }
  }
}

}  // namespace
}  // namespace dash::exp
