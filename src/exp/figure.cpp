#include "exp/figure.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

#include "api/suite.h"
#include "util/check.h"
#include "util/table.h"

namespace dash::exp {

namespace {

/// One paper figure over a grid: the per-node metric it plots and the
/// reference curve it is read against (none when `reference` is null).
struct FigureMetric {
  const char* title;
  const char* name;
  double (*value)(const api::Metrics&);
  const char* reference;
  double (*bound)(double n);
};

constexpr FigureMetric kGridFigures[] = {
    {"Figure 8: maximum degree increase vs graph size", "max_delta",
     [](const api::Metrics& m) { return static_cast<double>(m.max_delta); },
     "2log2(n)", [](double n) { return 2.0 * std::log2(n); }},
    {"Figure 9(a): max ID changes per node vs graph size", "max_id_changes",
     [](const api::Metrics& m) {
       return static_cast<double>(m.max_id_changes);
     },
     "2ln(n)", [](double n) { return 2.0 * std::log(n); }},
    {"Figure 9(b): max messages sent per node vs graph size",
     "max_messages_sent",
     [](const api::Metrics& m) {
       return static_cast<double>(m.max_messages_sent);
     },
     nullptr, nullptr},
    {"Figure 10: max stretch vs graph size (max over sampled rounds)",
     "max_stretch", [](const api::Metrics& m) { return m.max_stretch; },
     "log2(n)", [](double n) { return std::log2(n); }},
};

/// Position of `value` in `list`, appending it when absent.
template <typename T>
std::size_t slot(std::vector<T>& list, const T& value) {
  const auto it = std::find(list.begin(), list.end(), value);
  if (it != list.end()) return static_cast<std::size_t>(it - list.begin());
  list.push_back(value);
  return list.size() - 1;
}

}  // namespace

void print_figure(std::ostream& out, const std::vector<std::size_t>& sizes,
                  const std::vector<util::Series>& series,
                  const std::vector<util::Series>& references) {
  std::vector<std::string> header{"n"};
  for (const auto& s : series) header.push_back(s.label);
  for (const auto& r : references) header.push_back(r.label);
  util::Table table(header);
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    table.begin_row().cell(sizes[row]);
    for (const auto* columns : {&series, &references}) {
      for (const auto& column : *columns) {
        DASH_CHECK_MSG(column.y.size() == sizes.size(),
                       "figure column without one value per size");
        table.cell(column.y[row], 2);
      }
    }
  }
  table.print(out);

  if (series.empty() || sizes.size() < 2) return;
  std::vector<std::string> x_labels;
  for (const std::size_t n : sizes) x_labels.push_back(std::to_string(n));
  out << '\n';
  util::ascii_plot(out, x_labels, series);
}

void print_grid_figures(std::ostream& out, const ExperimentSpec& spec,
                        const std::vector<CellResult>& results) {
  // One figure set per (family, scenario), in enumeration order; rows
  // are sizes and columns healers, each in first-seen order.
  struct Group {
    std::string family;
    std::string scenario;
    std::vector<const CellResult*> cells;
    bool operator==(const Group& o) const {
      return family == o.family && scenario == o.scenario;
    }
  };
  std::vector<Group> groups;
  for (const CellResult& result : results) {
    const std::size_t g =
        slot(groups, Group{result.cell.family, result.cell.scenario, {}});
    groups[g].cells.push_back(&result);
  }

  // Fig. 10 (last in kGridFigures) only when the grid samples stretch.
  const std::size_t figures = spec.stretch_every > 0 ? 4 : 3;
  for (const Group& group : groups) {
    std::vector<std::size_t> sizes;
    std::vector<std::string> healers;
    std::vector<util::Series> columns;
    for (const CellResult* result : group.cells) {
      slot(sizes, result->cell.n);
      if (slot(healers, result->cell.healer) == columns.size()) {
        columns.push_back({result->cell.strategy_label, {}});
      }
    }
    for (std::size_t f = 0; f < figures; ++f) {
      const FigureMetric& figure = kGridFigures[f];
      std::vector<util::Series> series = columns;
      for (auto& s : series) s.y.assign(sizes.size(), 0.0);
      for (const CellResult* result : group.cells) {
        series[slot(healers, result->cell.healer)]
            .y[slot(sizes, result->cell.n)] =
            api::summarize_metric(result->runs, figure.value).mean;
      }
      std::vector<util::Series> references;
      if (figure.reference != nullptr) {
        util::Series ref{figure.reference, {}};
        for (const std::size_t n : sizes) {
          ref.y.push_back(figure.bound(static_cast<double>(n)));
        }
        references.push_back(std::move(ref));
      }
      out << "\n== " << figure.title << " ==\n"
          << "family=" << group.family << " scenario=" << group.scenario
          << " instances=" << spec.instances
          << " ba_edges=" << spec.ba_edges << " metric=" << figure.name
          << "\n\n";
      print_figure(out, sizes, series, references);
    }
  }
}

}  // namespace dash::exp
