// figure_common.h -- shared machinery for the ablation and bound
// benches: size sweeps over Barabasi-Albert graphs, multi-instance
// averaging (Sec. 4.1 methodology), and paper-style table output. The
// paper's figures themselves are grid specs (examples/fig8.spec,
// examples/fig10.spec) that `dash_lab run` tabulates.
#pragma once

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/api.h"
#include "exp/figure.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/output.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dash::bench {

struct FigureOptions {
  std::uint64_t instances = 10;  ///< paper uses 30; CI default is lighter
  std::uint64_t seed = 0x0DA5Bu;
  std::uint64_t min_n = 64;
  std::uint64_t max_n = 1024;
  std::uint64_t ba_edges = 2;  ///< BA attachment edges per node
  std::string attack = "neighborofmax";
  std::string csv_path;   ///< optional CSV dump
  std::string json_path;  ///< optional BENCH_*.json summary dump
  std::uint64_t threads = 0;
  bool help = false;  ///< set when --help was given

  /// Parse common flags; returns false if the program should exit
  /// (check `help` to distinguish --help from a parse error).
  bool parse(int argc, char** argv, const std::string& description) {
    dash::util::Options opt(description);
    opt.add_uint("instances", &instances,
                 "random graph instances per data point (paper: 30)");
    opt.add_uint("seed", &seed, "base RNG seed");
    opt.add_uint("min-n", &min_n, "smallest graph size");
    opt.add_uint("max-n", &max_n, "largest graph size (doubling sweep)");
    opt.add_uint("ba-edges", &ba_edges, "BA attachment edges per node");
    opt.add_string("attack", &attack, "attack strategy");
    opt.add_string("csv", &csv_path, "optional path for CSV output");
    opt.add_string("json", &json_path,
                   "optional path for a BENCH_*.json metric summary");
    opt.add_uint("threads", &threads,
                 "worker threads (0 = hardware concurrency)");
    const bool ok = opt.parse(argc, argv);
    help = opt.help_requested();
    return ok && sizes_ok();
  }

  /// The doubling sweep min_n..max_n; throws std::invalid_argument for
  /// a range that is not one (see util::doubling_sizes).
  std::vector<std::size_t> sizes() const {
    return util::doubling_sizes(min_n, max_n);
  }

  /// False, after printing the named error, when --min-n / --max-n do
  /// not describe a sweep; the caller exits 2.
  bool sizes_ok() const {
    try {
      sizes();
      return true;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return false;
    }
  }
};

/// One figure data point: per-strategy summary of a metric at size n.
using MetricFn = std::function<double(const api::Metrics&)>;

struct SeriesPoint {
  std::size_t n = 0;
  std::string strategy;
  dash::util::Summary summary;
};

/// Run the Sec. 4.1 methodology for one (n, strategy) cell on the
/// engine -- every instance plays `scenario` -- and return the
/// per-instance metrics. `configure` registers per-instance observers
/// (stretch tracking and the like); pass nullptr when none are needed.
/// When `json` is given, the cell's metrics land in a freshly begun
/// labelled group.
inline std::vector<api::Metrics> run_cell_results(
    const FigureOptions& fo, std::size_t n, const std::string& healer_spec,
    const api::Scenario& scenario, dash::util::ThreadPool& pool,
    const std::function<void(api::Network&)>& configure = nullptr,
    api::JsonSummarySink* json = nullptr,
    const std::string& strategy_label = "") {
  api::SuiteConfig cfg;
  const std::size_t ba_m = static_cast<std::size_t>(fo.ba_edges);
  cfg.make_graph = [n, ba_m](dash::util::Rng& rng) {
    return graph::barabasi_albert(n, ba_m, rng);
  };
  cfg.make_healer = api::healer_factory(healer_spec);
  cfg.scenario = scenario;
  cfg.configure = configure;
  cfg.instances = static_cast<std::size_t>(fo.instances);
  cfg.base_seed = fo.seed ^ (n * 0x9E3779B97F4A7C15ULL);
  if (json != nullptr) {
    json->begin_group({{"n", std::to_string(n)},
                       {"strategy", strategy_label.empty() ? healer_spec
                                                           : strategy_label},
                       {"scenario", scenario.spec()}});
    cfg.sinks.push_back(json);
  }
  return api::run_suite(cfg, pool);
}

/// run_cell_results + one-metric summary, the common figure cell.
inline dash::util::Summary run_cell(
    const FigureOptions& fo, std::size_t n, const std::string& healer_spec,
    const api::Scenario& scenario, const MetricFn& metric,
    dash::util::ThreadPool& pool,
    const std::function<void(api::Network&)>& configure = nullptr,
    api::JsonSummarySink* json = nullptr,
    const std::string& strategy_label = "") {
  return api::summarize_metric(
      run_cell_results(fo, n, healer_spec, scenario, pool, configure, json,
                       strategy_label),
      metric);
}

/// Print one figure: rows = sizes, one column per strategy (mean of the
/// metric, the same series the paper plots) drawn by exp::print_figure,
/// plus an optional CSV dump with mean/stddev/min/max per cell.
inline void print_figure(
    const std::string& title, const FigureOptions& fo,
    const std::vector<std::string>& strategy_names,
    const std::vector<SeriesPoint>& points,
    const std::string& metric_name) {
  std::cout << "\n== " << title << " ==\n";
  std::cout << "attack=" << fo.attack << " instances=" << fo.instances
            << " ba_edges=" << fo.ba_edges << " metric=" << metric_name
            << "\n\n";

  const std::vector<std::size_t> sizes = fo.sizes();
  std::vector<dash::util::Series> series;
  for (const auto& strat : strategy_names) {
    dash::util::Series s;
    s.label = strat;
    for (std::size_t n : sizes) {
      for (const auto& p : points) {
        if (p.n == n && p.strategy == strat) {
          s.y.push_back(p.summary.mean);
          break;
        }
      }
    }
    series.push_back(std::move(s));
  }
  exp::print_figure(std::cout, sizes, series);

  if (!fo.csv_path.empty()) {
    std::ofstream out(fo.csv_path);
    dash::util::CsvWriter csv(
        out, {"n", "strategy", "metric", "mean", "stddev", "min", "max",
              "median", "instances"});
    for (const auto& p : points) {
      csv.write(p.n, p.strategy, metric_name, p.summary.mean,
                p.summary.stddev, p.summary.min, p.summary.max,
                p.summary.median, p.summary.count);
    }
    dash::util::flush_checked(out, fo.csv_path);
    std::cout << "\nCSV written to " << fo.csv_path << "\n";
  }
}

/// Open the optional BENCH_*.json sink for a figure run; finish()
/// writes the document once the last suite has fed its group.
struct JsonOutput {
  std::string path;
  std::ofstream stream;
  std::optional<api::JsonSummarySink> sink;

  explicit JsonOutput(const std::string& json_path) : path(json_path) {
    if (path.empty()) return;
    stream.open(path);
    sink.emplace(stream);
  }
  /// Write the document; throws util::WriteError when it did not land.
  void finish() {
    if (!sink) return;
    sink->flush();
    util::flush_checked(stream, path);
  }
  api::JsonSummarySink* get() { return sink ? &*sink : nullptr; }
};

/// Exit code for an exception that ends a figure bench: 1 when an
/// output file could not be written, 2 for bad input.
inline int report_error(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return dynamic_cast<const util::WriteError*>(&e) != nullptr ? 1 : 2;
}

}  // namespace dash::bench
