// paper_grid -- the reproduction job researchers run: the Fig. 8
// degree-increase grid (five healers, n = 512..4096, NMS attack until
// the graph is gone) and the Fig. 10 stretch grid (five healers,
// n = 256..1024, MaxNode to half size, exact stretch every 4th
// deletion), each an exp::run over thousands of small engines on a
// 2-worker util::ThreadPool plus the calling thread (3 threads).
//
// exp::run is opaque per cell, so the unit timed here is the cell: the
// gap between consecutive RunnerOptions::on_cell callbacks.
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/api.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kHealers = "graph|line|binarytree|dash|sdash";
constexpr std::size_t kInstances = 3;
/// RunnerOptions::threads: pool workers; the calling thread also runs
/// instances (ThreadPool::parallel_for), so 2 workers use 3 cores.
constexpr std::size_t kPoolThreads = 2;
// Grid passes (both grids) per second of --seconds, sized so the
// parent's run takes about that long on a 4-core x86 box.
constexpr double kPassesPerSecond = 0.25;
constexpr int kSetupReps = 5;

struct Grids {
  dash::exp::ExperimentSpec degree;   ///< Fig. 8
  dash::exp::ExperimentSpec stretch;  ///< Fig. 10
};

Grids make_grids(std::uint64_t seed, std::size_t stretch_every) {
  const std::string common = " healer=" + std::string(kHealers) +
                             " instances=" + std::to_string(kInstances) +
                             " seed=" + std::to_string(seed);
  Grids g;
  g.degree = dash::exp::ExperimentSpec::parse_line(
      "name=fig8 n=512|1024|2048|4096 scenario=targeted:neighborofmax" + common);
  g.stretch = dash::exp::ExperimentSpec::parse_line(
      "name=fig10 n=256|512|1024 scenario=untilfrac:0.5,maxnode stretch_every=" +
      std::to_string(stretch_every) + common);
  return g;
}

/// Set-up: parse, validate and enumerate both grids, then build the
/// engines of one healer's cells the way every grid run does (graph,
/// Network, and the exact stretch baseline for Fig. 10) -- the
/// per-engine set-up the grid's runs pay, for one run per size and
/// instance.
double setup_once(std::uint64_t seed) {
  const TimePoint t0 = Clock::now();
  const Grids g = make_grids(seed, 4);
  for (const auto* spec : {&g.degree, &g.stretch}) {
    std::set<std::size_t> sizes;
    for (const dash::exp::Cell& cell : spec->enumerate()) sizes.insert(cell.n);
    for (std::size_t n : sizes) {
      for (std::size_t i = 0; i < kInstances; ++i) {
        dash::util::Rng rng(seed + n + i);
        dash::api::Network net(
            dash::exp::make_family("ba", n, spec->ba_edges)(rng), "dash", seed + i);
        if (spec->stretch_every > 0) {
          net.add_observer(std::make_unique<dash::api::StretchObserver>(
              spec->stretch_every));
        }
      }
    }
  }
  return seconds_between(t0, Clock::now());
}

struct GridRun {
  std::string document;  ///< merged BENCH document
  double wall_s = 0.0;
  std::size_t runs = 0;
  std::size_t events = 0;
  std::size_t max_delta = 0, surrogate_heals = 0, edges = 0, deletions = 0;
};

GridRun run_grid(const dash::exp::ExperimentSpec& spec, std::size_t threads,
                 Samples* cell_us, SpanLog* log, std::int64_t parent,
                 Report& report) {
  GridRun r;
  std::vector<dash::exp::ShardRecord> records;
  dash::exp::RunnerOptions opt;
  opt.threads = threads;
  TimePoint prev = Clock::now();
  const TimePoint t0 = prev;
  const std::int64_t grid_span =
      log != nullptr ? log->open("exp.grid", t0, parent, 0) : -1;
  opt.on_cell = [&](const dash::exp::CellResult& cell) {
    const TimePoint now = Clock::now();
    if (cell_us != nullptr) cell_us->add(micros_between(prev, now));
    if (log != nullptr) log->add("exp.cell", prev, now, grid_span, cell.cell.index);
    prev = now;
    records.push_back(dash::exp::to_record(spec, cell));
    for (std::size_t i = 0; i < cell.runs.size(); ++i) {
      const dash::api::Metrics& m = cell.runs[i];
      ++r.runs;
      r.events += m.deletions + m.joins;
      r.deletions += m.deletions;
      r.edges += m.edges_added;
      r.surrogate_heals += m.surrogate_heals;
      r.max_delta = std::max<std::size_t>(r.max_delta, m.max_delta);
      check_healed(report, m, cell.cell.healer, cell.cell.n,
                   spec.name + " cell " + std::to_string(cell.cell.index) +
                       " run " + std::to_string(i));
    }
  };
  dash::exp::run(spec, opt);
  const TimePoint t1 = Clock::now();
  if (log != nullptr) log->close(grid_span, t1);
  r.wall_s = seconds_between(t0, t1);
  r.document = dash::exp::merged_document(spec, records);
  report.attempt(r.runs);
  return r;
}

struct Pass {
  GridRun degree, stretch;
  double wall_s() const { return degree.wall_s + stretch.wall_s; }
};

struct Passes {
  std::vector<Pass> passes;
  Samples cell_us;
  double wall_s = 0.0;
  std::size_t events = 0, degree_runs = 0, stretch_runs = 0;
  double degree_s = 0.0, stretch_s = 0.0;
};

Passes run_passes(const Grids& g, std::size_t count, SpanLog* log,
                  Report& report) {
  Passes out;
  for (std::size_t k = 0; k < count; ++k) {
    const TimePoint t0 = Clock::now();
    const std::int64_t root = log != nullptr ? log->open("bench.pass", t0, -1, k) : -1;
    Pass p;
    p.degree = run_grid(g.degree, kPoolThreads, &out.cell_us, log, root, report);
    p.stretch = run_grid(g.stretch, kPoolThreads, &out.cell_us, log, root, report);
    if (log != nullptr) log->close(root, Clock::now());
    out.wall_s += p.wall_s();
    out.events += p.degree.events + p.stretch.events;
    out.degree_runs += p.degree.runs;
    out.stretch_runs += p.stretch.runs;
    out.degree_s += p.degree.wall_s;
    out.stretch_s += p.stretch.wall_s;
    if (!out.passes.empty()) {
      report.check(p.degree.document == out.passes.front().degree.document &&
                       p.stretch.document == out.passes.front().stretch.document,
                   "paper_grid pass " + std::to_string(k) +
                       " BENCH documents equal pass 0's");
    }
    out.passes.push_back(std::move(p));
  }
  return out;
}

void end_to_end(const Passes& p, double setup_s, MetricSet& out,
                Report& report) {
  const TailPick tail = pick_tail(p.cell_us.count());
  out.set("setup_s", setup_s);
  out.set("events_per_s", static_cast<double>(p.events) / p.wall_s);
  out.set("op_p50_us", p.cell_us.median());
  out.set("op_tail_us", p.cell_us.quantile(tail.q));
  report.note("op = one grid cell (exp::run on_cell to on_cell); op_tail_us is the " +
              tail.label + " of " + std::to_string(p.cell_us.count()) + " cells");
  report.note("paper_grid degree_runs_per_s = " +
              std::to_string(p.degree_runs / p.degree_s) + " 1/s (" +
              std::to_string(p.degree_runs) + " Fig. 8 runs)");
  report.note("paper_grid stretch_runs_per_s = " +
              std::to_string(p.stretch_runs / p.stretch_s) + " 1/s (" +
              std::to_string(p.stretch_runs) + " Fig. 10 runs)");
}

}  // namespace

void run_paper_grid(const RunConfig& cfg, Report& report) {
  const auto passes = static_cast<std::size_t>(
      std::max(2.0, std::round(cfg.seconds * kPassesPerSecond)));
  const Grids g = make_grids(cfg.seed, 4);
  report.note("paper_grid: " + std::to_string(passes) + " passes of " +
              std::to_string(g.degree.enumerate().size()) + " Fig. 8 cells + " +
              std::to_string(g.stretch.enumerate().size()) + " Fig. 10 cells, " +
              std::to_string(kInstances) + " instances each, " +
              std::to_string(kPoolThreads) + " pool workers + caller");

  MetricSet e2e(end_to_end_metrics(), false);
  std::vector<double> setups;
  for (int rep = 0; rep < (cfg.trace ? 1 : kSetupReps); ++rep) {
    setups.push_back(setup_once(cfg.seed));
  }
  const Passes plain = run_passes(g, passes, nullptr, report);
  end_to_end(plain, quantile(setups, 0.5), e2e, report);
  if (!cfg.trace) {
    e2e.emit(report);
    return;
  }

  SpanLog log(Clock::now(), std::size_t{1} << 16);
  const Passes traced = run_passes(g, passes, &log, report);
  report.check(traced.passes.front().degree.document ==
                       plain.passes.front().degree.document &&
                   traced.passes.front().stretch.document ==
                       plain.passes.front().stretch.document,
               "traced and untraced paper_grid BENCH documents are identical");

  // The same pass on one thread: the pool's speedup, and the documents
  // must not depend on the thread count.
  const GridRun degree1 = run_grid(g.degree, 1, nullptr, nullptr, -1, report);
  const GridRun stretch1 = run_grid(g.stretch, 1, nullptr, nullptr, -1, report);
  report.check(degree1.document == plain.passes.front().degree.document &&
                   stretch1.document == plain.passes.front().stretch.document,
               "paper_grid documents are identical on 1 and 3 threads");
  // The Fig. 10 grid with stretch sampling off: the exact tracker's share.
  const GridRun unsampled =
      run_grid(make_grids(cfg.seed, 0).stretch, kPoolThreads, nullptr, nullptr, -1, report);

  std::vector<double> pass_s, stretch_s;
  for (const Pass& p : plain.passes) {
    pass_s.push_back(p.wall_s());
    stretch_s.push_back(p.stretch.wall_s);
  }
  MetricSet layers(per_layer_metrics(), true);
  const GridRun& d = traced.passes.front().degree;
  const GridRun& s = traced.passes.front().stretch;
  layers.set("core.edges_added_per_deletion",
             static_cast<double>(d.edges + s.edges) /
                 static_cast<double>(d.deletions + s.deletions));
  layers.set("core.max_delta", static_cast<double>(std::max(d.max_delta, s.max_delta)));
  layers.set("core.surrogate_heals",
             static_cast<double>(d.surrogate_heals + s.surrogate_heals));
  layers.set("analysis.exact_stretch_share",
             1.0 - unsampled.wall_s / quantile(stretch_s, 0.5));
  layers.set("exp.cell_s_p50", traced.cell_us.median() / 1e6);
  layers.set("exp.cell_s_max", traced.cell_us.max() / 1e6);
  layers.set("exp.pool_speedup",
             (degree1.wall_s + stretch1.wall_s) / quantile(pass_s, 0.5));
  layers.set("trace.events_per_s_overhead_pct",
             overhead_pct(plain.events / plain.wall_s, traced.events / traced.wall_s));
  layers.set("trace.op_p50_overhead_pct",
             -overhead_pct(plain.cell_us.median(), traced.cell_us.median()));
  finish_trace(cfg, {&log}, layers, report);
  layers.emit(report);
}

}  // namespace perfbench
