// thm1_bounds.cpp -- checks every quantitative bullet of Theorem 1
// empirically and reports measured-vs-bound ratios:
//
//   * delta(v) <= 2 log2 n  (max degree increase)
//   * messages per node <= 2 (d + 2 log2 n) ln n
//   * id changes per node <= 2 ln n (record breaking)
//   * reconnection latency O(1) and amortized id-propagation latency
//     O(log n) -- measured on the distributed simulator.
//
// The sequential engine runs are one scenario suite per size, with the
// per-node ratios read off each instance's final healing state through
// the suite's inspect hook; the latency claims run on the distributed
// simulator's standard max-degree schedule.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.h"
#include "graph/generators.h"
#include "sim/distributed_dash.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using dash::graph::Graph;
using dash::graph::NodeId;

/// Worst measured/bound ratio for the per-node message bound.
double worst_message_ratio(const dash::core::HealingState& st,
                           std::size_t n) {
  const double log2n = std::log2(static_cast<double>(n));
  const double lnn = std::log(static_cast<double>(n));
  double worst = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const double d = static_cast<double>(st.initial_degree(v));
    const double bound = 2.0 * (d + 2.0 * log2n) * lnn;
    if (bound > 0.0) {
      worst = std::max(
          worst, static_cast<double>(st.messages_total(v)) / bound);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t instances = 5, seed = 0xDA5Bu, min_n = 64, max_n = 1024;
  std::uint64_t ba_edges = 2, threads = 0;
  std::string attack = "neighborofmax";
  dash::util::Options opt(
      "Theorem 1 bound check: measured vs proven bounds");
  opt.add_uint("instances", &instances, "random graph instances per size");
  opt.add_uint("seed", &seed, "base RNG seed");
  opt.add_uint("min-n", &min_n, "smallest graph size");
  opt.add_uint("max-n", &max_n, "largest graph size (doubling sweep)");
  opt.add_uint("ba-edges", &ba_edges, "BA attachment edges per node");
  opt.add_string("attack", &attack, "attack strategy");
  opt.add_uint("threads", &threads,
               "worker threads (0 = hardware concurrency)");
  if (!opt.parse(argc, argv)) return opt.help_requested() ? 0 : 2;
  std::vector<std::size_t> sizes;
  try {
    sizes = dash::util::doubling_sizes(min_n, max_n);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // A bad --attack ends the run with the named error, exit 2: an
  // unknown name as the scenario is built, a bad parameter (rank:abc)
  // once the first suite plays.
  try {
    const auto scenario = dash::api::Scenario().targeted(attack);
    std::cout << "\n== Theorem 1: measured / bound ratios (DASH, " << attack
              << " attack, " << instances << " instances) ==\n\n";
    dash::util::Table table({"n", "max_delta", "2log2n", "delta_ratio",
                             "msg_ratio", "idchg_ratio", "reconnect_rounds",
                             "mean_prop_rounds", "log2n"});
    dash::util::ThreadPool pool(static_cast<std::size_t>(threads));
    const auto ba_m = static_cast<std::size_t>(ba_edges);

    for (std::size_t n : sizes) {
      const double log2n = std::log2(static_cast<double>(n));
      const double lnn = std::log(static_cast<double>(n));

      // Engine bounds: one suite, ratios read via the inspect hook.
      double worst_delta = 0, worst_msg = 0, worst_idchg = 0;
      dash::api::SuiteConfig cfg;
      cfg.make_graph = [n, ba_m](dash::util::Rng& rng) {
        return dash::graph::barabasi_albert(n, ba_m, rng);
      };
      cfg.make_healer = dash::api::healer_factory("dash");
      cfg.scenario = scenario;
      cfg.instances = static_cast<std::size_t>(instances);
      cfg.base_seed = seed ^ (n * 0x9E3779B97F4A7C15ULL);
      cfg.inspect = [&](std::size_t, const dash::api::Network& net,
                        const dash::api::Metrics& r) {
        const auto& st = net.state();
        worst_delta = std::max(
            worst_delta, static_cast<double>(r.max_delta) / (2.0 * log2n));
        worst_msg = std::max(worst_msg, worst_message_ratio(st, n));
        worst_idchg = std::max(
            worst_idchg,
            static_cast<double>(st.max_id_changes()) / (2.0 * lnn));
      };
      dash::api::run_suite(cfg, pool);

      // Distributed latency measurements on fresh instances drawn from
      // the same per-instance seed layout.
      double max_reconnect = 0, mean_prop = 0;
      for (std::size_t inst = 0; inst < instances; ++inst) {
        dash::util::Rng seeder(seed ^ (n * 0x9E3779B97F4A7C15ULL));
        dash::util::Rng rng = seeder.fork(inst + 1);
        Graph g = dash::graph::barabasi_albert(n, ba_m, rng);
        dash::sim::DistributedDashSim sim(std::move(g), rng);
        dash::sim::run_max_degree_attack(sim);
        for (auto rr : sim.metrics().reconnect_rounds) {
          max_reconnect = std::max(max_reconnect, static_cast<double>(rr));
        }
        mean_prop = std::max(mean_prop,
                             sim.metrics().mean_propagation_rounds());
      }

      table.begin_row()
          .cell(std::to_string(n))
          .cell(worst_delta * 2.0 * log2n, 1)
          .cell(2.0 * log2n, 1)
          .cell(worst_delta, 3)
          .cell(worst_msg, 3)
          .cell(worst_idchg, 3)
          .cell(max_reconnect, 0)
          .cell(mean_prop, 2)
          .cell(log2n, 2);
      std::fprintf(stderr, "  done n=%zu\n", n);
    }
    table.print(std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::cout << "\ndelta_ratio is a deterministic bound and must stay "
               "<= 1.0.\nmsg_ratio and idchg_ratio are with-high-"
               "probability bounds: expect ~<= 1.0, with small "
               "excursions (<10%) possible at small n.\nreconnect_rounds "
               "is the O(1) claim; mean_prop_rounds vs log2n is the "
               "amortized O(log n) claim.\n";
  return 0;
}
