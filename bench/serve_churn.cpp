// serve_churn.cpp -- read throughput and tail latency of the concurrent
// serving engine under live churn+heal: one mutation thread plays a
// churn scenario while N reader threads answer connected/distance/
// largest_component queries from pinned epoch snapshots
// (api/serve.h). Reports reads/s and p50/p99/p999 per reader count,
// cross-checks label-based connectivity against BFS reachability on
// every pinned snapshot it probes (a disagreement is a torn read), and
// verifies the mutation stream stayed byte-identical across reader
// counts. Exit code 1 on any torn read or determinism violation, 2
// when a --verify round cross-checked no read during play.
//
//   serve_churn --n 10000 --readers 1,2,4,8 --scenario churn:0.3,0.1x2000
//   serve_churn --n 1024 --readers 4 --verify          # cross-check all
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "api/serve_bench.h"
#include "util/cli.h"
#include "util/registry.h"

namespace {

std::vector<std::size_t> parse_reader_counts(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string item = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    out.push_back(static_cast<std::size_t>(
        dash::util::parse_spec_uint("readers", item, 1024)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  dash::api::ServeBenchConfig cfg;
  std::uint64_t n = cfg.n;
  std::uint64_t seed = cfg.seed;
  std::uint64_t publish_every = cfg.publish_every;
  std::uint64_t distance_every = cfg.distance_every;
  std::string readers = "1,2,4,8";
  std::string json_path;

  dash::util::Options opts(
      "Concurrent serving bench: read throughput + latency under churn");
  opts.add_uint("n", &n, "initial Barabasi-Albert network size");
  opts.add_string("healer", &cfg.healer, "healing strategy spec");
  opts.add_string("scenario", &cfg.scenario, "mutation scenario spec");
  opts.add_uint("seed", &seed, "base seed");
  opts.add_string("readers", &readers,
                  "comma-separated reader thread counts to sweep");
  opts.add_uint("publish-every", &publish_every,
                "publish a snapshot every k-th mutation event");
  opts.add_uint("distance-every", &distance_every,
                "every k-th read runs the BFS cross-check (0 = never)");
  opts.add_flag("verify", &cfg.verify,
                "cross-check label vs BFS connectivity on every read");
  opts.add_string("rows", &cfg.rows_path,
                  "stream per-round rows (async pipeline) to this CSV");
  opts.add_string("json", &json_path, "write the report as JSON here");
  if (!opts.parse(argc, argv)) return opts.help_requested() ? 0 : 2;

  cfg.n = static_cast<std::size_t>(n);
  cfg.seed = seed;
  cfg.publish_every = static_cast<std::size_t>(publish_every);
  cfg.distance_every = static_cast<std::size_t>(distance_every);
  try {
    cfg.reader_counts = parse_reader_counts(readers);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  dash::api::ServeBenchReport report;
  try {
    report = dash::api::run_serve_bench(cfg);
  } catch (const std::exception& e) {
    std::cerr << "serve_churn: " << e.what() << "\n";
    return 2;
  }

  render_serve_table(report, std::cout);
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "serve_churn: cannot write " << json_path << "\n";
      return 2;
    }
    render_serve_json(cfg, report, os);
  }
  return report.ok() ? 0 : 1;
}
