// perfbench -- the repository benchmark binary. perfbench/run.py builds
// it and runs one workload per invocation:
//
//   perfbench --workload attack_1m --seed 1 --seconds 15 --trace 0
//   perfbench --selftest
//
// The last line of standard output is the result document
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// name every metric with its unit. The exit code is 0 only when every
// correctness check passed.
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload attack_1m|serve_100k|paper_grid "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--selftest") {
        selftest = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        cfg.workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.trace = value != "0";
      } else if (arg == "--trace-dir") {
        cfg.trace_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (selftest) return perfbench::run_selftest(std::cout) == 0 ? 0 : 1;
  if (!(cfg.seconds > 0)) return usage();

  perfbench::Report report;
  report.note("provenance: " + perfbench::provenance());
  if (!perfbench::release_build()) {
    report.note("WARNING: not a Release build; figures are unusable for "
                "comparisons");
  }
  try {
    if (cfg.workload == "attack_1m") {
      perfbench::run_attack_1m(cfg, report);
    } else if (cfg.workload == "serve_100k") {
      perfbench::run_serve_100k(cfg, report);
    } else if (cfg.workload == "paper_grid") {
      perfbench::run_paper_grid(cfg, report);
    } else {
      std::cerr << "unknown workload '" << cfg.workload << "'\n";
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  report.print(std::cout);
  return report.correct() ? 0 : 1;
}
