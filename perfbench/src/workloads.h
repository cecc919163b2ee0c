// workloads.h -- the benchmark's workloads and what they share: the
// run configuration, the metric tables every run reports against, the
// observer probe that timestamps an engine's pipeline, and the
// correctness checks common to every healed network.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "api/metrics.h"
#include "api/observer.h"
#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its span CSV (empty: do not write).
  std::string trace_dir;
};

/// Metric name -> unit, for every metric a run may report. An
/// untraced run reports exactly the end-to-end table, a traced run
/// exactly the per-layer table (BENCHMARK.json lists the same names).
const std::map<std::string, std::string>& end_to_end_metrics();
const std::map<std::string, std::string>& per_layer_metrics();

/// Collects one run's values for a metric table; emit() reports every
/// name of the table and fails the run on a name outside it. With
/// `unmeasured_as_zero` (the per-layer table), a metric the workload
/// does not exercise, or one with no samples (NaN), reads 0; otherwise
/// both fail the run.
class MetricSet {
 public:
  MetricSet(const std::map<std::string, std::string>& table,
            bool unmeasured_as_zero)
      : table_(table), unmeasured_as_zero_(unmeasured_as_zero) {}
  void set(const std::string& name, double value) { values_[name] = value; }
  void emit(Report& report) const;

 private:
  const std::map<std::string, std::string>& table_;
  bool unmeasured_as_zero_;
  std::map<std::string, double> values_;
};

/// 100 * (untraced - traced) / untraced: the tracing overhead on a
/// higher-is-better figure (negate for lower-is-better ones).
double overhead_pct(double untraced, double traced);

/// Timestamps the observer pipeline at the position it was registered
/// in. Observers fire in registration order, so the gaps between two
/// probes time whatever was registered between them.
class Probe final : public dash::api::Observer {
 public:
  std::string name() const override { return "perfbench-probe"; }
  void on_round_begin(const dash::api::Network&, std::size_t) override {
    begin = Clock::now();
  }
  void on_round_end(const dash::api::Network&,
                    const dash::api::RoundEvent&) override {
    end = Clock::now();
    if (on_event) on_event(false);
  }
  void on_join(const dash::api::Network&,
               const dash::api::JoinEvent&) override {
    end = Clock::now();
    if (on_event) on_event(true);
  }

  TimePoint begin{};  ///< last on_round_begin
  TimePoint end{};    ///< last on_round_end / on_join
  /// Called after `end` is stamped; the flag is true for joins.
  std::function<void(bool joined)> on_event;
};

/// One run's Metrics as the canonical BENCH JSON document (the
/// library's own JsonSummarySink serialization).
std::string metrics_json(const dash::api::Metrics& m);

/// The healed-network checks every workload applies to a finished run:
/// it stayed connected and ends as one component, and for DASH/SDASH
/// the maximum degree increase respects Theorem 1 (<= 2 log2 n).
void check_healed(Report& report, const dash::api::Metrics& m,
                  const std::string& healer, std::size_t initial_n,
                  const std::string& what);

/// Write a traced run's spans and report the span counts and per-layer
/// self times into `layers`.
void finish_trace(const RunConfig& cfg,
                  const std::vector<const SpanLog*>& logs, MetricSet& layers,
                  Report& report);

void run_attack_1m(const RunConfig& cfg, Report& report);
void run_serve_100k(const RunConfig& cfg, Report& report);
void run_paper_grid(const RunConfig& cfg, Report& report);

/// The harness self-tests; returns the number of failed checks.
int run_selftest(std::ostream& out);

}  // namespace perfbench
