#include <cmath>
#include <sstream>

#include "api/sink.h"
#include "workloads.h"

namespace perfbench {

const std::map<std::string, std::string>& end_to_end_metrics() {
  static const std::map<std::string, std::string> table = {
      {"setup_s", "s"},
      {"events_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"op_tail_us", "us"},
  };
  return table;
}

const std::map<std::string, std::string>& per_layer_metrics() {
  static const std::map<std::string, std::string> table = {
      {"graph.generate_s", "s"},
      {"api.network_init_s", "s"},
      {"attack.select_hub_us_p50", "us"},
      {"attack.select_random_us_p50", "us"},
      {"api.remove_hub_us_p50", "us"},
      {"api.remove_random_us_p50", "us"},
      {"api.remove_us_p99", "us"},
      {"api.join_us_p50", "us"},
      {"core.edges_added_per_deletion", "ratio"},
      {"core.max_delta", "count"},
      {"core.surrogate_heals", "count"},
      {"graph.connectivity.rebuilds", "count"},
      {"graph.connectivity.nodes_rescanned", "count"},
      {"graph.publish_us_p50", "us"},
      {"graph.publish_us_p99", "us"},
      {"graph.publish_full", "count"},
      {"graph.publish_patched", "count"},
      {"graph.patched_vertices", "count"},
      {"serve.pin_us_p50", "us"},
      {"serve.connected_us_p50", "us"},
      {"serve.distance_us_p50", "us"},
      {"serve.distance_us_p99", "us"},
      {"serve.largest_component_us_p50", "us"},
      {"serve.reads", "count"},
      {"serve.torn_reads", "count"},
      {"serve.generator_late_us_p99", "us"},
      {"analysis.landmark_build_s", "s"},
      {"analysis.estimate_ms_p50", "ms"},
      {"analysis.bounded_ratio", "ratio"},
      {"analysis.exact_stretch_share", "ratio"},
      {"exp.cell_s_p50", "s"},
      {"exp.cell_s_max", "s"},
      {"exp.pool_speedup", "ratio"},
      {"trace.events_per_s_overhead_pct", "%"},
      {"trace.op_p50_overhead_pct", "%"},
      {"trace.spans", "count"},
      {"trace.spans_dropped", "count"},
      {"bench.self_s", "s"},
      {"attack.self_s", "s"},
      {"api.self_s", "s"},
      {"graph.self_s", "s"},
      {"analysis.self_s", "s"},
      {"serve.self_s", "s"},
      {"exp.self_s", "s"},
  };
  return table;
}

void MetricSet::emit(Report& report) const {
  for (const auto& [name, value] : values_) {
    if (table_.count(name) == 0) report.fail("unlisted metric " + name);
  }
  for (const auto& [name, unit] : table_) {
    const auto it = values_.find(name);
    double value = it == values_.end() ? std::nan("") : it->second;
    if (unmeasured_as_zero_ && std::isnan(value)) value = 0.0;
    report.metric(name, value, unit);
  }
}

double overhead_pct(double untraced, double traced) {
  return untraced != 0.0 ? 100.0 * (untraced - traced) / untraced : 0.0;
}

std::string metrics_json(const dash::api::Metrics& m) {
  std::ostringstream os;
  dash::api::JsonSummarySink sink(os);
  sink.on_run(0, m);
  sink.flush();
  return os.str();
}

void check_healed(Report& report, const dash::api::Metrics& m,
                  const std::string& healer, std::size_t initial_n,
                  const std::string& what) {
  report.check(m.stayed_connected && m.components == 1,
               what + " stayed connected as one component (components=" +
                   std::to_string(m.components) + ")");
  if (healer == "dash" || healer == "sdash") {
    const double bound = 2.0 * std::log2(static_cast<double>(initial_n));
    report.check(m.max_delta <= bound,
                 what + " max_delta " + std::to_string(m.max_delta) +
                     " <= 2 log2 n = " + std::to_string(bound));
  }
}

void finish_trace(const RunConfig& cfg,
                  const std::vector<const SpanLog*>& logs, MetricSet& layers,
                  Report& report) {
  std::size_t spans = 0, dropped = 0;
  std::map<std::string, double> self;
  for (const SpanLog* log : logs) {
    spans += log->spans().size();
    dropped += log->dropped();
    for (const auto& [layer, secs] : self_by_layer(log->spans())) {
      self[layer] += secs;
    }
  }
  layers.set("trace.spans", static_cast<double>(spans));
  layers.set("trace.spans_dropped", static_cast<double>(dropped));
  for (const auto& [layer, secs] : self) layers.set(layer + ".self_s", secs);
  if (cfg.trace_dir.empty()) return;
  const std::string path = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".csv";
  if (write_spans(path, logs)) {
    report.note("spans written to " + path);
  } else {
    report.fail("cannot write spans to " + path);
  }
}

}  // namespace perfbench
