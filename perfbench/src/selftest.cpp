// The harness self-tests: percentile selection, open-loop due-time
// accounting under a synthetic stall, span self-time arithmetic, and
// name validation. Run with `perfbench --selftest` (run.py runs them
// before every workload).
#include <cmath>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct Checker {
  std::ostream& out;
  int failed = 0;
  void operator()(bool ok, const std::string& what) {
    if (!ok) ++failed;
    out << (ok ? "  ok   " : "  FAIL ") << what << '\n';
  }
};

void test_percentiles(Checker& check) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  check(quantile(xs, 0.5) == 50, "median of 1..100 is 50 (nearest rank)");
  check(quantile(xs, 0.9) == 90, "p90 of 1..100 is 90");
  check(quantile(xs, 0.99) == 99, "p99 of 1..100 is 99");
  check(quantile({7.0}, 0.99) == 7, "any quantile of one sample is it");
  check(std::isnan(quantile({}, 0.5)), "quantile of no samples is NaN");

  check(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  check(samples_beyond(99, 0.90) == 9, "99 samples: 9 beyond p90");
  check(pick_tail(1000).label == "p90", "1000 samples gate on p90");
  check(pick_tail(100).label == "p90", "100 samples: 10 beyond p90, gate on it");
  check(pick_tail(99).label == "p50", "99 samples report only the median");
  check(pick_tail(0).label == "p50", "no samples report only the median");

  Samples s(64);
  for (int i = 0; i < 1000; ++i) s.add(i);
  check(s.count() == 1000, "bounded samples count every offered sample");
  check(s.quantile(1.0) < 1000 && s.median() >= 0,
        "bounded samples keep values from the stream");
  Samples a(1000), b(1000);
  a.add(1);
  b.add(3);
  b.add(2);
  a.merge(b);
  check(a.count() == 3 && a.median() == 2, "merged samples combine streams");
}

void test_open_loop(Checker& check) {
  // 10k requests/s (100 us apart); each takes 10 us except request 3,
  // which stalls for 1000 us. Requests queued behind the stall must be
  // charged from their due times.
  const TimePoint t0{};
  const OpenLoop sched(t0, 10'000.0);
  check(sched.due(4) - sched.due(3) == std::chrono::microseconds(100),
        "schedule spaces requests at the period");
  TimePoint done = t0;
  std::vector<RequestTiming> timings;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const TimePoint due = sched.due(i);
    const TimePoint issued = std::max(due, done);  // one generator thread
    done = issued + std::chrono::microseconds(i == 3 ? 1000 : 10);
    timings.push_back(account(due, issued, done));
  }
  check(timings[3].latency_us == 1000 && timings[3].late_us == 0,
        "the stalled request itself: 1000 us, issued on time");
  check(timings[4].late_us == 900 && timings[4].latency_us == 910,
        "next request: issued 900 us late, 910 us from due");
  check(timings[13].late_us == 90 && timings[14].late_us == 0,
        "the backlog drains 10 us per period: request 13 is 90 us late, 14 on time");
  std::size_t late = 0;
  for (const RequestTiming& t : timings) late += t.late_us > 0;
  check(late == 10, "exactly the 10 requests queued behind the stall are late "
                    "(got " + std::to_string(late) + ")");
  check(timings[19].latency_us == 10, "after the backlog, latency is service time");
}

void test_spans(Checker& check) {
  const TimePoint t0{};
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  SpanLog log(t0, 4);
  const std::int64_t root = log.add("bench.root", at(0), at(100), -1, 1);
  log.add("api.a", at(10), at(30), root, 1);
  log.add("api.b", at(20), at(50), root, 1);    // overlaps api.a
  log.add("graph.c", at(90), at(120), root, 1);  // runs past its parent
  check(log.add("graph.d", at(0), at(1), root, 1) == -1 && log.dropped() == 1,
        "spans past the capacity are dropped and counted");
  const std::vector<double> self = self_seconds(log.spans());
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  check(near(self[0], 50e-6), "root self time excludes the union of children "
                              "(100 - [10,50] - [90,100] = 50 us)");
  check(near(self[1], 20e-6) && near(self[2], 30e-6) && near(self[3], 30e-6),
        "leaf self time is the leaf's duration");
  const auto layers = self_by_layer(log.spans());
  check(near(layers.at("bench"), 50e-6) && near(layers.at("api"), 50e-6) &&
            near(layers.at("graph"), 30e-6),
        "self time sums per layer prefix");
}

void test_names(Checker& check) {
  for (const char* ok : {"op_p50_us", "graph.publish_us_p50", "a-b.c_1", "9x"}) {
    check(valid_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "caf\xc3\xa9"}) {
    check(!valid_name(bad), std::string("invalid name '") + bad + "'");
  }
  check(!valid_name(std::string(65, 'a')), "names longer than 64 are invalid");
  bool tables_ok = true;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& [name, unit] : *table) tables_ok &= valid_name(name);
  }
  check(tables_ok, "every metric the benchmark reports has a valid name");

  Report report;
  report.metric("bad name", 1.0, "s");
  report.metric("nan_metric", std::nan(""), "s");
  check(report.failed() == 2, "a report fails invalid names and non-finite values");
  std::ostringstream os;
  report.print(os);
  check(os.str().find("\"correct\": false") != std::string::npos,
        "a failed report prints correct: false");
}

}  // namespace

int run_selftest(std::ostream& out) {
  Checker check{out};
  out << "percentile selection\n";
  test_percentiles(check);
  out << "open-loop due-time accounting\n";
  test_open_loop(check);
  out << "span self time\n";
  test_spans(check);
  out << "name validation\n";
  test_names(check);
  out << (check.failed == 0 ? "selftest: all passed\n" : "selftest: FAILED\n");
  return check.failed;
}

}  // namespace perfbench
