// harness.h -- measurement plumbing shared by the perfbench workloads:
// percentile selection, bounded-memory latency samples, open-loop
// request accounting, in-memory spans with self-time arithmetic, and
// the result document the benchmark prints as its last line.
//
// Nothing here knows about the healing library; the workloads
// (attack_1m.cpp, serve_100k.cpp, paper_grid.cpp) drive the library
// and feed these types.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double micros_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- percentiles ------------------------------------------------------------

/// Nearest-rank quantile of `xs` (q in (0, 1]): the smallest sample with
/// at least ceil(q * N) samples at or below it. NaN when xs is empty.
double quantile(std::vector<double> xs, double q);

/// Samples strictly beyond the q-quantile's rank: N - ceil(q * N).
std::size_t samples_beyond(std::size_t n, double q);

/// The tail percentile an end-to-end timing is gated on: p90 when at
/// least ten samples lie beyond it, else the median. p99 is printed
/// beside it, but on a shared VM its run-to-run spread is too wide to
/// gate regressions on.
struct TailPick {
  double q = 0.5;
  std::string label = "p50";
};
TailPick pick_tail(std::size_t n);

/// A stream of timing samples kept in bounded memory: every sample up
/// to `capacity`, then a uniform reservoir (Algorithm R with a fixed
/// seed), so quantiles of the kept samples estimate the whole stream's.
class Samples {
 public:
  explicit Samples(std::size_t capacity = std::size_t{1} << 20);

  void add(double v);
  void merge(const Samples& other);

  /// Samples offered so far (kept or not).
  std::size_t count() const { return seen_; }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double max() const;

 private:
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  std::vector<double> kept_;
};

// ---- open-loop request generation -----------------------------------------

/// A fixed schedule: request i is due at start + i * period. A request
/// is issued at max(due, previous completion), so a stall delays every
/// request queued behind it, and its latency is charged from the due
/// time (not from when it was finally sent), as an independent client
/// would see it.
class OpenLoop {
 public:
  OpenLoop(TimePoint start, double rate_per_sec);

  TimePoint due(std::uint64_t i) const;

 private:
  TimePoint start_;
  std::chrono::nanoseconds period_;
};

/// One request's accounting, from its due time.
struct RequestTiming {
  double latency_us = 0.0;  ///< completion - due
  double late_us = 0.0;     ///< issued - due (generator lateness)
};
RequestTiming account(TimePoint due, TimePoint issued, TimePoint done);

// ---- spans ------------------------------------------------------------------

/// One timed interval at a layer boundary. `name` is "<layer>.<what>"
/// and must be a string literal (spans store the pointer).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the same log, -1 for roots
  std::uint64_t request = 0;  ///< round, event, read id or cell index
};

/// A thread's span buffer, kept in memory and written out at exit.
/// Capacity-bounded: spans past the capacity are counted, not kept
/// (their parents then report the dropped time as self time).
class SpanLog {
 public:
  SpanLog(TimePoint epoch, std::size_t capacity);

  /// Open a span ending later; returns its index or -1 when dropped.
  std::int64_t open(const char* name, TimePoint start, std::int64_t parent,
                    std::uint64_t request);
  void close(std::int64_t index, TimePoint end);
  /// Record a finished span; returns its index or -1 when dropped.
  std::int64_t add(const char* name, TimePoint start, TimePoint end,
                   std::int64_t parent, std::uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }
  /// Time zero of the log's timestamps; logs of one run share it.
  TimePoint epoch() const { return epoch_; }

 private:
  std::int64_t ns(TimePoint t) const;

  TimePoint epoch_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Per-span self time in seconds: the span's duration minus the part
/// of its interval covered by the union of its children's intervals.
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Self time summed per layer (the name's prefix before the first '.').
std::map<std::string, double> self_by_layer(const std::vector<Span>& spans);

/// Write `logs` as CSV (thread,index,parent,request,name,start_ns,
/// end_ns) to `path`; returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

// ---- names and results ------------------------------------------------------

/// Metric and workload names: 1..64 of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_name(const std::string& name);

/// What one benchmark invocation reports.
class Report {
 public:
  /// Record a metric; an invalid name or a non-finite value is itself
  /// a failure (the document must stay parseable and comparable).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-facing line printed before the result document.
  void note(const std::string& line) { notes_.push_back(line); }

  /// Count `n` attempted operations.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Record a failed check; it counts against the attempted operations.
  void fail(const std::string& why, std::size_t n = 1);
  /// Check `ok`; a false check is one failure (see fail()).
  void check(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0; }
  std::size_t failed() const { return failed_; }

  /// The notes and failures as text, then the one-line result document.
  void print(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Compiler, build type and core count of this binary, for the notes.
std::string provenance();
/// True for the optimized build the figures are comparable under.
bool release_build();

}  // namespace perfbench
