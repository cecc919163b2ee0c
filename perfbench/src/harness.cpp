#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>
#include <utility>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---- percentiles ------------------------------------------------------------

namespace {

std::size_t rank_of(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return std::nan("");
  const std::size_t idx = rank_of(xs.size(), q) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return xs[idx];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

TailPick pick_tail(std::size_t n) {
  if (samples_beyond(n, 0.90) >= 10) return {0.90, "p90"};
  return {};
}

Samples::Samples(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

void Samples::add(double v) {
  ++seen_;
  if (kept_.size() < capacity_) {
    kept_.push_back(v);
    return;
  }
  // splitmix64 step; Algorithm R keeps each sample with p = capacity/seen.
  rng_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = rng_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t slot = z % seen_;
  if (slot < capacity_) kept_[slot] = v;
}

void Samples::merge(const Samples& other) {
  for (double v : other.kept_) add(v);
  // Samples the other stream saw but did not keep still count as seen.
  seen_ += other.seen_ - other.kept_.size();
}

double Samples::quantile(double q) const { return perfbench::quantile(kept_, q); }

double Samples::max() const {
  return kept_.empty() ? std::nan("") : *std::max_element(kept_.begin(), kept_.end());
}

// ---- open loop --------------------------------------------------------------

OpenLoop::OpenLoop(TimePoint start, double rate_per_sec)
    : start_(start),
      period_(std::chrono::nanoseconds(
          static_cast<std::int64_t>(std::llround(1e9 / rate_per_sec)))) {}

TimePoint OpenLoop::due(std::uint64_t i) const {
  return start_ + period_ * static_cast<std::int64_t>(i);
}

RequestTiming account(TimePoint due, TimePoint issued, TimePoint done) {
  RequestTiming t;
  t.latency_us = micros_between(due, done);
  t.late_us = std::max(0.0, micros_between(due, issued));
  return t;
}

// ---- spans ------------------------------------------------------------------

SpanLog::SpanLog(TimePoint epoch, std::size_t capacity)
    : epoch_(epoch), capacity_(capacity) {
  spans_.reserve(std::min<std::size_t>(capacity, 1 << 16));
}

std::int64_t SpanLog::ns(TimePoint t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::int64_t SpanLog::open(const char* name, TimePoint start,
                           std::int64_t parent, std::uint64_t request) {
  return add(name, start, start, parent, request);
}

void SpanLog::close(std::int64_t index, TimePoint end) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = ns(end);
}

std::int64_t SpanLog::add(const char* name, TimePoint start, TimePoint end,
                          std::int64_t parent, std::uint64_t request) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, ns(start), ns(end), parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = std::max(lo, spans[i].end_ns);
    cover.clear();
    for (std::size_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = -1;
    for (const auto& [a, b] : cover) {
      if (run_hi < a) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = static_cast<double>(hi - lo - covered) / 1e9;
  }
  return self;
}

std::map<std::string, double> self_by_layer(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "thread,index,parent,request,name,start_ns,end_ns\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << ',' << i << ',' << s.parent << ',' << s.request << ','
          << s.name << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

// ---- names and results ------------------------------------------------------

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_name(name)) {
    fail("invalid metric name '" + name + "'");
    return;
  }
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    return;
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why, std::size_t n) {
  failed_ += n;
  failures_.push_back(why);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) fail("check failed: " + what);
}

void Report::print(std::ostream& out) const {
  for (const std::string& line : notes_) out << line << '\n';
  for (const Metric& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    out << "metric " << m.name << " = " << buf << ' ' << m.unit << '\n';
  }
  for (const std::string& why : failures_) out << "FAILURE: " << why << '\n';
  out << "error_rate = " << failed_ << " failed / " << attempted_
      << " attempted\n";
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
    out << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
        << buf << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}" << std::endl;
}

std::string provenance() {
  return std::string("nproc=") +
         std::to_string(std::thread::hardware_concurrency()) +
         " compiler=" + PERFBENCH_COMPILER +
         " build_type=" + PERFBENCH_BUILD_TYPE;
}

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

}  // namespace perfbench
