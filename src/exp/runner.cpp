#include "exp/runner.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "api/network.h"
#include "api/observers.h"
#include "api/sink.h"
#include "api/suite.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace dash::exp {

namespace {

/// Scan an expected literal; advances *pos past it on success.
bool expect(const std::string& s, std::size_t* pos, const char* lit) {
  const std::size_t len = std::char_traits<char>::length(lit);
  if (s.compare(*pos, len, lit) != 0) return false;
  *pos += len;
  return true;
}

bool scan_digits(const std::string& s, std::size_t* pos,
                 std::size_t* out) {
  const std::size_t start = *pos;
  std::size_t value = 0;
  while (*pos < s.size() && s[*pos] >= '0' && s[*pos] <= '9') {
    value = value * 10 + static_cast<std::size_t>(s[*pos] - '0');
    ++*pos;
  }
  if (*pos == start) return false;
  *out = value;
  return true;
}

}  // namespace

// ---- execution -------------------------------------------------------------

std::string render_group(const ExperimentSpec& spec, const Cell& cell,
                         const std::vector<api::Metrics>& runs) {
  // Feed the runs through the one serializer that writes BENCH_*.json
  // documents and peel its single group back out: whatever bytes a
  // sequential whole-document run would emit for this cell, this is
  // them.
  std::ostringstream os;
  api::JsonSummarySink sink(os);
  sink.begin_group(cell.labels(spec.label_family()));
  for (std::size_t i = 0; i < runs.size(); ++i) sink.on_run(i, runs[i]);
  sink.flush();
  const std::string doc = os.str();
  static constexpr char kPrefix[] = "{\"groups\":[";
  static constexpr char kSuffix[] = "]}\n";
  const std::size_t prefix = sizeof(kPrefix) - 1;
  const std::size_t suffix = sizeof(kSuffix) - 1;
  DASH_CHECK_MSG(doc.size() > prefix + suffix &&
                     doc.compare(0, prefix, kPrefix) == 0 &&
                     doc.compare(doc.size() - suffix, suffix, kSuffix) == 0,
                 "unexpected JsonSummarySink document shape");
  return doc.substr(prefix, doc.size() - prefix - suffix);
}

CellResult run_cell(
    const ExperimentSpec& spec, const Cell& cell,
    dash::util::ThreadPool* pool,
    const std::function<void(const Cell&, const std::vector<api::RoundRow>&)>&
        on_rows) {
  api::SuiteConfig cfg;
  cfg.make_graph = make_family(cell.family, cell.n, spec.ba_edges);
  cfg.make_healer = api::healer_factory(cell.healer);
  cfg.scenario = api::Scenario::parse(cell.scenario);
  cfg.instances = cell.instances;
  cfg.base_seed = cell.seed;
  if (spec.stretch_every > 0) {
    api::StretchObserverOptions stretch_opts;
    stretch_opts.sample_every = spec.stretch_every;
    stretch_opts.estimate = cell.stretch_estimate;
    stretch_opts.landmarks = cell.stretch_landmarks;
    stretch_opts.pairs = cell.stretch_pairs;
    cfg.configure = [stretch_opts](api::Network& net) {
      net.add_observer(
          std::make_unique<api::StretchObserver>(stretch_opts));
    };
  }
  // Row capture only changes what is observed, never the run itself
  // (SinkObserver reads the engine's incremental component tracker),
  // so metrics stay byte-identical with or without on_rows.
  api::MemorySink row_sink;
  if (on_rows) {
    cfg.record_rows = true;
    cfg.sinks.push_back(&row_sink);
  }

  CellResult result;
  result.cell = cell;
  result.runs = pool != nullptr ? api::run_suite(cfg, *pool)
                                : api::run_suite(cfg);
  result.group_json = render_group(spec, cell, result.runs);
  if (on_rows) on_rows(cell, row_sink.rows());
  return result;
}

std::vector<CellResult> run(const ExperimentSpec& spec,
                            const RunnerOptions& opt) {
  if (opt.shard.count == 0 || opt.shard.index >= opt.shard.count) {
    throw std::invalid_argument(
        "bad shard options: index " + std::to_string(opt.shard.index) +
        " of " + std::to_string(opt.shard.count));
  }
  const auto cells = spec.enumerate();

  // One pool serves every suite of the shard (run_suite borrows it per
  // call and never stores it).
  std::optional<util::ThreadPool> pool;
  if (opt.threads != 1) pool.emplace(opt.threads);

  std::vector<CellResult> results;
  for (const Cell& cell : cells) {
    if (cell.index % opt.shard.count != opt.shard.index) continue;
    if (opt.skip != nullptr && opt.skip->count(cell.index) != 0) continue;
    results.push_back(
        run_cell(spec, cell, pool ? &*pool : nullptr, opt.on_rows));
    if (opt.on_cell) opt.on_cell(results.back());
  }
  return results;
}

// ---- shard record I/O ------------------------------------------------------

ShardRecord to_record(const ExperimentSpec& spec,
                      const CellResult& result) {
  return ShardRecord{result.cell.index, spec.hash(), result.group_json};
}

std::string shard_line(const ShardRecord& record) {
  // The group is a JSON object, embedded verbatim; the hash is 16 hex
  // chars. Nothing needs escaping, so parse_shard_line can be a strict
  // positional scan.
  std::string out = "{\"cell\":";
  out += std::to_string(record.cell);
  out += ",\"spec_hash\":\"";
  out += record.spec_hash;
  out += "\",\"group\":";
  out += record.group_json;
  out += "}";
  return out;
}

bool parse_shard_line(const std::string& line, ShardRecord* out) {
  std::size_t pos = 0;
  ShardRecord record;
  if (!expect(line, &pos, "{\"cell\":")) return false;
  if (!scan_digits(line, &pos, &record.cell)) return false;
  if (!expect(line, &pos, ",\"spec_hash\":\"")) return false;
  const std::size_t hash_end = line.find('"', pos);
  if (hash_end == std::string::npos || hash_end == pos) return false;
  record.spec_hash = line.substr(pos, hash_end - pos);
  pos = hash_end;
  if (!expect(line, &pos, "\",\"group\":")) return false;
  if (line.empty() || line.back() != '}' || pos >= line.size() - 1) {
    return false;
  }
  record.group_json = line.substr(pos, line.size() - 1 - pos);
  // The group must at least look like a closed object; a truncated
  // line (interrupted write) fails here.
  if (record.group_json.front() != '{' || record.group_json.back() != '}') {
    return false;
  }
  *out = record;
  return true;
}

std::vector<ShardRecord> load_shard_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open shard file '" + path + "'");
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::vector<ShardRecord> records;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ShardRecord record;
    if (parse_shard_line(lines[i], &record)) {
      records.push_back(std::move(record));
    } else if (i + 1 == lines.size()) {
      // Interrupted write: the final line may be truncated; resuming
      // recomputes that cell.
      continue;
    } else {
      throw std::invalid_argument("corrupt shard file '" + path +
                                  "': bad record on line " +
                                  std::to_string(i + 1));
    }
  }
  return records;
}

std::string merged_document(const ExperimentSpec& spec,
                            const std::vector<ShardRecord>& records) {
  const auto cells = spec.enumerate();
  const std::string want = spec.hash();
  std::vector<const ShardRecord*> by_index(cells.size(), nullptr);
  for (const ShardRecord& record : records) {
    if (record.spec_hash != want) {
      throw std::invalid_argument(
          "spec hash mismatch: record for cell " +
          std::to_string(record.cell) + " carries " + record.spec_hash +
          ", this spec is " + want +
          " (the shard was produced by a different spec)");
    }
    if (record.cell >= cells.size()) {
      throw std::invalid_argument(
          "cell index " + std::to_string(record.cell) +
          " out of range (spec enumerates " +
          std::to_string(cells.size()) + " cells)");
    }
    const ShardRecord*& slot = by_index[record.cell];
    if (slot != nullptr && slot->group_json != record.group_json) {
      throw std::invalid_argument(
          "conflicting records for cell " + std::to_string(record.cell));
    }
    slot = &record;
  }
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < by_index.size(); ++i) {
    if (by_index[i] == nullptr) missing.push_back(i);
  }
  if (!missing.empty()) {
    std::string which;
    for (std::size_t i = 0; i < missing.size() && i < 8; ++i) {
      if (i) which += ", ";
      which += std::to_string(missing[i]);
    }
    if (missing.size() > 8) which += ", ...";
    throw std::invalid_argument(
        "incomplete merge: " + std::to_string(missing.size()) +
        " of " + std::to_string(cells.size()) + " cells missing (" +
        which + ")");
  }

  std::string out = "{\"groups\":[";
  for (std::size_t i = 0; i < by_index.size(); ++i) {
    if (i) out += ',';
    out += by_index[i]->group_json;
  }
  out += "]}\n";
  return out;
}

// ---- per-shard rows I/O ----------------------------------------------------

std::string rows_header() {
  std::string out = "cell,seq";
  for (const std::string& col : api::round_row_header()) {
    out += ',';
    out += col;
  }
  return out;
}

std::string rows_line(std::size_t cell, const api::RoundRow& row) {
  std::string out = std::to_string(cell);
  out += ',';
  out += std::to_string(row.seq);
  for (const std::string& field : api::round_row_fields(row)) {
    out += ',';
    out += field;
  }
  return out;
}

bool parse_rows_line(const std::string& line, RowsRecord* out) {
  std::size_t pos = 0;
  RowsRecord record;
  if (!scan_digits(line, &pos, &record.cell)) return false;
  if (!expect(line, &pos, ",")) return false;
  if (!scan_digits(line, &pos, &record.seq)) return false;
  if (!expect(line, &pos, ",")) return false;
  if (!scan_digits(line, &pos, &record.instance)) return false;
  if (!expect(line, &pos, ",")) return false;
  // The remaining fields are free-form CSV; a line torn inside them is
  // caught by the column count (round + the other 10 columns follow).
  std::size_t commas = 0;
  for (std::size_t i = pos; i < line.size(); ++i) {
    if (line[i] == ',') ++commas;
  }
  if (commas != api::round_row_header().size() - 2 || line.back() == ',') {
    return false;
  }
  record.line = line;
  *out = record;
  return true;
}

std::vector<RowsRecord> load_rows_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open rows file '" + path + "'");
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) return {};
  if (lines.front() != rows_header()) {
    throw std::invalid_argument("rows file '" + path +
                                "' has an unexpected header");
  }
  std::vector<RowsRecord> records;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    RowsRecord record;
    if (parse_rows_line(lines[i], &record)) {
      records.push_back(std::move(record));
    } else if (i + 1 == lines.size()) {
      // Interrupted write: the final line may be torn; the cell it
      // belonged to is recomputed on resume.
      continue;
    } else {
      throw std::invalid_argument("corrupt rows file '" + path +
                                  "': bad line " + std::to_string(i + 1));
    }
  }
  return records;
}

std::string merged_rows(std::vector<RowsRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const RowsRecord& a, const RowsRecord& b) {
                     if (a.cell != b.cell) return a.cell < b.cell;
                     if (a.instance != b.instance) {
                       return a.instance < b.instance;
                     }
                     return a.seq < b.seq;
                   });
  std::string out = rows_header();
  out += '\n';
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) {
      const RowsRecord& prev = records[i - 1];
      const RowsRecord& cur = records[i];
      if (prev.cell == cur.cell && prev.instance == cur.instance &&
          prev.seq == cur.seq) {
        if (prev.line != cur.line) {
          throw std::invalid_argument(
              "conflicting rows for cell " + std::to_string(cur.cell) +
              " instance " + std::to_string(cur.instance) + " seq " +
              std::to_string(cur.seq));
        }
        continue;  // identical duplicate (rows replayed after a crash)
      }
    }
    out += records[i].line;
    out += '\n';
  }
  return out;
}

}  // namespace dash::exp
