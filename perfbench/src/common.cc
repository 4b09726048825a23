#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double v : values) {
    log_sum += std::log(std::max(v, 1e-12));
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"cpu_ms_per_query", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"analyst.sum_full_ms", "ms"},
      {"analyst.sum_half_ms", "ms"},
      {"analyst.groupby_ms", "ms"},
      {"analyst.groupby_wide_ms", "ms"},
      {"analyst.range_ore_ms", "ms"},
      {"analyst.join_ms", "ms"},
      {"ingest.rows_per_s", "1/s"},
      {"ingest.lag_ms", "ms"},
      {"setup_wall_s", "s"},
      {"queries_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"storage.bytes_per_plain_byte", "B/B"},
      {"query.parse_us", "us"},
      {"planner.plan_ms", "ms"},
      {"encryptor.encrypt_rows_per_s", "1/s"},
      {"encryptor.append_rows_per_s", "1/s"},
      {"snapshot.copy_ms", "ms"},
      {"session.append_ms", "ms"},
      {"translator.translate_us", "us"},
      {"prepared.bind_us", "us"},
      {"server.execute_ms.sum_full", "ms"},
      {"server.execute_ms.sum_half", "ms"},
      {"server.execute_ms.groupby", "ms"},
      {"server.execute_ms.groupby_wide", "ms"},
      {"server.execute_ms.range_ore", "ms"},
      {"server.execute_ms.join", "ms"},
      {"server.job_compute_ms", "ms"},
      {"server.driver_ms", "ms"},
      {"server.rows_scanned_per_s", "1/s"},
      {"server.response_bytes", "B"},
      {"server.rows_touched", "count"},
      {"idlist.decode_ms", "ms"},
      {"idlist.encoded_bytes", "B"},
      {"client.decrypt_ms", "ms"},
      {"client.prf_calls", "count"},
      {"probe.ms", "ms"},
      {"sharded.merge_ms", "ms"},
      {"sharded.fanout_ms", "ms"},
      {"placement.shards_routed_mean", "count"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.batch_size_mean", "count"},
      {"service.groups", "count"},
      {"cluster.compute_ms_per_query", "ms"},
      {"modeled.server_ms", "ms"},
      {"modeled.total_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

Report::Report(bool trace) : catalog_(trace ? PerLayerMetrics() : EndToEndMetrics()) {
  // Layers a workload never reaches read 0 rather than going missing.
  for (const MetricSpec& m : catalog_) {
    values_[m.name] = 0;
  }
}

void Report::Set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it != values_.end()) {
    it->second = value;
  }
}

void Report::Fail(const std::string& message) {
  if (errors_ < 10) {
    std::cerr << "CHECK FAILED: " << message << "\n";
  }
  ++errors_;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : catalog_) {
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << values_.at(m.name)
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Report::ToTable() const {
  std::ostringstream out;
  char line[160];
  for (const MetricSpec& m : catalog_) {
    std::snprintf(line, sizeof(line), "  %-34s %16.4f %s\n", m.name, values_.at(m.name), m.unit);
    out << line;
  }
  return out.str();
}

namespace {

int64_t NanosSinceStart(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kProcessStart).count();
}

}  // namespace

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t query_id) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.query_id = query_id;
  span.start_ns = NanosSinceStart(Clock::now());
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t span) {
  if (span >= 0) {
    spans_[static_cast<size_t>(span)].end_ns = NanosSinceStart(Clock::now());
  }
}

int64_t Tracer::Add(const char* name, Clock::time_point start, Clock::time_point end,
                    int64_t parent, uint64_t query_id) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.query_id = query_id;
  span.start_ns = NanosSinceStart(start);
  span.end_ns = NanosSinceStart(end);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size() - 1);
}

std::string SpanTable(const std::vector<const Tracer*>& tracers) {
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> child_ms(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double ms = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      Totals& t = by_name[spans[i].name];
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
    }
  }
  std::ostringstream out;
  char line[200];
  std::snprintf(line, sizeof(line), "  %-28s %10s %12s %12s %10s\n", "span", "count", "total_ms",
                "self_ms", "mean_ms");
  out << line;
  for (const auto& [name, t] : by_name) {
    std::snprintf(line, sizeof(line), "  %-28s %10llu %12.2f %12.2f %10.4f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms,
                  t.total_ms / static_cast<double>(t.count));
    out << line;
  }
  return out.str();
}

void WriteSpans(const std::vector<const Tracer*>& tracers, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& s : tracers[t]->spans()) {
      out << "{\"thread\": " << t << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"query_id\": " << s.query_id << "}\n";
    }
  }
}

}  // namespace perfbench
