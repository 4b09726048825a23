// Shared pieces of the end-to-end benchmark: run configuration, the metric
// report printed as the last stdout line, sample statistics and the span
// tracer that records layer boundaries from the benchmark's own call sites.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: the origin of setup_s.
extern const Clock::time_point kProcessStart;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) { return SecondsBetween(t, Clock::now()); }

// CPU time consumed so far by every thread of this process. Unlike wall time
// it does not grow while the hypervisor runs other tenants on our cores.
double ProcessCpuSeconds();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// --- sample statistics --------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }
double Mean(const std::vector<double>& values);
double Geomean(const std::vector<double>& values);

// --- report -------------------------------------------------------------------

// The metric catalog: every end-to-end and per-layer metric the benchmark
// prints, with its unit. BENCHMARK.json lists the same names; run.py checks
// that the two agree on every run.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

class Report {
 public:
  explicit Report(bool trace);

  // Sets a metric of the active catalog (end-to-end, or per-layer when
  // tracing). Names outside the active catalog are ignored, so workloads
  // may set both kinds unconditionally.
  void Set(const std::string& name, double value);

  // Records a correctness failure (the first few messages go to stderr).
  void Fail(const std::string& message);
  bool correct() const { return errors_ == 0; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;
  // Human-readable metric listing (stderr).
  std::string ToTable() const;

 private:
  std::vector<MetricSpec> catalog_;
  std::map<std::string, double> values_;
  uint64_t errors_ = 0;
};

// --- tracing ------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;  // relative to kProcessStart
  int64_t end_ns = 0;
  int64_t parent = -1;   // index into the same tracer's spans, -1 = root
  uint64_t query_id = 0;
};

// In-memory span log of one thread. Disabled tracers record nothing, so the
// same call sites serve the traced and the untraced run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span; returns its index (or -1 when disabled).
  int64_t Begin(const char* name, int64_t parent, uint64_t query_id);
  void End(int64_t span);
  // Records an interval measured elsewhere (e.g. ServiceStats timestamps).
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, uint64_t query_id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t parent, uint64_t query_id)
      : tracer_(tracer), index_(tracer.Begin(name, parent, query_id)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  int64_t index_;
};

// Per-name totals over a set of tracers: count, summed duration and self time
// (duration minus the part covered by child spans).
std::string SpanTable(const std::vector<const Tracer*>& tracers);

// Writes every span as one JSON line to `path` (directories created).
void WriteSpans(const std::vector<const Tracer*>& tracers, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
