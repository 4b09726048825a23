// dashboard_serve: four closed-loop clients against seabed::Service (four
// unpaced workers) over a 4-shard kShardedSeabed fleet whose ad-analytics
// table is placed by key range on `hour`. Queries come from the synthesized
// ad-analytics log: hourly sums over the first 1–12 hours (routable), half
// of them with an equality filter on a sensitive dimension, a quarter
// submitted through prepared statements.
#include <barrier>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/workloads.h"
#include "src/seabed/service.h"
#include "src/workload/ad_analytics.h"

namespace perfbench {
namespace {

constexpr uint64_t kRows = 200000;
constexpr size_t kShards = 4;
constexpr size_t kClients = 4;
constexpr size_t kWorkers = 4;
constexpr size_t kStreamLength = 256;  // distinct queries, cycled by the clients
constexpr size_t kWarmupPerClient = 16;

struct DashboardQuery {
  seabed::Query query;       // fully bound: what the reference evaluates
  int prepared = -1;         // index into the prepared handles, or -1 (ad hoc)
  std::vector<seabed::Value> params;
  std::vector<Row> want;
};

int64_t HourBound(const seabed::Query& q) {
  for (const seabed::Predicate& p : q.filters) {
    if (p.column == "hour") {
      return std::get<int64_t>(p.operand);
    }
  }
  return 24;
}

// The log's hourly sum with its `hour < g` bound turned into a placeholder.
seabed::Query PreparedShape(const seabed::Query& q) {
  seabed::Query shape = q;
  shape.filters.clear();
  shape.WhereParam("hour", seabed::CmpOp::kLt);
  return shape;
}

struct ClientResults {
  std::vector<double> latency_s;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<double> queue_wait_s;
  std::vector<double> batch_size;
  LayerStats layers;
  Clock::time_point last_done;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

}  // namespace

void RunDashboardServe(const RunConfig& config, Report& report, std::vector<Tracer>& tracers) {
  // --- cold set-up -----------------------------------------------------------
  seabed::AdAnalyticsSpec spec;
  spec.rows = kRows;
  spec.seed = config.seed;
  std::shared_ptr<seabed::Table> table = seabed::MakeAdAnalyticsTable(spec);

  seabed::ServiceOptions options;
  options.session.backend = seabed::BackendKind::kShardedSeabed;
  options.session.shards = kShards;
  options.session.shards_placement.policy = seabed::PlacementPolicy::kKeyRange;
  options.session.shards_placement.clustering_columns["ad_analytics"] = "hour";
  options.num_workers = kWorkers;
  seabed::Service service(options);
  SetupClock setup;
  setup.Attach(service, table, seabed::AdAnalyticsSchema(spec),
               seabed::AdAnalyticsSampleQueries(spec));
  setup.Publish(report);
  report.Set("storage.bytes_per_plain_byte",
             StoredBytesPerPlainByte(service.session(), {"ad_analytics"}));

  // --- the query stream and its references (left out of setup_s) ----------------
  // The stream is the same for every seed, only the table changes: a
  // seed-dependent mix would move cpu_ms_per_query between runs by itself.
  const Clock::time_point reference_start = Clock::now();
  const double reference_cpu_start = ProcessCpuSeconds();
  const std::vector<seabed::Query> log =
      seabed::AdAnalyticsQueryLog(seabed::AdAnalyticsSpec{}, kStreamLength, kStreamLength / 5);
  std::vector<DashboardQuery> stream;
  std::vector<seabed::PreparedQuery> prepared;
  std::map<std::string, int> prepared_index;  // shape fingerprint -> handle
  for (size_t i = 0; i < log.size(); ++i) {
    DashboardQuery dq;
    const int64_t hours = HourBound(log[i]);
    if (i % 2 == 0) {
      // Sensitive filter, shaped like the planner's samples: dimension d with
      // its co-occurring measure, one of the dimension's frequent values.
      const size_t d = (i / 2) % spec.sensitive_dim_cardinalities.size();
      const uint64_t v = (i / 20) % 4;
      seabed::Query q;
      q.table = "ad_analytics";
      q.Sum("M" + std::to_string(d % spec.num_sensitive_measures + 1)).Count();
      q.Where("hour", seabed::CmpOp::kLt, hours);
      q.Where("SDim" + std::to_string(d + 1), seabed::CmpOp::kEq,
              "d" + std::to_string(d + 1) + "_v" + std::to_string(v));
      q.GroupBy("hour");
      q.expected_groups = static_cast<size_t>(hours);
      dq.query = std::move(q);
    } else if (i % 4 == 3) {
      const seabed::Query shape = PreparedShape(log[i]);
      const std::string key = shape.Fingerprint();
      auto [it, inserted] = prepared_index.try_emplace(key, static_cast<int>(prepared.size()));
      if (inserted) {
        prepared.push_back(service.Prepare(shape));
      }
      dq.prepared = it->second;
      dq.params = {seabed::Value(hours)};
      dq.query = shape.BindParams(dq.params);
    } else {
      dq.query = log[i];
    }
    dq.want = EvaluateReference(dq.query, *table, nullptr);
    stream.push_back(std::move(dq));
  }
  const double reference_s = SecondsSince(reference_start);
  const double reference_cpu_s = ProcessCpuSeconds() - reference_cpu_start;

  // --- clients -----------------------------------------------------------------
  tracers.clear();
  for (size_t c = 0; c < kClients; ++c) {
    tracers.emplace_back(false);
  }
  std::vector<ClientResults> results(kClients);
  Clock::time_point start;
  double cpu_start = 0;
  uint64_t groups_before = 0;
  std::barrier warmed(static_cast<std::ptrdiff_t>(kClients), [&]() noexcept {
    // Set-up ends when the table is attached and every client warmed up.
    report.Set("setup_s", ProcessCpuSeconds() - reference_cpu_s);
    report.Set("setup_wall_s", SecondsSince(kProcessStart) - reference_s);
    groups_before = service.counters().groups;
    cpu_start = ProcessCpuSeconds();
    start = Clock::now();
  });

  const auto client = [&](size_t c) {
    ClientResults& out = results[c];
    Tracer& tracer = tracers[c];
    for (size_t j = 0;; ++j) {
      const bool measured = j >= kWarmupPerClient;
      if (j == kWarmupPerClient) {
        warmed.arrive_and_wait();
      }
      if (measured && SecondsSince(start) >= config.seconds) {
        break;
      }
      const size_t idx = (c + kClients * j) % stream.size();
      const DashboardQuery& dq = stream[idx];
      tracer.set_enabled(config.trace && measured && j % 2 == 0);
      const Clock::time_point t0 = Clock::now();
      const int64_t root = tracer.Begin("dashboard.query", -1, idx);
      seabed::ServiceResult r = dq.prepared >= 0
                                    ? service.SubmitPrepared(prepared[dq.prepared], dq.params).get()
                                    : service.Submit(dq.query).get();
      const Clock::time_point t1 = Clock::now();
      tracer.End(root);
      if (root >= 0) {
        const auto enqueued = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(r.stats.queue_wait_seconds));
        tracer.Add("service.queue_wait", t0, t0 + enqueued, root, idx);
        tracer.Add("service.exec", r.stats.exec_begin, r.stats.exec_end, root, idx);
      }
      if (!measured) {
        continue;
      }
      ++out.attempted;
      out.last_done = t1;
      if (!r.ok) {
        ++out.failed;  // rejected or expired: counted, not a wrong answer
        continue;
      }
      const double latency = SecondsBetween(t0, t1);
      out.latency_s.push_back(latency);
      (j % 2 == 0 ? out.traced_s : out.untraced_s).push_back(latency);
      out.queue_wait_s.push_back(r.stats.queue_wait_seconds);
      out.batch_size.push_back(static_cast<double>(r.stats.batch_size));
      out.layers.Add(r.stats.query, SecondsBetween(r.stats.exec_begin, r.stats.exec_end));
      std::string err = CompareRows(Canonical(r.rows), dq.want);
      if (err.empty()) {
        err = CheckRouted(r.stats.query.shards_routed, r.stats.query.shards_total);
      }
      if (!err.empty()) {
        out.errors.push_back("dashboard query " + std::to_string(idx) + ": " + err);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(client, c);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  const uint64_t groups = service.counters().groups - groups_before;
  service.Shutdown(/*drain=*/true);

  // --- metrics ----------------------------------------------------------------
  ClientResults all;
  all.last_done = start;
  for (ClientResults& r : results) {
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.latency_s, r.latency_s);
    append(all.traced_s, r.traced_s);
    append(all.untraced_s, r.untraced_s);
    append(all.queue_wait_s, r.queue_wait_s);
    append(all.batch_size, r.batch_size);
    all.layers.Merge(r.layers);
    all.last_done = std::max(all.last_done, r.last_done);
    report.attempted += r.attempted;
    report.failed += r.failed;
    for (const std::string& e : r.errors) {
      report.Fail(e);
    }
  }
  const double window = SecondsBetween(start, all.last_done);
  report.Set("queries_per_s",
             window > 0 ? static_cast<double>(all.latency_s.size()) / window : 0);
  report.Set("latency_p50_ms", Median(all.latency_s) * 1e3);
  report.Set("cpu_ms_per_query",
             all.latency_s.empty() ? 0 : cpu_s * 1e3 / static_cast<double>(all.latency_s.size()));
  report.Set("latency_p90_ms", Quantile(all.latency_s, 0.9) * 1e3);
  report.Set("latency_p99_ms", Quantile(all.latency_s, 0.99) * 1e3);
  all.layers.Publish(report);
  report.Set("service.queue_wait_ms_p50", Median(all.queue_wait_s) * 1e3);
  report.Set("service.queue_wait_ms_p99", Quantile(all.queue_wait_s, 0.99) * 1e3);
  report.Set("service.batch_size_mean", Mean(all.batch_size));
  report.Set("service.groups", static_cast<double>(groups));
  if (config.trace) {
    report.Set("trace.overhead_pct", TraceOverheadPct(all.traced_s, all.untraced_s));
  }
}

}  // namespace perfbench
