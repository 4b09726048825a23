// ingest_read: writes beside reads on a hash-placed 4-shard kShardedSeabed
// fleet. One thread appends a fixed number of 10k-row synthetic batches
// through Session::Append, paced evenly over the measured window so both
// commits of a comparison see the same write load; one reader runs a closed
// loop of a 10%-selective SUM/COUNT as SQL text.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/workloads.h"
#include "src/engine/column.h"
#include "src/query/parser.h"
#include "src/seabed/encryptor.h"
#include "src/seabed/sharded_backend.h"
#include "src/seabed/snapshot.h"
#include "src/workload/synthetic.h"

namespace perfbench {
namespace {

constexpr uint64_t kBaseRows = 500000;
constexpr uint64_t kBatchRows = 10000;
constexpr size_t kBatches = 100;
constexpr size_t kShards = 4;
constexpr int kWarmupReads = 20;
constexpr int64_t kSelectivity = 10;  // percent
constexpr size_t kHandDrivenAppends = 5;
constexpr char kReadSql[] = "SELECT COUNT(*), SUM(value) FROM synthetic WHERE sel < 10";

// COUNT and SUM(value) over rows with sel < kSelectivity.
void AddMatching(const seabed::Table& t, int64_t& count, int64_t& sum) {
  const auto& value = dynamic_cast<const seabed::Int64Column&>(*t.GetColumn("value")).values();
  const auto& sel = dynamic_cast<const seabed::Int64Column&>(*t.GetColumn("sel")).values();
  for (size_t r = 0; r < value.size(); ++r) {
    if (sel[r] < kSelectivity) {
      ++count;
      sum += value[r];
    }
  }
}

seabed::ResultSet Read(seabed::Session& session, double& parse_s, seabed::QueryStats& stats) {
  const Clock::time_point t0 = Clock::now();
  const seabed::ParseResult parsed = seabed::ParseSql(kReadSql);
  parse_s = SecondsSince(t0);
  if (!parsed.ok) {
    std::cerr << "benchmark query does not parse: " << parsed.error << "\n";
    std::exit(2);
  }
  return session.Execute(parsed.query, &stats);
}

}  // namespace

void RunIngestRead(const RunConfig& config, Report& report, std::vector<Tracer>& tracers) {
  tracers.clear();
  tracers.emplace_back(false);  // reader
  tracers.emplace_back(false);  // appender

  // --- cold set-up -----------------------------------------------------------
  seabed::SyntheticSpec spec;
  spec.rows = kBaseRows;
  spec.seed = config.seed;
  std::shared_ptr<seabed::Table> base = seabed::MakeSyntheticTable(spec);
  const seabed::PlainSchema schema = seabed::SyntheticSchema(spec);

  seabed::SessionOptions options;
  options.backend = seabed::BackendKind::kShardedSeabed;
  options.shards = kShards;
  seabed::Session session(options);
  SetupClock setup;
  setup.Attach(session, base, schema, seabed::SyntheticSampleQueries(spec));
  setup.Publish(report);
  report.Set("storage.bytes_per_plain_byte", StoredBytesPerPlainByte(session, {"synthetic"}));

  // --- batches and reference prefixes (untimed) ---------------------------------
  std::vector<std::shared_ptr<seabed::Table>> batches;
  std::vector<int64_t> prefix_count(1, 0);
  std::vector<int64_t> prefix_sum(1, 0);
  AddMatching(*base, prefix_count[0], prefix_sum[0]);
  for (size_t b = 0; b < kBatches; ++b) {
    seabed::SyntheticSpec bs = spec;
    bs.rows = kBatchRows;
    bs.seed = config.seed * 1000003 + b + 1;
    batches.push_back(seabed::MakeSyntheticTable(bs));
    int64_t count = prefix_count.back();
    int64_t sum = prefix_sum.back();
    AddMatching(*batches.back(), count, sum);
    prefix_count.push_back(count);
    prefix_sum.push_back(sum);
  }
  IngestReadChecker checker(prefix_count, prefix_sum);
  const auto check_read = [&](const seabed::ResultSet& result) {
    const std::vector<Row> rows = Canonical(result);
    const std::optional<int64_t> count = rows.size() == 1 ? IntCell(rows[0], 0) : std::nullopt;
    const std::optional<int64_t> sum = rows.size() == 1 ? IntCell(rows[0], 1) : std::nullopt;
    const std::string err = count && sum ? checker.Check(*count, *sum)
                                         : "read returned " + std::to_string(rows.size()) +
                                               " rows without integer COUNT/SUM";
    if (!err.empty()) {
      report.Fail("ingest read: " + err);
    }
  };

  // The append path driven by hand on one shard's part: snapshot copy, then
  // the encryptor's append, each timed on its own.
  std::vector<double> copy_s;
  double hand_append_s = 0;
  if (config.trace) {
    auto& sharded = dynamic_cast<seabed::ShardedSeabedBackend&>(session.executor());
    const seabed::Encryptor encryptor(session.keys());
    for (size_t i = 0; i < kHandDrivenAppends; ++i) {
      const Clock::time_point t0 = Clock::now();
      seabed::EncryptedDatabase copy =
          seabed::CopyEncryptedDatabase(sharded.shard_database("synthetic", i % kShards));
      const Clock::time_point t1 = Clock::now();
      encryptor.AppendRows(copy, *batches[i], schema);
      copy_s.push_back(SecondsBetween(t0, t1));
      hand_append_s += SecondsSince(t1);
    }
  }

  // --- warm-up reads, then reader and paced appender ------------------------------
  std::vector<double> latency_s, traced_s, untraced_s, parse_s;
  LayerStats layers;
  for (int i = 0; i < kWarmupReads; ++i) {
    double p = 0;
    seabed::QueryStats stats;
    check_read(Read(session, p, stats));
  }

  // Set-up ends when the table is attached, the batches are generated and
  // the warm-up reads ran.
  report.Set("setup_s", ProcessCpuSeconds());
  report.Set("setup_wall_s", SecondsSince(kProcessStart));

  std::vector<double> append_s;
  double max_lag_s = 0;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const double period = config.seconds / static_cast<double>(kBatches);
  std::thread appender([&]() {
    Tracer& tracer = tracers[1];
    tracer.set_enabled(config.trace);
    for (size_t b = 0; b < kBatches; ++b) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(period * static_cast<double>(b)));
      std::this_thread::sleep_until(due);
      max_lag_s = std::max(max_lag_s, SecondsSince(due));
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer, "session.append", -1, b);
        session.Append("synthetic", *batches[b]);
      }
      append_s.push_back(SecondsSince(t0));
    }
  });

  Tracer& tracer = tracers[0];
  uint64_t reads = 0;
  while (SecondsSince(start) < config.seconds) {
    tracer.set_enabled(config.trace && reads % 2 == 0);
    const Clock::time_point t0 = Clock::now();
    seabed::QueryStats stats;
    double p = 0;
    seabed::ResultSet result;
    {
      ScopedSpan span(tracer, "ingest.read", -1, reads);
      result = Read(session, p, stats);
    }
    const double latency = SecondsSince(t0);
    latency_s.push_back(latency);
    (reads % 2 == 0 ? traced_s : untraced_s).push_back(latency);
    parse_s.push_back(p);
    layers.Add(stats, latency - p);
    check_read(result);
    ++reads;
  }
  appender.join();
  tracer.set_enabled(false);
  const double window = SecondsSince(start);
  const double cpu_s = ProcessCpuSeconds() - cpu_start;

  // After the last append every read must see every batch.
  {
    double p = 0;
    seabed::QueryStats stats;
    check_read(Read(session, p, stats));
    if (checker.last_k() != kBatches) {
      report.Fail("ingest: final read saw " + std::to_string(checker.last_k()) + " of " +
                  std::to_string(kBatches) + " batches");
    }
  }

  // --- metrics ----------------------------------------------------------------
  const size_t third = latency_s.size() / 3;
  for (size_t part = 0; part < 3 && third > 0; ++part) {
    const std::vector<double> slice(latency_s.begin() + part * third,
                                    latency_s.begin() + (part + 1) * third);
    std::fprintf(stderr, "  reads %zu/3: n=%zu median=%.3f ms p90=%.3f ms\n", part + 1,
                 slice.size(), Median(slice) * 1e3, Quantile(slice, 0.9) * 1e3);
  }
  std::fprintf(stderr, "  appends: median=%.3f ms max lag=%.3f ms\n", Median(append_s) * 1e3,
               max_lag_s * 1e3);
  report.attempted = reads + kBatches;
  double append_total_s = 0;
  for (double s : append_s) {
    append_total_s += s;
  }
  report.Set("queries_per_s", static_cast<double>(reads) / window);
  report.Set("latency_p50_ms", Median(latency_s) * 1e3);
  // Per read, including the paced appends it runs beside.
  report.Set("cpu_ms_per_query", reads > 0 ? cpu_s * 1e3 / static_cast<double>(reads) : 0);
  report.Set("latency_p90_ms", Quantile(latency_s, 0.9) * 1e3);
  report.Set("latency_p99_ms", Quantile(latency_s, 0.99) * 1e3);
  report.Set("ingest.rows_per_s",
             append_total_s > 0 ? static_cast<double>(kBatches * kBatchRows) / append_total_s : 0);
  report.Set("ingest.lag_ms", max_lag_s * 1e3);
  report.Set("session.append_ms", Median(append_s) * 1e3);
  report.Set("query.parse_us", Median(parse_s) * 1e6);
  report.Set("snapshot.copy_ms", Median(copy_s) * 1e3);
  report.Set("encryptor.append_rows_per_s",
             hand_append_s > 0
                 ? static_cast<double>(kHandDrivenAppends * kBatchRows) / hand_append_s
                 : 0);
  layers.Publish(report);
  if (config.trace) {
    report.Set("trace.overhead_pct", TraceOverheadPct(traced_s, untraced_s));
  }
}

}  // namespace perfbench
