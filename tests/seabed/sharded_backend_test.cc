// Direct tests for the scale-out fan-out/merge backend: partitioning
// invariants, disjoint ASHE identifier spaces, per-shard stats (probe round
// and round two reported separately), the two-round-trip probe path with its
// zero-match short-circuit, intra-shard row-group pruning, appends (batch
// locality), skew-triggered rebalancing, concurrency of Append against
// joins, joins through the replica, and kSeabed as a one-shard fleet. The
// randomized equivalence suite (fuzz_equivalence_test.cc) covers breadth;
// these tests pin the mechanics.
#include "src/seabed/sharded_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/seabed/session.h"
#include "tests/seabed/test_util.h"

namespace seabed {
namespace {

// A batch over the "emp" schema: `rows` rows of one store with timestamps
// ts_base, ts_base+1, ... (contiguous, so batches land clustered and
// row-group summaries can prune them).
std::shared_ptr<Table> MakeEmpBatch(size_t rows, const std::string& store, int64_t ts_base,
                                    uint64_t seed) {
  auto batch = std::make_shared<Table>("emp");
  auto store_col = std::make_shared<StringColumn>();
  auto ts_col = std::make_shared<Int64Column>();
  auto salary_col = std::make_shared<Int64Column>();
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    store_col->Append(store);
    ts_col->Append(ts_base + static_cast<int64_t>(i));
    salary_col->Append(rng.Range(0, 5000));
  }
  batch->AddColumn("store", store_col);
  batch->AddColumn("ts", ts_col);
  batch->AddColumn("salary", salary_col);
  return batch;
}

SessionOptions TestOptions(BackendKind backend, size_t shards) {
  SessionOptions options;
  options.backend = backend;
  options.shards = shards;
  options.planner.expected_rows = 1200;
  options.key_seed = 77;
  options.cluster.num_workers = 4;
  options.cluster.job_overhead_seconds = 0;
  options.cluster.task_overhead_seconds = 0;
  return options;
}

class ShardedBackendTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  ShardedBackendTest()
      : plain_(TestOptions(BackendKind::kPlain, 1)),
        sharded_(TestOptions(BackendKind::kShardedSeabed, kShards)) {
    schema_.table_name = "emp";
    schema_.columns.push_back({"store", ColumnType::kString, true, std::nullopt});
    schema_.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
    schema_.columns.push_back({"salary", ColumnType::kInt64, true, std::nullopt});

    table_ = std::make_shared<Table>("emp");
    auto store_col = std::make_shared<StringColumn>();
    auto ts_col = std::make_shared<Int64Column>();
    auto salary_col = std::make_shared<Int64Column>();
    Rng rng(11);
    const char* stores[] = {"s1", "s2", "s3"};
    for (int i = 0; i < 1200; ++i) {
      store_col->Append(stores[rng.Below(3)]);
      ts_col->Append(static_cast<int64_t>(rng.Below(1000)));
      salary_col->Append(rng.Range(-1000, 100000));
    }
    table_->AddColumn("store", store_col);
    table_->AddColumn("ts", ts_col);
    table_->AddColumn("salary", salary_col);

    for (Session* s : {&plain_, &sharded_}) {
      s->Attach(table_, schema_, Samples());
    }
  }

  static std::vector<Query> Samples() {
    std::vector<Query> samples;
    Query q;
    q.table = "emp";
    q.Sum("salary").Count().Min("ts").Max("ts");
    q.Where("ts", CmpOp::kGe, int64_t{0});
    q.GroupBy("store");
    samples.push_back(q);
    return samples;
  }

  ShardedSeabedBackend& backend() {
    return static_cast<ShardedSeabedBackend&>(sharded_.executor());
  }

  Session plain_;
  Session sharded_;
  PlainSchema schema_;
  std::shared_ptr<Table> table_;
};

TEST_F(ShardedBackendTest, PartitionsCoverEveryRowExactlyOnce) {
  size_t total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const size_t rows = backend().shard_database("emp", s).table->NumRows();
    EXPECT_GT(rows, 0u) << "shard " << s << " is empty — hash placement is degenerate";
    total += rows;
  }
  EXPECT_EQ(total, table_->NumRows());
}

TEST_F(ShardedBackendTest, ShardsEncryptIntoDisjointIdentifierSpaces) {
  uint64_t previous_end = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const Table& enc = *backend().shard_database("emp", s).table;
    const auto* col = static_cast<const AsheColumn*>(enc.GetColumn("salary#ashe").get());
    const uint64_t first = col->IdOfRow(0);
    const uint64_t last = col->IdOfRow(col->RowCount() - 1);
    EXPECT_GT(first, previous_end) << "shard " << s << " overlaps the previous shard's ids";
    previous_end = last;
  }
}

TEST_F(ShardedBackendTest, FanOutMatchesPlainAndFillsShardStats) {
  Query q;
  q.table = "emp";
  q.Sum("salary", "total").Count("n").Min("ts", "lo").Max("ts", "hi");
  q.Where("ts", CmpOp::kGe, int64_t{400});

  QueryStats plain_stats, sharded_stats;
  const ResultSet reference = plain_.Execute(q, &plain_stats);
  const ResultSet result = sharded_.Execute(q, &sharded_stats);
  EXPECT_EQ(RowsAsStrings(result), RowsAsStrings(reference));

  EXPECT_EQ(sharded_stats.backend, "sharded-seabed");
  EXPECT_EQ(sharded_stats.rows_touched, plain_stats.rows_touched);
  ASSERT_EQ(sharded_stats.shard_server_seconds.size(), kShards);
  EXPECT_GE(sharded_stats.merge_seconds, 0.0);
  EXPECT_GT(sharded_stats.job.num_tasks, 0u);
  EXPECT_GT(sharded_stats.translate_seconds, 0.0);
  // Simulated latency is the slowest shard (plus merge), not the sum.
  double max_shard = 0;
  for (const double s : sharded_stats.shard_server_seconds) {
    max_shard = std::max(max_shard, s);
  }
  EXPECT_GE(sharded_stats.server_seconds, max_shard);
}

TEST_F(ShardedBackendTest, GroupByMergesGroupsAcrossShards) {
  Query q;
  q.table = "emp";
  q.Sum("salary", "total").Count("n");
  q.GroupBy("store");
  EXPECT_EQ(RowsAsStrings(sharded_.Execute(q, nullptr)),
            RowsAsStrings(plain_.Execute(q, nullptr)));
}

TEST_F(ShardedBackendTest, TwoRoundTripQuerySkipsShardsAndStaysCorrect) {
  Query q;
  q.table = "emp";
  q.Sum("salary", "total").Count("n");
  q.Where("ts", CmpOp::kGe, int64_t{990});  // selective: some shards may miss
  q.needs_two_round_trips = true;
  EXPECT_EQ(RowsAsStrings(sharded_.Execute(q, nullptr)),
            RowsAsStrings(plain_.Execute(q, nullptr)));

  // A probe that matches nowhere must still produce the SQL zero row.
  Query none = q;
  none.filters.clear();
  none.Where("ts", CmpOp::kGe, int64_t{100000});
  EXPECT_EQ(RowsAsStrings(sharded_.Execute(none, nullptr)),
            RowsAsStrings(plain_.Execute(none, nullptr)));
}

TEST_F(ShardedBackendTest, AppendGrowsEveryShardConsistently) {
  const auto batch = MakeEmpBatch(300, "s1", 0, 23);

  // The sessions share `table_`, so append through exactly one of them; the
  // plain session then executes over the already-grown table.
  const size_t before = table_->NumRows();
  sharded_.Append("emp", *batch);
  EXPECT_EQ(table_->NumRows(), before + 300);

  size_t total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    total += backend().shard_database("emp", s).table->NumRows();
  }
  EXPECT_EQ(total, before + 300);

  // Append locality: the whole batch lands on the shard owning its first
  // global row.
  const std::vector<size_t> counts = backend().ShardRowCounts("emp");
  EXPECT_EQ(counts[backend().ShardOfRow(before)],
            backend().shard_database("emp", backend().ShardOfRow(before)).table->NumRows());

  Query q;
  q.table = "emp";
  q.Sum("salary", "total").Count("n");
  q.GroupBy("store");
  EXPECT_EQ(RowsAsStrings(sharded_.Execute(q, nullptr)),
            RowsAsStrings(plain_.Execute(q, nullptr)));
}

// Satellite regression: when round one reports no matching shard, round two
// must not fan out at all — no scan job, no touched rows, no shard billing
// round-two time. The merged empty response still decrypts to the SQL zero
// row for global aggregates.
TEST_F(ShardedBackendTest, ZeroMatchProbeShortCircuitsRoundTwo) {
  Query q;
  q.table = "emp";
  q.Sum("salary", "total").Count("n");
  q.Where("ts", CmpOp::kGe, int64_t{100000});  // matches nothing anywhere
  q.needs_two_round_trips = true;

  QueryStats stats;
  EXPECT_EQ(RowsAsStrings(sharded_.Execute(q, &stats)),
            RowsAsStrings(plain_.Execute(q, nullptr)));
  EXPECT_TRUE(stats.probe_used);
  EXPECT_EQ(stats.row_groups_pruned, stats.row_groups_total);
  EXPECT_EQ(stats.job.num_tasks, 0u);
  EXPECT_EQ(stats.rows_touched, 0u);
  EXPECT_EQ(stats.merge_seconds, 0.0);

  // Satellite regression: probe-round time reports separately from round
  // two, so the skipped shards must bill zero round-two seconds while the
  // probe round itself shows up in the probe vector.
  ASSERT_EQ(stats.shard_server_seconds.size(), kShards);
  ASSERT_EQ(stats.shard_probe_seconds.size(), kShards);
  for (const double s : stats.shard_server_seconds) {
    EXPECT_EQ(s, 0.0);
  }
  double max_probe = 0;
  for (const double s : stats.shard_probe_seconds) {
    max_probe = std::max(max_probe, s);
  }
  EXPECT_GT(max_probe, 0.0);
  EXPECT_EQ(stats.probe_seconds, max_probe);
}

TEST_F(ShardedBackendTest, ProbeStatsInvariantsHoldOnTheFanOutPath) {
  Query q;
  q.table = "emp";
  q.Sum("salary", "total").Count("n");
  q.Where("ts", CmpOp::kGe, int64_t{900});
  ExpectProbeStatsInvariants(sharded_, q, RowsAsStrings(plain_.Execute(q, nullptr)));

  Query grouped;
  grouped.table = "emp";
  grouped.Sum("salary", "total");
  grouped.GroupBy("store");
  grouped.needs_two_round_trips = true;
  ExpectProbeStatsInvariants(sharded_, grouped, RowsAsStrings(plain_.Execute(grouped, nullptr)));
}

// Tentpole: round two consults each surviving shard's row-group summary
// index, so pruning happens *inside* shards and the probe stats aggregate
// row groups across the fleet instead of counting shards.
TEST_F(ShardedBackendTest, IntraShardPruningPrunesRowGroupsInsideShards) {
  // A clustered batch lands whole on one shard (append locality), so its
  // rows occupy a contiguous stretch of that shard's row groups; every other
  // group's ORE range ends below the filter bound and must prune.
  const auto batch = MakeEmpBatch(300, "s2", 2000, 31);
  sharded_.Append("emp", *batch);

  ProbeOptions popts;
  popts.mode = ProbeMode::kForced;
  popts.row_group_size = 64;
  sharded_.set_probe_options(popts);

  Query q;
  q.table = "emp";
  q.Sum("salary", "total").Count("n");
  q.Where("ts", CmpOp::kGe, int64_t{2000});
  QueryStats stats;
  EXPECT_EQ(RowsAsStrings(sharded_.Execute(q, &stats)),
            RowsAsStrings(plain_.Execute(q, nullptr)));
  EXPECT_TRUE(stats.probe_used);
  EXPECT_GT(stats.row_groups_total, kShards);  // row groups, not shards
  EXPECT_GT(stats.row_groups_pruned, 0u);
  EXPECT_LT(stats.row_groups_pruned, stats.row_groups_total);
  EXPECT_EQ(stats.rows_touched, 300u);
  sharded_.set_probe_options(ProbeOptions{});
}

// Appends a batch that lands on shard `target`: append locality places a
// batch on ShardOfRow(first global row), so 1-row filler batches advance the
// global row count until the placement hash points at the target. Every
// session in `sessions` ingests the same batches (fillers included), keeping
// them comparable.
void AppendSteered(const std::vector<Session*>& sessions, const ShardedSeabedBackend& backend,
                   size_t* total_rows, size_t target, const Table& batch, uint64_t seed) {
  size_t guard = 0;
  while (backend.ShardOfRow(*total_rows) != target) {
    const auto filler = MakeEmpBatch(1, "s3", 0, seed * 131 + guard);
    for (Session* s : sessions) {
      s->Append("emp", *filler);
    }
    *total_rows += 1;
    ASSERT_LT(++guard, 64u) << "placement hash never reached shard " << target;
  }
  for (Session* s : sessions) {
    s->Append("emp", batch);
  }
  *total_rows += batch.NumRows();
}

// Tentpole: a skewed append stream (every batch steered to one shard) must
// trigger whole-row-group migration once the configured skew ratio is
// exceeded, leave the fleet balanced, keep ASHE identifier spaces disjoint
// (donor remainders re-encrypt into fresh slots), and change no answer.
TEST(ShardRebalanceTest, SkewedAppendsTriggerMigrationAndStayCorrect) {
  constexpr size_t kShards = 4;
  SessionOptions rebal_options = TestOptions(BackendKind::kShardedSeabed, kShards);
  rebal_options.shards_rebalance.enabled = true;
  rebal_options.shards_rebalance.max_skew_ratio = 1.3;
  rebal_options.shards_rebalance.row_group_size = 128;
  // kSeabed is a one-shard fleet: `shards` and the rebalance options do not
  // apply to it.
  SessionOptions one_shard_options = rebal_options;
  one_shard_options.backend = BackendKind::kSeabed;

  Session plain(TestOptions(BackendKind::kPlain, 1));
  Session skewed(TestOptions(BackendKind::kShardedSeabed, kShards));
  Session rebalanced(std::move(rebal_options));
  Session one_shard(std::move(one_shard_options));

  const auto seed_table = MakeEmpBatch(400, "s1", 0, 7);
  PlainSchema schema;
  schema.table_name = "emp";
  schema.columns.push_back({"store", ColumnType::kString, true, std::nullopt});
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"salary", ColumnType::kInt64, true, std::nullopt});
  std::vector<Query> samples;
  {
    Query q;
    q.table = "emp";
    q.Sum("salary").Count().Min("ts").Max("ts");
    q.Where("ts", CmpOp::kGe, int64_t{0});
    q.GroupBy("store");
    samples.push_back(q);
  }
  const std::vector<Session*> sessions = {&plain, &skewed, &rebalanced, &one_shard};
  for (Session* s : sessions) {
    s->Attach(CloneTable(*seed_table), schema, samples);
  }

  auto& skewed_backend = static_cast<ShardedSeabedBackend&>(skewed.executor());
  auto& rebal_backend = static_cast<ShardedSeabedBackend&>(rebalanced.executor());

  // Ten 400-row batches, all steered onto one shard: the unbalanced fleet
  // ends up with one hot shard holding the lion's share.
  size_t total_rows = seed_table->NumRows();
  const size_t hot = skewed_backend.ShardOfRow(total_rows);
  for (uint64_t b = 0; b < 10; ++b) {
    const auto batch = MakeEmpBatch(400, b % 2 == 0 ? "s1" : "s2",
                                    static_cast<int64_t>(1000 + b * 400), 100 + b);
    AppendSteered(sessions, skewed_backend, &total_rows, hot, *batch, b);
  }

  const std::vector<size_t> skewed_counts = skewed_backend.ShardRowCounts("emp");
  const std::vector<size_t> rebal_counts = rebal_backend.ShardRowCounts("emp");
  const size_t skewed_max = *std::max_element(skewed_counts.begin(), skewed_counts.end());
  const size_t rebal_max = *std::max_element(rebal_counts.begin(), rebal_counts.end());
  const size_t total = total_rows;
  EXPECT_GT(skewed_max, (total * 3) / 4) << "the stream was not actually skewed";
  // Rebalancing must hold the largest shard near the configured ratio (one
  // row-group of slack: moves are whole groups).
  EXPECT_LE(rebal_max, static_cast<size_t>(1.3 * static_cast<double>(total) / kShards) + 128);

  const std::optional<RebalanceStats> stats = rebalanced.rebalance_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->rebalances, 0u);
  EXPECT_GT(stats->rows_moved, 0u);
  EXPECT_GT(stats->row_groups_moved, 0u);
  EXPECT_GT(stats->rows_reencrypted, 0u);
  EXPECT_EQ(skewed.rebalance_stats()->rebalances, 0u);

  // Every append lands on kSeabed's single shard, and nothing migrates.
  const auto& one_shard_backend = static_cast<ShardedSeabedBackend&>(one_shard.executor());
  EXPECT_EQ(one_shard_backend.ShardRowCounts("emp"), std::vector<size_t>{total_rows});
  EXPECT_FALSE(one_shard.rebalance_stats().has_value());

  // Identifier spaces stay disjoint after migration: no ASHE identifier of
  // the salary column appears in two shard partitions (pad reuse across
  // coexisting ciphertexts would leak plaintext differences).
  std::set<uint64_t> seen_ids;
  for (size_t s = 0; s < kShards; ++s) {
    const Table& part = *rebal_backend.shard_database("emp", s).table;
    const auto* col = static_cast<const AsheColumn*>(part.GetColumn("salary#ashe").get());
    for (size_t row = 0; row < col->RowCount(); ++row) {
      EXPECT_TRUE(seen_ids.insert(col->IdOfRow(row)).second)
          << "id " << col->IdOfRow(row) << " reused in shard " << s;
    }
  }

  // Every answer is unchanged by the migration — including pruned two-round
  // execution over the moved row groups.
  std::vector<Query> queries;
  {
    Query q;
    q.table = "emp";
    q.Sum("salary", "total").Count("n");
    queries.push_back(q);
    Query g = q;
    g.GroupBy("store");
    queries.push_back(g);
    Query r = q;
    r.Where("ts", CmpOp::kGe, int64_t{3000});
    r.needs_two_round_trips = true;
    queries.push_back(r);
    Query m;
    m.table = "emp";
    m.Min("ts", "lo").Max("ts", "hi");
    queries.push_back(m);
  }
  for (const Query& q : queries) {
    const auto reference = RowsAsStrings(plain.Execute(q, nullptr));
    EXPECT_EQ(RowsAsStrings(skewed.Execute(q, nullptr)), reference);
    EXPECT_EQ(RowsAsStrings(rebalanced.Execute(q, nullptr)), reference);
    EXPECT_EQ(RowsAsStrings(one_shard.Execute(q, nullptr)), reference);
    ExpectProbeStatsInvariants(rebalanced, q, reference);
  }
}

// Satellite regression: Append used to mutate the join replica (and the
// shard partitions) in place, racing a concurrent join fan-out on column
// growth. Appends now build an immutable successor version off to the side
// and publish it atomically; Execute pins its version through an epoch guard
// and runs lock-free. This test drives both paths from two threads, checks
// the final answers, and — the tentpole's observable claim — asserts via
// wall-clock spans that appends EXECUTED WHILE queries executed instead of
// serializing behind them (runs in the fast tier, so the ASan/UBSan and
// TSan CI jobs cover it).
TEST(ShardedConcurrencyTest, AppendDuringJoinQueriesIsSafe) {
  PlainSchema fact_schema;
  fact_schema.table_name = "visits";
  fact_schema.columns.push_back({"url", ColumnType::kInt64, true, std::nullopt});
  fact_schema.columns.push_back({"revenue", ColumnType::kInt64, true, std::nullopt});
  PlainSchema dim_schema;
  dim_schema.table_name = "pages";
  dim_schema.columns.push_back({"url", ColumnType::kInt64, true, std::nullopt});
  dim_schema.columns.push_back({"rank", ColumnType::kInt64, true, std::nullopt});

  auto make_fact = [](size_t rows, uint64_t seed) {
    auto t = std::make_shared<Table>("visits");
    auto url = std::make_shared<Int64Column>();
    auto revenue = std::make_shared<Int64Column>();
    Rng rng(seed);
    for (size_t i = 0; i < rows; ++i) {
      url->Append(static_cast<int64_t>(rng.Below(40)));
      revenue->Append(rng.Range(0, 300));
    }
    t->AddColumn("url", url);
    t->AddColumn("revenue", revenue);
    return t;
  };
  auto make_dim = [](size_t rows, uint64_t seed) {
    auto t = std::make_shared<Table>("pages");
    auto url = std::make_shared<Int64Column>();
    auto rank = std::make_shared<Int64Column>();
    Rng rng(seed);
    for (size_t i = 0; i < rows; ++i) {
      url->Append(static_cast<int64_t>(i % 40));
      rank->Append(rng.Range(1, 100));
    }
    t->AddColumn("url", url);
    t->AddColumn("rank", rank);
    return t;
  };

  Query join_sample;
  join_sample.table = "visits";
  join_sample.Sum("revenue").Avg("right:rank");
  join_sample.join = Join{"pages", "url", "right:url"};
  Query dim_sample;
  dim_sample.table = "pages";
  dim_sample.Sum("rank");
  dim_sample.join = Join{"visits", "url", "right:url"};

  SessionOptions options = TestOptions(BackendKind::kShardedSeabed, 3);
  options.shards_rebalance.enabled = true;  // migrations join the party too
  options.shards_rebalance.max_skew_ratio = 1.2;
  options.shards_rebalance.row_group_size = 64;
  Session sharded(std::move(options));
  Session plain(TestOptions(BackendKind::kPlain, 1));
  for (Session* s : {&sharded, &plain}) {
    s->Attach(make_fact(600, 3), fact_schema, {join_sample});
    s->Attach(make_dim(40, 4), dim_schema, {dim_sample});
  }

  Query q = join_sample;
  q.aggregates.clear();
  q.Sum("revenue", "rev").Avg("right:rank", "mean_rank").Count("n");
  sharded.Execute(q, nullptr);  // builds the replica before the race starts

  constexpr int kIterations = 12;
  using TimePoint = std::chrono::steady_clock::time_point;
  std::vector<std::pair<TimePoint, TimePoint>> query_spans(kIterations);
  std::vector<std::pair<TimePoint, TimePoint>> append_spans;
  append_spans.reserve(2 * kIterations);
  // Snapshot appends on batches this small finish in tens of microseconds —
  // far less than one join query (~tens of milliseconds) and less than the
  // reader thread's wakeup latency. To actually exercise the race (and to
  // observe the overlap the tentpole promises), each append waits until the
  // reader is inside Execute before firing: the append then lands wholly
  // within a query span, which the old reader/writer lock made impossible.
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::thread reader([&] {
    for (int i = 0; i < kIterations; ++i) {
      started.fetch_add(1, std::memory_order_release);
      query_spans[i].first = std::chrono::steady_clock::now();
      sharded.Execute(q, nullptr);
      query_spans[i].second = std::chrono::steady_clock::now();
      finished.fetch_add(1, std::memory_order_release);
    }
  });
  std::vector<std::shared_ptr<Table>> fact_batches, dim_batches;
  for (int i = 0; i < kIterations; ++i) {
    fact_batches.push_back(make_fact(30, 100 + i));
    dim_batches.push_back(make_dim(10, 200 + i));
  }
  auto wait_for_inflight_query = [&] {
    for (;;) {
      const int done = finished.load(std::memory_order_acquire);
      if (started.load(std::memory_order_acquire) > done || done >= kIterations) {
        return;
      }
      std::this_thread::yield();
    }
  };
  for (int i = 0; i < kIterations; ++i) {
    for (const std::string& table : {std::string("visits"), std::string("pages")}) {
      const Table& batch = table == "visits" ? *fact_batches[i] : *dim_batches[i];
      wait_for_inflight_query();
      const TimePoint begin = std::chrono::steady_clock::now();
      sharded.Append(table, batch);
      append_spans.emplace_back(begin, std::chrono::steady_clock::now());
    }
  }
  reader.join();

  // Appends never block queries, observed: some append's wall-clock span
  // must overlap some query's — under the old reader/writer lock every
  // append strictly followed or preceded every query.
  size_t overlaps = 0;
  for (const auto& [qb, qe] : query_spans) {
    for (const auto& [ab, ae] : append_spans) {
      if (ab < qe && qb < ae) {
        ++overlaps;
      }
    }
  }
  EXPECT_GT(overlaps, 0u);

  // The plain session ingests the same batches serially; final answers must
  // agree once the dust settles.
  for (int i = 0; i < kIterations; ++i) {
    plain.Append("visits", *fact_batches[i]);
    plain.Append("pages", *dim_batches[i]);
  }
  EXPECT_EQ(RowsAsStrings(sharded.Execute(q, nullptr)),
            RowsAsStrings(plain.Execute(q, nullptr)));
}

// Joins resolve the right side against the full replica on every shard.
TEST(ShardedJoinTest, JoinAggregatesThroughTheReplica) {
  PlainSchema fact_schema;
  fact_schema.table_name = "visits";
  fact_schema.columns.push_back({"url", ColumnType::kInt64, true, std::nullopt});
  fact_schema.columns.push_back({"revenue", ColumnType::kInt64, true, std::nullopt});

  PlainSchema dim_schema;
  dim_schema.table_name = "pages";
  dim_schema.columns.push_back({"url", ColumnType::kInt64, true, std::nullopt});
  dim_schema.columns.push_back({"rank", ColumnType::kInt64, true, std::nullopt});
  dim_schema.columns.push_back({"site", ColumnType::kString, false, std::nullopt});

  auto fact = std::make_shared<Table>("visits");
  auto dim = std::make_shared<Table>("pages");
  {
    auto url = std::make_shared<Int64Column>();
    auto revenue = std::make_shared<Int64Column>();
    Rng rng(5);
    for (int i = 0; i < 900; ++i) {
      url->Append(static_cast<int64_t>(rng.Below(60)));
      revenue->Append(rng.Range(0, 300));
    }
    fact->AddColumn("url", url);
    fact->AddColumn("revenue", revenue);
  }
  {
    auto url = std::make_shared<Int64Column>();
    auto rank = std::make_shared<Int64Column>();
    auto site = std::make_shared<StringColumn>();
    Rng rng(6);
    for (int i = 0; i < 50; ++i) {
      url->Append(i);
      rank->Append(rng.Range(1, 100));
      site->Append(i % 2 == 0 ? "a" : "b");
    }
    dim->AddColumn("url", url);
    dim->AddColumn("rank", rank);
    dim->AddColumn("site", site);
  }

  Query join_sample;
  join_sample.table = "visits";
  join_sample.Sum("revenue");
  join_sample.join = Join{"pages", "url", "right:url"};
  Query dim_sample;
  dim_sample.table = "pages";
  dim_sample.Avg("rank");
  dim_sample.join = Join{"visits", "url", "right:url"};

  Session plain(TestOptions(BackendKind::kPlain, 1));
  Session sharded(TestOptions(BackendKind::kShardedSeabed, 3));
  Session one_shard(TestOptions(BackendKind::kSeabed, 3));
  for (Session* s : {&plain, &sharded, &one_shard}) {
    s->Attach(fact, fact_schema, {join_sample});
    s->Attach(dim, dim_schema, {dim_sample});
  }

  Query q = join_sample;
  q.aggregates.clear();
  q.Sum("revenue", "rev").Avg("right:rank", "mean_rank").Count("n");
  q.GroupBy("right:site");

  auto& backend = static_cast<ShardedSeabedBackend&>(sharded.executor());
  EXPECT_EQ(backend.replica_database("pages"), nullptr)
      << "the replica must be built lazily, on the first join";

  EXPECT_EQ(RowsAsStrings(sharded.Execute(q, nullptr)),
            RowsAsStrings(plain.Execute(q, nullptr)));

  // The replica shares column keys with the shard partitions, so its ASHE
  // identifier space must sit above every shard's — pad reuse across the
  // two encryptions of the same table would leak plaintext differences.
  const EncryptedDatabase* replica = backend.replica_database("pages");
  ASSERT_NE(replica, nullptr);
  const auto* replica_rank =
      static_cast<const AsheColumn*>(replica->table->GetColumn("rank#ashe").get());
  for (size_t s = 0; s < backend.num_shards(); ++s) {
    const Table& part = *backend.shard_database("pages", s).table;
    const auto* part_rank = static_cast<const AsheColumn*>(part.GetColumn("rank#ashe").get());
    EXPECT_GT(replica_rank->IdOfRow(0), part_rank->IdOfRow(part_rank->RowCount() - 1))
        << "shard " << s;
  }

  // kSeabed's single shard joins against its own part 0, which already
  // holds the whole right table: no replica is ever built.
  EXPECT_EQ(RowsAsStrings(one_shard.Execute(q, nullptr)),
            RowsAsStrings(plain.Execute(q, nullptr)));
  const auto& one_shard_backend = static_cast<ShardedSeabedBackend&>(one_shard.executor());
  EXPECT_EQ(one_shard_backend.num_shards(), 1u);
  EXPECT_EQ(one_shard_backend.replica_database("pages"), nullptr);
}

}  // namespace
}  // namespace seabed
