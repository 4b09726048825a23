// analyst_adhoc: one analyst, serial closed loop of SQL text on kSeabed over
// the synthetic table and the BDB tables. Each round runs every query class
// once, in a fixed order; latency is reported per class and summarized as
// the geometric mean of the class figures, so no median straddles two
// classes.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/workloads.h"
#include "src/encoding/id_list_codec.h"
#include "src/query/parser.h"
#include "src/seabed/client.h"
#include "src/seabed/server.h"
#include "src/seabed/translator.h"
#include "src/workload/bdb.h"
#include "src/workload/synthetic.h"

namespace perfbench {
namespace {

constexpr uint64_t kSyntheticRows = 1000000;
constexpr uint64_t kSyntheticGroups = 64;
constexpr uint64_t kRankingsRows = 90000;
constexpr uint64_t kUserVisitsRows = 200000;
constexpr int kWarmupRounds = 2;

struct QueryClass {
  const char* name;
  const char* sql;
};

const QueryClass kClasses[] = {
    {"sum_full", "SELECT SUM(value) FROM synthetic"},
    {"sum_half", "SELECT SUM(value) FROM synthetic WHERE sel < 50"},
    {"groupby", "SELECT grp, SUM(value), COUNT(*) FROM synthetic GROUP BY grp"},
    // BDB Q4, Q1B and Q3A (src/workload/bdb.cc) as an analyst would type them.
    {"groupby_wide", "SELECT destURL, COUNT(*) AS visits FROM uservisits GROUP BY destURL"},
    {"range_ore", "SELECT COUNT(*), MAX(pageRank) FROM rankings WHERE pageRank > 5000"},
    {"join",
     "SELECT sourceIP, SUM(adRevenue), AVG(rankings.pageRank) AS avg_pageRank FROM uservisits "
     "JOIN rankings ON destURL = rankings.pageURL WHERE visitDate >= 1000 AND visitDate < 1030 "
     "GROUP BY sourceIP"},
};
constexpr size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

seabed::Query Parse(const char* sql) {
  seabed::ParseResult parsed = seabed::ParseSql(sql);
  if (!parsed.ok) {
    std::cerr << "benchmark query does not parse: " << sql << ": " << parsed.error << "\n";
    std::exit(2);
  }
  return parsed.query;
}

// The kSeabed path driven by hand, one module call at a time, with a span
// around each call.
struct HandTimes {
  double server_s = 0;
  double driver_s = 0;
  double job_compute_s = 0;
  double decode_s = 0;
  double decrypt_s = 0;
  size_t encoded_bytes = 0;
};

seabed::ResultSet RunByHand(seabed::Session& session, const seabed::Query& query,
                            Tracer& tracer, int64_t parent, uint64_t qid, HandTimes& times) {
  const seabed::EncryptedDatabase& db = session.encrypted_database(query.table);
  const seabed::EncryptedDatabase* right =
      query.join.has_value() ? &session.encrypted_database(query.join->right_table) : nullptr;
  seabed::TranslatorOptions topts = session.translator_options();
  topts.cluster_workers = session.cluster().num_workers();

  seabed::TranslatedQuery tq;
  {
    ScopedSpan span(tracer, "translator.translate", parent, qid);
    tq = seabed::Translator(db, session.keys()).Translate(query, topts);
    if (tq.server.join.has_value()) {
      tq.server.join->right_table = right->table->name();
    }
  }
  seabed::EncryptedResponse response;
  {
    ScopedSpan span(tracer, "server.execute", parent, qid);
    const Clock::time_point t0 = Clock::now();
    response = seabed::Server().Execute(tq.server, session.cluster(), db.table.get(),
                                        right == nullptr ? nullptr : right->table.get());
    times.server_s = SecondsSince(t0);
  }
  times.driver_s = response.driver_seconds;
  times.job_compute_s = response.job.total_compute_seconds;
  {
    ScopedSpan span(tracer, "idlist.decode", parent, qid);
    const Clock::time_point t0 = Clock::now();
    times.encoded_bytes = 0;
    for (const seabed::ServerGroup& group : response.groups) {
      for (const seabed::ServerAggResult& agg : group.aggs) {
        for (const seabed::Bytes& blob : agg.id_blobs) {
          times.encoded_bytes += blob.size();
          seabed::IdListDecode(blob);
        }
      }
    }
    times.decode_s = SecondsSince(t0);
  }
  ScopedSpan span(tracer, "client.decrypt", parent, qid);
  const Clock::time_point t0 = Clock::now();
  seabed::ResultSet rows =
      seabed::Client(db, session.keys()).Decrypt(response, tq, session.cluster(), right, nullptr);
  times.decrypt_s = SecondsSince(t0);
  return rows;
}

}  // namespace

void RunAnalystAdhoc(const RunConfig& config, Report& report, std::vector<Tracer>& tracers) {
  tracers.emplace_back(false);
  Tracer& tracer = tracers.back();

  // --- cold set-up -----------------------------------------------------------
  seabed::SyntheticSpec synth;
  synth.rows = kSyntheticRows;
  synth.seed = config.seed;
  synth.group_cardinality = kSyntheticGroups;
  seabed::BdbSpec bdb;
  bdb.rankings_rows = kRankingsRows;
  bdb.uservisits_rows = kUserVisitsRows;
  bdb.seed = config.seed + 1;
  std::shared_ptr<seabed::Table> synthetic = seabed::MakeSyntheticTable(synth);
  std::shared_ptr<seabed::Table> rankings = seabed::MakeRankingsTable(bdb);
  std::shared_ptr<seabed::Table> uservisits = seabed::MakeUserVisitsTable(bdb);

  seabed::SessionOptions options;
  options.backend = seabed::BackendKind::kSeabed;
  seabed::Session session(options);
  SetupClock setup;
  setup.Attach(session, synthetic, seabed::SyntheticSchema(synth),
               seabed::SyntheticSampleQueries(synth));
  setup.Attach(session, rankings, seabed::RankingsSchema(), seabed::RankingsSampleQueries());
  setup.Attach(session, uservisits, seabed::UserVisitsSchema(), seabed::UserVisitsSampleQueries());
  setup.Publish(report);
  report.Set("storage.bytes_per_plain_byte",
             StoredBytesPerPlainByte(session, {"synthetic", "rankings", "uservisits"}));

  // --- references and properties (left out of setup_s) ------------------------
  const Clock::time_point reference_start = Clock::now();
  const double reference_cpu_start = ProcessCpuSeconds();
  std::vector<seabed::Query> queries;
  std::vector<std::vector<Row>> want;
  for (const QueryClass& c : kClasses) {
    queries.push_back(Parse(c.sql));
    const seabed::Query& q = queries.back();
    const seabed::Table& fact = *session.attached(q.table).plain;
    const seabed::Table* right =
        q.join.has_value() ? session.attached(q.join->right_table).plain.get() : nullptr;
    want.push_back(EvaluateReference(q, fact, right));
  }
  {
    const seabed::Query high = Parse("SELECT SUM(value) FROM synthetic WHERE sel >= 50");
    const auto sum_of = [&](const seabed::Query& q) {
      const std::vector<Row> rows = Canonical(session.Execute(q));
      return rows.size() == 1 ? IntCell(rows[0], 0).value_or(-1) : -1;
    };
    const int64_t all = sum_of(queries[0]);
    std::string err = CheckSplitSum(sum_of(queries[1]), sum_of(high), all);
    if (!err.empty()) {
      report.Fail("analyst: " + err);
    }
    err = CheckGroupTotals(Canonical(session.Execute(queries[2])), all, synthetic->NumRows());
    if (!err.empty()) {
      report.Fail("analyst: " + err);
    }
  }
  const double reference_s = SecondsSince(reference_start);
  const double reference_cpu_s = ProcessCpuSeconds() - reference_cpu_start;

  // --- warm-up, then the measured loop ----------------------------------------
  std::vector<std::vector<double>> class_s(kNumClasses);
  std::vector<std::vector<double>> class_cpu_s(kNumClasses);
  std::vector<double> parse_s;
  LayerStats layers;
  std::vector<std::vector<double>> server_s(kNumClasses);
  std::vector<double> driver_s, decode_s, hand_decrypt_s, encoded_bytes;
  double scanned_rows = 0;
  double scan_compute_s = 0;
  std::vector<double> traced_round_s, untraced_round_s;
  uint64_t qid = 0;

  const auto check = [&](size_t c, const seabed::ResultSet& result, const char* path) {
    const std::string err = CompareRows(Canonical(result), want[c]);
    if (!err.empty()) {
      report.Fail(std::string("analyst ") + kClasses[c].name + " (" + path + "): " + err);
    }
  };

  Clock::time_point start;
  for (int round = -kWarmupRounds;; ++round) {
    if (round == 0) {
      // Set-up ends when the tables are attached and the warm-up rounds ran.
      report.Set("setup_s", ProcessCpuSeconds() - reference_cpu_s);
      report.Set("setup_wall_s", SecondsSince(kProcessStart) - reference_s);
      start = Clock::now();
    } else if (round > 0 && SecondsSince(start) >= config.seconds) {
      break;
    }
    const bool measured = round >= 0;
    double hand_round_s = 0;
    for (size_t c = 0; c < kNumClasses; ++c) {
      ++qid;
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      const seabed::Query query = Parse(kClasses[c].sql);
      const Clock::time_point t1 = Clock::now();
      seabed::QueryStats stats;
      const seabed::ResultSet result = session.Execute(query, &stats);
      const Clock::time_point t2 = Clock::now();
      const double cpu_s = ProcessCpuSeconds() - cpu0;
      if (measured) {
        ++report.attempted;
        class_cpu_s[c].push_back(cpu_s);
        class_s[c].push_back(SecondsBetween(t0, t2));
        parse_s.push_back(SecondsBetween(t0, t1));
        layers.Add(stats, SecondsBetween(t1, t2));
      }
      check(c, result, "Session::Execute");

      if (config.trace) {
        // Alternate rounds run the hand-driven path with spans off, so the
        // difference between the two halves is the tracing overhead.
        tracer.set_enabled(round % 2 == 0);
        const Clock::time_point h0 = Clock::now();
        HandTimes times;
        seabed::ResultSet by_hand;
        {
          ScopedSpan root(tracer, "analyst.query", -1, qid);
          {
            ScopedSpan span(tracer, "query.parse", root.index(), qid);
            Parse(kClasses[c].sql);
          }
          by_hand = RunByHand(session, query, tracer, root.index(), qid, times);
        }
        hand_round_s += SecondsSince(h0);
        check(c, by_hand, "hand-driven");
        if (CompareRows(Canonical(by_hand), Canonical(result)) != "") {
          report.Fail(std::string("analyst ") + kClasses[c].name +
                      ": hand-driven rows differ from Session::Execute");
        }
        if (measured) {
          server_s[c].push_back(times.server_s);
          driver_s.push_back(times.driver_s);
          decode_s.push_back(times.decode_s);
          hand_decrypt_s.push_back(times.decrypt_s);
          encoded_bytes.push_back(static_cast<double>(times.encoded_bytes));
          scanned_rows += static_cast<double>(session.attached(query.table).plain->NumRows());
          scan_compute_s += times.job_compute_s;
        }
      }
    }
    if (config.trace && measured) {
      (round % 2 == 0 ? traced_round_s : untraced_round_s).push_back(hand_round_s);
    }
  }
  tracer.set_enabled(false);

  // --- metrics ----------------------------------------------------------------
  // A class has a few dozen samples per run, too few for its own tail, so
  // the tail is taken over every query's latency relative to its class
  // median and scaled back by the classes' geometric mean.
  std::vector<double> medians;
  std::vector<double> cpu_medians;
  std::vector<double> relative;
  double round_s = 0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    const double median = Median(class_s[c]);
    medians.push_back(median * 1e3);
    cpu_medians.push_back(Median(class_cpu_s[c]) * 1e3);
    round_s += median;
    for (double s : class_s[c]) {
      relative.push_back(s / median);
    }
    report.Set(std::string("analyst.") + kClasses[c].name + "_ms", medians.back());
    std::fprintf(stderr, "  class %-13s n=%3zu q1=%9.3f median=%9.3f q3=%9.3f cpu=%9.3f ms\n",
                 kClasses[c].name, class_s[c].size(), Quantile(class_s[c], 0.25) * 1e3,
                 medians.back(), Quantile(class_s[c], 0.75) * 1e3, cpu_medians.back());
    report.Set(std::string("server.execute_ms.") + kClasses[c].name, Median(server_s[c]) * 1e3);
  }
  // Throughput of a median round: every class once, back to back.
  report.Set("queries_per_s", round_s > 0 ? static_cast<double>(kNumClasses) / round_s : 0);
  report.Set("latency_p50_ms", Geomean(medians));
  report.Set("cpu_ms_per_query", Geomean(cpu_medians));
  report.Set("latency_p90_ms", Geomean(medians) * Quantile(relative, 0.9));
  report.Set("query.parse_us", Median(parse_s) * 1e6);
  layers.Publish(report);
  if (config.trace) {
    // The hand-driven client and server figures replace the pooled
    // QueryStats ones: they time the module calls themselves.
    report.Set("server.driver_ms", Median(driver_s) * 1e3);
    report.Set("server.rows_scanned_per_s", scan_compute_s > 0 ? scanned_rows / scan_compute_s : 0);
    report.Set("idlist.decode_ms", Median(decode_s) * 1e3);
    report.Set("idlist.encoded_bytes", Mean(encoded_bytes));
    report.Set("client.decrypt_ms", Median(hand_decrypt_s) * 1e3);
    report.Set("trace.overhead_pct", TraceOverheadPct(traced_round_s, untraced_round_s));
  }
}

}  // namespace perfbench
