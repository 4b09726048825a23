// Self-test of the benchmark's checks: each one must accept the right answer
// and reject a wrong one. Run with `python3 perfbench/run.py --selftest`.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/reference.h"
#include "perfbench/src/workloads.h"
#include "src/engine/column.h"
#include "src/query/parser.h"
#include "src/seabed/session.h"
#include "src/workload/synthetic.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cerr << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) {
    ++failures;
  }
}

// Accepts `right`, rejects `wrong`.
void ExpectCheck(const std::string& what, const std::string& on_right,
                 const std::string& on_wrong) {
  Expect(on_right.empty(), what + ": accepts the right answer");
  Expect(!on_wrong.empty(), what + ": rejects a wrong answer (" + on_wrong + ")");
}

std::shared_ptr<seabed::Table> TinyTable() {
  auto t = std::make_shared<seabed::Table>("tiny");
  auto k = std::make_shared<seabed::Int64Column>(std::vector<int64_t>{1, 2, 1, 3, 2, 1});
  auto v = std::make_shared<seabed::Int64Column>(std::vector<int64_t>{10, 20, 30, 40, 50, 60});
  auto s = std::make_shared<seabed::StringColumn>();
  for (const char* x : {"a", "b", "a", "c", "b", "a"}) {
    s->Append(x);
  }
  t->AddColumn("k", k);
  t->AddColumn("v", v);
  t->AddColumn("s", s);
  return t;
}

std::shared_ptr<seabed::Table> TinyRight() {
  auto t = std::make_shared<seabed::Table>("dim");
  auto s = std::make_shared<seabed::StringColumn>();
  for (const char* x : {"a", "b"}) {
    s->Append(x);
  }
  t->AddColumn("s", s);
  t->AddColumn("w", std::make_shared<seabed::Int64Column>(std::vector<int64_t>{5, 7}));
  return t;
}

}  // namespace

int RunSelfTest() {
  const auto fact = TinyTable();
  const auto right = TinyRight();
  using seabed::Value;

  // Reference evaluator against answers worked out by hand.
  {
    const std::vector<Row> got = EvaluateReference(
        seabed::MustParseSql("SELECT k, SUM(v), COUNT(*) FROM tiny WHERE v >= 20 GROUP BY k"),
        *fact, nullptr);
    const std::vector<Row> want = {{Value(int64_t{1}), Value(int64_t{90}), Value(int64_t{2})},
                                   {Value(int64_t{2}), Value(int64_t{70}), Value(int64_t{2})},
                                   {Value(int64_t{3}), Value(int64_t{40}), Value(int64_t{1})}};
    std::vector<Row> wrong_sum = want;
    wrong_sum[1][1] = Value(int64_t{71});
    std::vector<Row> missing = want;
    missing.pop_back();
    ExpectCheck("reference GROUP BY", CompareRows(got, want), CompareRows(wrong_sum, want));
    Expect(!CompareRows(missing, want).empty(), "reference GROUP BY: rejects a missing group");

    const std::vector<Row> joined = EvaluateReference(
        seabed::MustParseSql("SELECT s, SUM(v), AVG(dim.w) FROM tiny JOIN dim ON s = dim.s "
                             "WHERE k < 3 GROUP BY s"),
        *fact, right.get());
    const std::vector<Row> want_join = {{Value(std::string("a")), Value(int64_t{100}), Value(5.0)},
                                        {Value(std::string("b")), Value(int64_t{70}), Value(7.0)}};
    std::vector<Row> wrong_avg = want_join;
    wrong_avg[0][2] = Value(5.5);
    ExpectCheck("reference JOIN + AVG", CompareRows(joined, want_join),
                CompareRows(wrong_avg, want_join));

    const std::vector<Row> ranged = EvaluateReference(
        seabed::MustParseSql("SELECT COUNT(*), MAX(v) FROM tiny WHERE v > 25"), *fact, nullptr);
    const std::vector<Row> want_range = {{Value(int64_t{4}), Value(int64_t{60})}};
    const std::vector<Row> wrong_max = {{Value(int64_t{4}), Value(int64_t{50})}};
    ExpectCheck("reference range + MAX", CompareRows(ranged, want_range),
                CompareRows(wrong_max, want_range));
  }

  // The program's answer through the same comparison, and a corrupted copy.
  {
    seabed::SyntheticSpec spec;
    spec.rows = 5000;
    spec.group_cardinality = 8;
    seabed::Session session(seabed::SessionOptions{});
    session.Attach(seabed::MakeSyntheticTable(spec), seabed::SyntheticSchema(spec),
                   seabed::SyntheticSampleQueries(spec));
    const seabed::Query q =
        seabed::MustParseSql("SELECT grp, SUM(value), COUNT(*) FROM synthetic GROUP BY grp");
    const std::vector<Row> want =
        EvaluateReference(q, *session.attached("synthetic").plain, nullptr);
    const seabed::ResultSet result = session.Execute(q);
    seabed::ResultSet corrupted = result;
    corrupted.rows[3][1] = Value(std::get<int64_t>(corrupted.rows[3][1]) + 1);
    ExpectCheck("kSeabed answer vs reference", CompareRows(Canonical(result), want),
                CompareRows(Canonical(corrupted), want));

    const auto sum = [&](const char* sql) {
      return std::get<int64_t>(session.Execute(seabed::MustParseSql(sql)).rows.at(0).at(0));
    };
    const int64_t all = sum("SELECT SUM(value) FROM synthetic");
    const int64_t low = sum("SELECT SUM(value) FROM synthetic WHERE sel < 50");
    const int64_t high = sum("SELECT SUM(value) FROM synthetic WHERE sel >= 50");
    ExpectCheck("split sums", CheckSplitSum(low, high, all), CheckSplitSum(low, high + 1, all));

    const std::vector<Row> groups = Canonical(result);
    std::vector<Row> dropped_count = groups;
    dropped_count[0][2] = Value(std::get<int64_t>(dropped_count[0][2]) - 1);
    ExpectCheck("group sums", CheckGroupTotals(groups, all, spec.rows),
                CheckGroupTotals(groups, all - 1, spec.rows));
    Expect(!CheckGroupTotals(dropped_count, all, spec.rows).empty(),
           "group counts: rejects a wrong answer");
  }

  // Ingest reads: k must exist, never decrease, and carry the prefix SUM.
  {
    IngestReadChecker ok({100, 110, 125}, {1000, 1100, 1300});
    std::string seq;
    for (auto [count, sum] : {std::pair{100, 1000}, {110, 1100}, {110, 1100}, {125, 1300}}) {
      seq += ok.Check(count, sum);
    }
    IngestReadChecker backwards({100, 110, 125}, {1000, 1100, 1300});
    backwards.Check(110, 1100);
    ExpectCheck("ingest k never decreases", seq, backwards.Check(100, 1000));
    IngestReadChecker bad_sum({100, 110, 125}, {1000, 1100, 1300});
    Expect(!bad_sum.Check(110, 1101).empty(), "ingest prefix sum: rejects a wrong answer");
    IngestReadChecker torn({100, 110, 125}, {1000, 1100, 1300});
    Expect(!torn.Check(105, 1050).empty(), "ingest count: rejects a torn batch");
  }

  ExpectCheck("shards routed", CheckRouted(2, 4), CheckRouted(5, 4));

  std::cerr << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures;
}

}  // namespace perfbench
