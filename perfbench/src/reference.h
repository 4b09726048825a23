// Independent answers for the benchmark's query shapes, and the property
// checks every workload applies to what the program returns.
//
// The evaluator reads the plaintext columns directly and shares no code with
// the program's executors: a bug in the plain backend, the translator, the
// server or the client cannot make both sides agree.
#ifndef PERFBENCH_SRC_REFERENCE_H_
#define PERFBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/table.h"
#include "src/query/query.h"

namespace perfbench {

using Row = std::vector<seabed::Value>;

// Answers `query` over plaintext `fact` (and `right` for joins). Supports
// conjunctive int/string comparisons on either side, equi-joins, GROUP BY on
// either side, and SUM / COUNT / AVG / MIN / MAX. Rows are group values
// followed by aggregates, sorted; a global aggregate over no rows yields one
// all-zero row, as SQL does.
std::vector<Row> EvaluateReference(const seabed::Query& query, const seabed::Table& fact,
                                   const seabed::Table* right);

// Sorted copy of a result's rows, for order-insensitive comparison.
std::vector<Row> Canonical(const seabed::ResultSet& result);

// Empty when `got` equals `want` (ints exactly, doubles to 1e-9 relative);
// otherwise a one-line description of the first difference.
std::string CompareRows(const std::vector<Row>& got, const std::vector<Row>& want);

// --- property checks (each returns an empty string when the property holds) ---

// SUM over sel < p plus SUM over sel >= p equals SUM over all rows.
std::string CheckSplitSum(int64_t sum_low, int64_t sum_high, int64_t sum_all);

// Rows of (group, SUM, COUNT): group sums add up to `sum_all` and group
// counts to `row_count`.
std::string CheckGroupTotals(const std::vector<Row>& groups, int64_t sum_all,
                             uint64_t row_count);

// A routed query reaches no more shards than the fleet has.
std::string CheckRouted(uint64_t shards_routed, uint64_t shards_total);

// Reads of one reader under ingest. `prefix_count[k]` / `prefix_sum[k]` are
// the reference COUNT / SUM of the read's filter over the base table plus
// the first k appended batches. Each read must match some k, and k must
// never decrease from one read to the next.
class IngestReadChecker {
 public:
  IngestReadChecker(std::vector<int64_t> prefix_count, std::vector<int64_t> prefix_sum)
      : prefix_count_(std::move(prefix_count)), prefix_sum_(std::move(prefix_sum)) {}

  // Checks one read; returns an empty string or the violation.
  std::string Check(int64_t count, int64_t sum);
  // Batches visible to the last checked read.
  size_t last_k() const { return last_k_; }

 private:
  std::vector<int64_t> prefix_count_;
  std::vector<int64_t> prefix_sum_;
  size_t last_k_ = 0;
};

// Integer cell of a result row (aborts the check with a message otherwise).
std::optional<int64_t> IntCell(const Row& row, size_t column);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFERENCE_H_
