#include "perfbench/src/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "src/engine/column.h"

namespace perfbench {
namespace {

using seabed::AggFunc;
using seabed::CmpOp;
using seabed::Column;
using seabed::Int64Column;
using seabed::StringColumn;
using seabed::Value;

constexpr const char kRight[] = "right:";

// A plaintext column of the fact or the joined table.
struct ColumnRef {
  const Int64Column* ints = nullptr;
  const StringColumn* strings = nullptr;
  bool right = false;

  Value Get(size_t row) const {
    if (ints != nullptr) {
      return ints->Get(row);
    }
    return strings->Get(row);
  }
};

ColumnRef Resolve(const std::string& name, const seabed::Table& fact,
                  const seabed::Table* right) {
  ColumnRef ref;
  std::string column = name;
  const seabed::Table* table = &fact;
  if (name.rfind(kRight, 0) == 0) {
    column = name.substr(sizeof(kRight) - 1);
    table = right;
    ref.right = true;
  }
  const Column* col = table->GetColumn(column).get();
  ref.ints = dynamic_cast<const Int64Column*>(col);
  ref.strings = dynamic_cast<const StringColumn*>(col);
  return ref;
}

bool Matches(const Value& cell, CmpOp op, const Value& operand) {
  int order = 0;
  if (const auto* i = std::get_if<int64_t>(&cell)) {
    const int64_t v = std::get<int64_t>(operand);
    order = *i < v ? -1 : (*i > v ? 1 : 0);
  } else {
    order = std::get<std::string>(cell).compare(std::get<std::string>(operand));
  }
  switch (op) {
    case CmpOp::kEq: return order == 0;
    case CmpOp::kNe: return order != 0;
    case CmpOp::kLt: return order < 0;
    case CmpOp::kLe: return order <= 0;
    case CmpOp::kGt: return order > 0;
    case CmpOp::kGe: return order >= 0;
  }
  return false;
}

struct Accumulator {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
};

std::string ValueText(const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) {
    return "'" + *s + "'";
  }
  return seabed::ValueToString(v);
}

std::string RowText(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i == 0 ? "" : ", ") + ValueText(row[i]);
  }
  return out + ")";
}

bool CellsEqual(const Value& a, const Value& b) {
  const auto* da = std::get_if<double>(&a);
  const auto* db = std::get_if<double>(&b);
  if (da != nullptr && db != nullptr) {
    return std::fabs(*da - *db) <= 1e-9 * std::max(1.0, std::max(std::fabs(*da), std::fabs(*db)));
  }
  return a == b;
}

}  // namespace

std::vector<Row> EvaluateReference(const seabed::Query& query, const seabed::Table& fact,
                                   const seabed::Table* right) {
  struct Filter {
    ColumnRef column;
    CmpOp op;
    Value operand;
  };
  std::vector<Filter> fact_filters;
  std::vector<Filter> right_filters;
  for (const seabed::Predicate& p : query.filters) {
    Filter f{Resolve(p.column, fact, right), p.op, p.operand};
    (f.column.right ? right_filters : fact_filters).push_back(std::move(f));
  }
  std::vector<ColumnRef> groups;
  for (const std::string& g : query.group_by) {
    groups.push_back(Resolve(g, fact, right));
  }
  std::vector<std::optional<ColumnRef>> agg_columns;
  for (const seabed::Aggregate& a : query.aggregates) {
    agg_columns.push_back(a.column.empty() ? std::nullopt
                                           : std::optional(Resolve(a.column, fact, right)));
  }

  // Join index: right-table key value -> right rows.
  std::optional<ColumnRef> join_left;
  std::map<Value, std::vector<size_t>> join_index;
  if (query.join.has_value()) {
    join_left = Resolve(query.join->left_column, fact, right);
    const ColumnRef key = Resolve(query.join->right_column, fact, right);
    for (size_t r = 0; r < right->NumRows(); ++r) {
      join_index[key.Get(r)].push_back(r);
    }
  }
  static const std::vector<size_t> kNoJoin = {0};

  std::map<Row, std::vector<Accumulator>> merged;
  const size_t rows = fact.NumRows();
  for (size_t r = 0; r < rows; ++r) {
    bool keep = true;
    for (const Filter& f : fact_filters) {
      if (!Matches(f.column.Get(r), f.op, f.operand)) {
        keep = false;
        break;
      }
    }
    if (!keep) {
      continue;
    }
    const std::vector<size_t>* partners = &kNoJoin;
    if (join_left.has_value()) {
      const auto it = join_index.find(join_left->Get(r));
      if (it == join_index.end()) {
        continue;
      }
      partners = &it->second;
    }
    for (size_t rr : *partners) {
      bool right_keep = true;
      for (const Filter& f : right_filters) {
        if (!Matches(f.column.Get(rr), f.op, f.operand)) {
          right_keep = false;
          break;
        }
      }
      if (!right_keep) {
        continue;
      }
      Row key;
      key.reserve(groups.size());
      for (const ColumnRef& g : groups) {
        key.push_back(g.Get(g.right ? rr : r));
      }
      std::vector<Accumulator>& accs = merged[std::move(key)];
      accs.resize(query.aggregates.size());
      for (size_t a = 0; a < query.aggregates.size(); ++a) {
        Accumulator& acc = accs[a];
        ++acc.count;
        if (agg_columns[a].has_value()) {
          const ColumnRef& c = *agg_columns[a];
          if (c.ints != nullptr) {
            const int64_t v = c.ints->Get(c.right ? rr : r);
            acc.sum += v;
            acc.min = std::min(acc.min, v);
            acc.max = std::max(acc.max, v);
          }
        }
      }
    }
  }
  if (merged.empty() && query.group_by.empty()) {
    merged[Row{}].resize(query.aggregates.size());
  }

  std::vector<Row> out;
  out.reserve(merged.size());
  for (const auto& [key, accs] : merged) {
    Row row = key;
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const Accumulator& acc = accs[a];
      switch (query.aggregates[a].func) {
        case AggFunc::kSum:
          row.emplace_back(acc.sum);
          break;
        case AggFunc::kCount:
          row.emplace_back(acc.count);
          break;
        case AggFunc::kAvg:
          row.emplace_back(acc.count == 0 ? 0.0
                                          : static_cast<double>(acc.sum) /
                                                static_cast<double>(acc.count));
          break;
        case AggFunc::kMin:
          row.emplace_back(acc.count == 0 ? int64_t{0} : acc.min);
          break;
        case AggFunc::kMax:
          row.emplace_back(acc.count == 0 ? int64_t{0} : acc.max);
          break;
        default:
          row.emplace_back(std::string("unsupported aggregate"));
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;  // std::map order is already sorted by group key
}

std::vector<Row> Canonical(const seabed::ResultSet& result) {
  std::vector<Row> rows = result.rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string CompareRows(const std::vector<Row>& got, const std::vector<Row>& want) {
  std::ostringstream out;
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    bool same = got[i].size() == want[i].size();
    for (size_t c = 0; same && c < got[i].size(); ++c) {
      same = CellsEqual(got[i][c], want[i][c]);
    }
    if (!same) {
      out << "row " << i << ": got " << RowText(got[i]) << ", want " << RowText(want[i]);
      return out.str();
    }
  }
  if (got.size() != want.size()) {
    out << "got " << got.size() << " rows, want " << want.size();
  }
  return out.str();
}

std::optional<int64_t> IntCell(const Row& row, size_t column) {
  if (column >= row.size()) {
    return std::nullopt;
  }
  if (const auto* i = std::get_if<int64_t>(&row[column])) {
    return *i;
  }
  return std::nullopt;
}

std::string CheckSplitSum(int64_t sum_low, int64_t sum_high, int64_t sum_all) {
  if (sum_low + sum_high == sum_all) {
    return "";
  }
  std::ostringstream out;
  out << "split sums " << sum_low << " + " << sum_high << " != full sum " << sum_all;
  return out.str();
}

std::string CheckGroupTotals(const std::vector<Row>& groups, int64_t sum_all,
                             uint64_t row_count) {
  int64_t sum = 0;
  int64_t count = 0;
  for (const Row& row : groups) {
    const std::optional<int64_t> s = IntCell(row, 1);
    const std::optional<int64_t> c = IntCell(row, 2);
    if (!s || !c) {
      return "group row " + RowText(row) + " lacks integer SUM/COUNT cells";
    }
    sum += *s;
    count += *c;
  }
  std::ostringstream out;
  if (sum != sum_all) {
    out << "group sums add up to " << sum << ", full sum is " << sum_all;
  } else if (static_cast<uint64_t>(count) != row_count) {
    out << "group counts add up to " << count << ", table has " << row_count << " rows";
  }
  return out.str();
}

std::string CheckRouted(uint64_t shards_routed, uint64_t shards_total) {
  if (shards_routed <= shards_total && shards_total > 0) {
    return "";
  }
  std::ostringstream out;
  out << "routed to " << shards_routed << " of " << shards_total << " shards";
  return out.str();
}

std::string IngestReadChecker::Check(int64_t count, int64_t sum) {
  // Prefix counts grow strictly with k in every workload this checker serves
  // (each batch has matching rows), so a count identifies its k.
  const auto it = std::find(prefix_count_.begin(), prefix_count_.end(), count);
  std::ostringstream out;
  if (it == prefix_count_.end()) {
    out << "COUNT " << count << " matches no prefix of the appended batches";
    return out.str();
  }
  const size_t k = static_cast<size_t>(it - prefix_count_.begin());
  if (k < last_k_) {
    out << "read saw " << k << " batches after an earlier read saw " << last_k_;
    return out.str();
  }
  if (sum != prefix_sum_[k]) {
    out << "SUM " << sum << " after " << k << " batches, reference " << prefix_sum_[k];
    return out.str();
  }
  last_k_ = k;
  return "";
}

}  // namespace perfbench
