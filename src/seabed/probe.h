// Shared probe-and-prune machinery for two-round query execution.
//
// PR 2's sharded backend introduced a probe round: spend one cheap round
// trip so round two touches less data. This module generalizes that idea to
// row groups inside each shard, so a single shard profits too (the classic
// message-rounds vs. work tradeoff — an extra round is a win whenever
// selectivity is low):
//
//   * CountProbePlan turns any translated ServerPlan into the sharded
//     backend's round-one plan (same predicates/join, one row count, no
//     grouping) — round two then re-issues only to shards that matched;
//   * ProbeSection (derived once at translation time, cached inside the
//     TranslatedQuery by the plan cache) is the subset of fact-side server
//     predicates a row-group summary can evaluate;
//   * RowGroupIndex holds coarse per-row-group summaries of an encrypted
//     table — DET token sets, ORE/plain min-max ranges, plain string sets —
//     and prunes the row groups that cannot contain a matching row. The
//     server can maintain it without any key material: DET tokens compare by
//     equality and ORE ciphertexts by Ore::Compare, which is exactly the
//     leakage those schemes already grant the server.
//
// Pruning is conservative: a summary may keep a group that holds no match
// (overflowed token set, range gap) but never drops one that does, so a
// pruned scan returns byte-identical rows to a full scan.
#ifndef SEABED_SRC_SEABED_PROBE_H_
#define SEABED_SRC_SEABED_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/engine/table.h"
#include "src/seabed/translator.h"

namespace seabed {

// When a backend runs the round-one probe.
enum class ProbeMode {
  kOff,     // never probe (PR-2 behavior; `needs_two_round_trips` still
            // triggers the sharded backend's shard-level probe)
  kAuto,    // probe when the planner's selectivity estimate predicts a win
  kForced,  // probe every query with prunable predicates (test/debug mode)
};

const char* ProbeModeName(ProbeMode mode);

struct ProbeOptions {
  ProbeMode mode = ProbeMode::kOff;

  // Rows per summary group. Smaller groups prune more precisely but cost
  // more round-one work (the probe scans one summary per group).
  size_t row_group_size = 1024;

  // kAuto probes only when the estimated filter selectivity is at or below
  // this fraction — at high selectivity round two scans almost everything
  // anyway and the probe round is pure overhead.
  double auto_selectivity_threshold = 0.25;
};

// The sharded backend's round-one plan: same table, predicates and join, but
// a single row count and no grouping — just enough for the coordinator to
// learn which shards hold matching rows.
ServerPlan CountProbePlan(const ServerPlan& plan);

// Derives the probe section of a translated plan: every fact-side server
// predicate (all four kinds summarize; joined-table predicates cannot prune
// fact row groups and are dropped). Called once by the Translator so cached
// plans carry their probe section.
ProbeSection DeriveProbeSection(const ServerPlan& plan);

// Coarse summary of one contiguous row group of an encrypted (or plain)
// table. Only prunable column kinds are summarized; ASHE/Paillier cells are
// opaque and skipped.
struct RowGroupSummary {
  RowRange rows;

  // Distinct-value sets give up beyond this many values: a group that
  // contains "everything" cannot be pruned anyway, and unbounded sets would
  // make the index as large as the column.
  static constexpr size_t kMaxDistinct = 64;

  struct TokenSet {
    std::vector<uint64_t> tokens;  // sorted; meaningless once overflowed
    bool overflowed = false;
  };
  struct StringSet {
    std::vector<std::string> values;  // sorted; meaningless once overflowed
    bool overflowed = false;
  };
  struct OreRange {
    OreCiphertext min, max;
  };
  struct IntRange {
    int64_t min = 0, max = 0;
  };

  std::map<std::string, TokenSet> det;      // DET column -> distinct tokens
  std::map<std::string, OreRange> ore;      // ORE column -> ciphertext range
  std::map<std::string, IntRange> ints;     // plain int column -> value range
  std::map<std::string, StringSet> strings; // plain string column -> values
};

// Summarizes rows [range.begin, range.end) of `table`.
RowGroupSummary SummarizeRowGroup(const Table& table, RowRange range);

// Conservative group-level predicate evaluation: false only when no row of
// the group can satisfy every predicate.
bool GroupMayMatch(const RowGroupSummary& group,
                   const std::vector<ServerPredicate>& predicates);

// Per-table row-group summary index. Built lazily at the first probe and
// lazily extended when the underlying table has grown (appends land in the
// encrypted table behind the server's back, so every probe re-checks the row
// count and re-summarizes the trailing partial group — the stale-summary
// hazard the probe tests trap). Not internally synchronized; the Server
// guards it with its probe mutex.
class RowGroupIndex {
 public:
  explicit RowGroupIndex(size_t group_size = 1024);

  size_t group_size() const { return group_size_; }
  size_t num_groups() const { return groups_.size(); }
  size_t rows_summarized() const { return rows_summarized_; }

  // Brings the summaries up to date with `table`'s current row count.
  void Refresh(const Table& table);

  struct PruneResult {
    // Surviving row ranges in row order, adjacent groups coalesced.
    std::vector<RowRange> surviving;
    size_t total_groups = 0;
    size_t pruned_groups = 0;
  };
  PruneResult Prune(const ProbeSection& probe) const;

 private:
  size_t group_size_;
  size_t rows_summarized_ = 0;
  std::vector<RowGroupSummary> groups_;
};

// Splits `ranges` (disjoint, ordered) into at most `max_tasks` lists of
// near-equal total row count, splitting large ranges at task boundaries so a
// pruned scan still parallelizes across the cluster's workers. Intra-range
// split points are rounded up to 64-row multiples so the scan kernels'
// selection-bitmap words never straddle a task boundary.
std::vector<std::vector<RowRange>> PartitionRanges(const std::vector<RowRange>& ranges,
                                                   size_t max_tasks);

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_PROBE_H_
