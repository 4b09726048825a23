// Per-layer numbers read from the program's own per-call records
// (QueryStats), pooled over one run's measured queries.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/query/query.h"
#include "src/seabed/planner.h"
#include "src/seabed/session.h"

namespace perfbench {

class LayerStats {
 public:
  // `wall_seconds` is the host time the caller measured around the backend
  // call that produced `stats` (0 when unknown); on sharded backends the
  // part not spent translating, binding, merging or decrypting is counted
  // as fan-out.
  void Add(const seabed::QueryStats& stats, double wall_seconds);
  // Pools another collector's queries into this one (one per client thread).
  void Merge(const LayerStats& other);

  // Sets translator, bind, server, client, probe, sharded, placement,
  // cluster and modeled metrics.
  void Publish(Report& report) const;

  size_t queries() const { return translate_s_.size(); }

 private:
  std::vector<double> translate_s_;
  std::vector<double> bind_s_;  // prepared calls only
  std::vector<double> job_compute_s_;
  std::vector<double> response_bytes_;
  std::vector<double> rows_touched_;
  std::vector<double> prf_calls_;
  std::vector<double> client_s_;
  std::vector<double> probe_s_;
  std::vector<double> merge_s_;   // sharded only
  std::vector<double> fanout_s_;  // sharded only
  std::vector<double> shards_routed_;
  std::vector<double> modeled_server_s_;
  std::vector<double> modeled_total_s_;
};

// Timed set-up: the planner call, then the attach (encrypt + upload) of the
// plan it returns. Works on a Session and on a Service.
struct SetupClock {
  double plan_seconds = 0;
  double attach_seconds = 0;
  uint64_t rows = 0;

  template <typename Target>
  void Attach(Target& target, std::shared_ptr<seabed::Table> table,
              const seabed::PlainSchema& schema, const std::vector<seabed::Query>& samples) {
    const Clock::time_point t0 = Clock::now();
    seabed::EncryptionPlan plan = seabed::PlanEncryption(schema, samples);
    const Clock::time_point t1 = Clock::now();
    rows += table->NumRows();
    target.AttachPlanned(std::move(table), schema, std::move(plan));
    plan_seconds += SecondsBetween(t0, t1);
    attach_seconds += SecondsSince(t1);
  }

  // planner.plan_ms and encryptor.encrypt_rows_per_s.
  void Publish(Report& report) const {
    report.Set("planner.plan_ms", plan_seconds * 1e3);
    report.Set("encryptor.encrypt_rows_per_s",
               attach_seconds > 0 ? static_cast<double>(rows) / attach_seconds : 0);
  }
};

// Encrypted bytes stored by the session for `tables` over their plaintext
// bytes (every shard's part on a sharded fleet).
double StoredBytesPerPlainByte(seabed::Session& session, const std::vector<std::string>& tables);

// Percentage by which traced operations ran slower than untraced ones.
double TraceOverheadPct(const std::vector<double>& traced, const std::vector<double>& untraced);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
