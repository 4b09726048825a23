#include "perfbench/src/layers.h"

#include <algorithm>

#include "src/seabed/sharded_backend.h"

namespace perfbench {

void LayerStats::Add(const seabed::QueryStats& stats, double wall_seconds) {
  translate_s_.push_back(stats.translate_seconds);
  if (stats.prepared) {
    bind_s_.push_back(stats.bind_seconds);
  }
  job_compute_s_.push_back(stats.job.total_compute_seconds);
  response_bytes_.push_back(static_cast<double>(stats.result_bytes));
  rows_touched_.push_back(static_cast<double>(stats.rows_touched));
  prf_calls_.push_back(static_cast<double>(stats.prf_calls));
  client_s_.push_back(stats.client_seconds);
  probe_s_.push_back(stats.probe_seconds);
  if (stats.shards_total > 0) {
    merge_s_.push_back(stats.merge_seconds);
    shards_routed_.push_back(static_cast<double>(stats.shards_routed));
    if (wall_seconds > 0) {
      fanout_s_.push_back(std::max(0.0, wall_seconds - stats.translate_seconds -
                                            stats.bind_seconds - stats.merge_seconds -
                                            stats.client_seconds));
    }
  }
  modeled_server_s_.push_back(stats.server_seconds);
  modeled_total_s_.push_back(stats.TotalSeconds());
}

void LayerStats::Merge(const LayerStats& other) {
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(translate_s_, other.translate_s_);
  append(bind_s_, other.bind_s_);
  append(job_compute_s_, other.job_compute_s_);
  append(response_bytes_, other.response_bytes_);
  append(rows_touched_, other.rows_touched_);
  append(prf_calls_, other.prf_calls_);
  append(client_s_, other.client_s_);
  append(probe_s_, other.probe_s_);
  append(merge_s_, other.merge_s_);
  append(fanout_s_, other.fanout_s_);
  append(shards_routed_, other.shards_routed_);
  append(modeled_server_s_, other.modeled_server_s_);
  append(modeled_total_s_, other.modeled_total_s_);
}

void LayerStats::Publish(Report& report) const {
  report.Set("translator.translate_us", Median(translate_s_) * 1e6);
  report.Set("prepared.bind_us", Median(bind_s_) * 1e6);
  report.Set("server.job_compute_ms", Median(job_compute_s_) * 1e3);
  report.Set("server.response_bytes", Mean(response_bytes_));
  report.Set("server.rows_touched", Mean(rows_touched_));
  report.Set("client.prf_calls", Mean(prf_calls_));
  report.Set("client.decrypt_ms", Median(client_s_) * 1e3);
  report.Set("probe.ms", Mean(probe_s_) * 1e3);
  report.Set("sharded.merge_ms", Median(merge_s_) * 1e3);
  report.Set("sharded.fanout_ms", Median(fanout_s_) * 1e3);
  report.Set("placement.shards_routed_mean", Mean(shards_routed_));
  report.Set("cluster.compute_ms_per_query", Mean(job_compute_s_) * 1e3);
  report.Set("modeled.server_ms", Median(modeled_server_s_) * 1e3);
  report.Set("modeled.total_ms", Median(modeled_total_s_) * 1e3);
}

double StoredBytesPerPlainByte(seabed::Session& session, const std::vector<std::string>& tables) {
  double stored = 0;
  double plain = 0;
  auto* sharded = dynamic_cast<seabed::ShardedSeabedBackend*>(&session.executor());
  for (const std::string& name : tables) {
    plain += static_cast<double>(session.attached(name).plain->ByteSize());
    if (sharded != nullptr) {
      for (size_t s = 0; s < sharded->num_shards(); ++s) {
        stored += static_cast<double>(sharded->shard_database(name, s).table->ByteSize());
      }
    } else {
      stored += static_cast<double>(session.encrypted_database(name).table->ByteSize());
    }
  }
  return plain > 0 ? stored / plain : 0;
}

double TraceOverheadPct(const std::vector<double>& traced, const std::vector<double>& untraced) {
  const double base = Median(untraced);
  return base > 0 ? (Median(traced) / base - 1.0) * 100.0 : 0;
}

}  // namespace perfbench
