// The three workloads. Each builds its inputs from the run's seed, times a
// cold set-up, warms up, measures for the configured seconds, checks every
// answer against the reference and fills the report.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

// Serial closed loop of SQL text on kSeabed: the paper's micro and BDB mix.
void RunAnalystAdhoc(const RunConfig& config, Report& report, std::vector<Tracer>& tracers);

// Four closed-loop clients against seabed::Service over a key-range-placed
// 4-shard fleet: hourly dashboard sums, half with a sensitive filter.
void RunDashboardServe(const RunConfig& config, Report& report, std::vector<Tracer>& tracers);

// One paced appender and one closed-loop reader on a hash-placed 4-shard
// fleet: reads beside writes.
void RunIngestRead(const RunConfig& config, Report& report, std::vector<Tracer>& tracers);

// Runs every reference and property check on a small table, once with the
// right answer and once with a wrong one; returns the number of checks that
// did not behave (0 = all good).
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
