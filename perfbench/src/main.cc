// seabed_perfbench — one workload per process.
//
//   seabed_perfbench --workload <analyst_adhoc|dashboard_serve|ingest_read>
//                    --seed <n> --seconds <s> --trace <0|1>
//   seabed_perfbench --selftest
//
// The last stdout line is the JSON result; per-layer tables and the span
// summary of a traced run go to stderr, the spans themselves to
// .bench_out/spans-<workload>-<seed>.jsonl.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::cerr << "seabed_perfbench: " << why
            << "\nusage: seabed_perfbench --workload <analyst_adhoc|dashboard_serve|ingest_read>"
               " --seed <n> --seconds <s> --trace <0|1>\n       seabed_perfbench --selftest\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return perfbench::RunSelfTest() == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.seconds <= 0) {
    Usage("--seconds must be positive");
  }

  perfbench::Report report(config.trace);
  std::vector<perfbench::Tracer> tracers;
  if (config.workload == "analyst_adhoc") {
    perfbench::RunAnalystAdhoc(config, report, tracers);
  } else if (config.workload == "dashboard_serve") {
    perfbench::RunDashboardServe(config, report, tracers);
  } else if (config.workload == "ingest_read") {
    perfbench::RunIngestRead(config, report, tracers);
  } else {
    Usage("unknown workload");
  }

  if (config.trace) {
    std::vector<const perfbench::Tracer*> views;
    for (const perfbench::Tracer& t : tracers) {
      views.push_back(&t);
    }
    std::cerr << "per-layer metrics, " << config.workload << " (seed " << config.seed << "):\n"
              << report.ToTable() << "spans (self = total minus child spans):\n"
              << perfbench::SpanTable(views);
    perfbench::WriteSpans(views, ".bench_out/spans-" + config.workload + "-" +
                                     std::to_string(config.seed) + ".jsonl");
  } else {
    std::cerr << config.workload << " (seed " << config.seed << "):\n" << report.ToTable();
  }
  std::cout << report.ToJson() << std::endl;
  return 0;
}
