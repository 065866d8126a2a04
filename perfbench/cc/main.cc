// Benchmark program entry point.
//
//   perfbench --workload <paper_steady|crash_recover|real_commit>
//             --seed <n> --seconds <s> --trace <0|1> [--trace_out <path>]
//
// Prints progress lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 only when every op passed its correctness check.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every per-layer metric of BENCHMARK.json. A traced run reports all of
// them; a layer the workload does not load reads 0 (see README.md).
const MetricName kPerLayer[] = {
    {"db.construct_ms", "ms"},        {"db.destruct_ms", "ms"},
    {"db.oracle_ms", "ms"},           {"db.twin_match", "count"},
    {"core.sink_ms", "ms"},           {"core.completion_ms", "ms"},
    {"disk.submit_ms", "ms"},         {"sim.other_ms", "ms"},
    {"sim.ns_per_event", "ns"},       {"sim.events", "count"},
    {"core.records_appended", "count"}, {"core.records_forwarded", "count"},
    {"core.records_recirculated", "count"}, {"core.kills", "count"},
    {"disk.block_writes", "count"},   {"disk.flushes", "count"},
    {"db.capture_ms", "ms"},          {"wal.scan_ms", "ms"},
    {"wal.scan_mb_per_s", "MB/s"},    {"db.apply_ms", "ms"},
    {"wal.blocks_scanned", "count"},  {"wal.records", "count"},
    {"db.records_applied", "count"},  {"db.state_objects", "count"},
    {"shard.prepares_in_log", "count"}, {"core.call_us", "us"},
    {"core.hold_us.p50", "us"},       {"core.hold_us.p99", "us"},
    {"disk.write_us.p50", "us"},      {"disk.write_us.p99", "us"},
    {"core.ack_us.p50", "us"},        {"core.ack_us.p99", "us"},
    {"disk.commits_per_write", "ratio"}, {"disk.bytes_per_commit", "B"},
    {"trace.overhead_pct", "%"},
};

/// Orders a traced run's metrics like kPerLayer, filling the ones the
/// workload did not report with 0. False if the workload reported a
/// metric outside the list or with another unit.
bool CompletePerLayer(perfbench::Outcome* outcome) {
  std::vector<perfbench::Metric> ordered;
  for (const MetricName& want : kPerLayer) {
    perfbench::Metric metric{want.name, 0.0, want.unit};
    for (const perfbench::Metric& got : outcome->metrics) {
      if (got.name == want.name) {
        if (got.unit != want.unit) return false;
        metric.value = got.value;
      }
    }
    ordered.push_back(metric);
  }
  for (const perfbench::Metric& got : outcome->metrics) {
    bool known = false;
    for (const MetricName& want : kPerLayer) known |= got.name == want.name;
    if (!known) return false;
  }
  outcome->metrics = std::move(ordered);
  return true;
}

std::string FormatNumber(double value) {
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag);
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options->workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || options->seconds < 1 || options->seconds > 60) {
        return false;
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else if (std::strcmp(flag, "--trace_out") == 0) {
      options->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <1..60> --trace <0|1> [--trace_out <path>]\n");
    return 2;
  }
  perfbench::Outcome outcome;
  bool ok = false;
  if (options.workload == "paper_steady") {
    ok = perfbench::RunPaperSteady(options, &outcome);
  } else if (options.workload == "crash_recover") {
    ok = perfbench::RunCrashRecover(options, &outcome);
  } else if (options.workload == "real_commit") {
    ok = perfbench::RunRealCommit(options, &outcome);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  if (!ok) return 1;
  if (options.trace && !CompletePerLayer(&outcome)) {
    std::fprintf(stderr, "the workload reported a metric outside the "
                 "per-layer list\n");
    return 1;
  }

  const bool correct = outcome.failed == 0 && outcome.end_check_ok &&
                       outcome.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& metric = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " +
            FormatNumber(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
