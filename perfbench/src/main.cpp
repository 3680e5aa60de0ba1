// perfbench: the replication benchmark driver. One closed-loop thread runs
// one workload for one seed, checks every output, prints every metric it
// measured by name with unit and sample count, and ends with one JSON
// result line carrying the metrics BENCHMARK.json names for the mode.
//
//   perfbench --workload tree_updates|many_replicas|replica_reads
//             --seed <n> --seconds <s> --trace 0|1
//             --node-bin <path to fbdr_node> --out-dir <dir>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void add_op_metrics(Report& report, const std::vector<double>& op_us) {
  report.add_latency("op_us", summarize(op_us), "us");
  report.add("ops_per_s", static_cast<double>(op_us.size()) / (total(op_us) / 1e6), "1/s");
}

void check_keys(const std::vector<std::string>& got,
                const std::vector<std::string>& want, const std::string& what,
                Outcome& outcome) {
  if (got == want) return;
  outcome.fail(1, what + ": " + std::to_string(got.size()) + " entries, expected " +
                      std::to_string(want.size()));
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// The metric names of BENCHMARK.json, in its order.
const std::vector<std::string> kEndToEnd = {"visibility_ms_p50", "updates_per_s",
                                            "op_us_p50", "setup_s", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "server.apply_us",    "resync.pump_us_per_record", "resync.candidates_per_record",
    "resync.poll_us",     "resync.pdus_per_poll",      "resync.nonempty_poll_frac",
    "sync.install_us",    "sync.install_entries",      "sync.client_apply_us",
    "trace.overhead_frac"};

[[noreturn]] void usage(const char* reason) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload tree_updates|many_replicas|replica_reads "
               "--seed <n> --seconds <s> --trace 0|1 --node-bin <path> "
               "--out-dir <dir>\n",
               reason);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = value == "1";
      } else if (arg == "--node-bin") {
        config.node_binary = value;
      } else if (arg == "--out-dir") {
        config.out_dir = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (config.seconds <= 0) usage("--seconds must be positive");
  if (config.out_dir.empty()) usage("--out-dir is required");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse(argc, argv);
  Report report;
  Outcome outcome;
  report.context("seed", std::to_string(config.seed));
  report.context("seconds", std::to_string(config.seconds));
  report.context("trace", config.trace ? "1" : "0");
  report.context("hardware_concurrency",
                 std::to_string(std::thread::hardware_concurrency()));
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  report.context("build_type", build_type);
#ifndef NDEBUG
  report.context("assertions", "enabled");
#endif
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: %s build, numbers are not comparable "
                         "with Release runs\n", build_type.c_str());
    report.context("build_warning", "not a Release build");
  }

  try {
    std::filesystem::create_directories(config.out_dir);
    if (config.workload == "tree_updates") {
      run_tree_updates(config, report, outcome);
    } else if (config.workload == "many_replicas") {
      run_many_replicas(config, report, outcome);
    } else if (config.workload == "replica_reads") {
      run_replica_reads(config, report, outcome);
    } else {
      usage(("unknown workload " + config.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 2;
  }

  report.add("failed_frac", outcome.failed_frac(), "fraction");
  report.context("attempted", std::to_string(outcome.attempted()));
  report.context("failed", std::to_string(outcome.failed()));
  for (const std::string& reason : outcome.reasons()) {
    report.context("failure", reason);
  }
  report.print(config.workload);
  std::string result;
  try {
    result = report.result_json(config.trace ? kPerLayer : kEndToEnd, outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}
