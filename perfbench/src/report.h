#pragma once

// Metric collection and printing, the run configuration every workload
// receives, and the /proc readers behind the process-level metrics.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string node_binary;  // fbdr_node, for the process tree
  std::string out_dir;      // spans, sockets and reports go here
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = not a sampled quantity
};

/// Every metric a run measured, by name. The report prints all of them;
/// the result line carries the subset BENCHMARK.json names for the mode.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  /// Adds <name>_p50 and <name>_p99 of `summary`, scaled by `scale`.
  void add_latency(const std::string& name, const Summary& summary,
                   const std::string& unit, double scale = 1.0);
  void context(const std::string& key, const std::string& value);

  void print(const std::string& workload) const;

  /// The result object; throws when a name in `names` was not measured.
  std::string result_json(const std::vector<std::string>& names,
                          const Outcome& outcome) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// The per-layer metrics every workload's traced run reports, computed from
/// its span fold and seam counters. `client_spans` name the replica-side
/// client calls whose self time is client apply work.
void add_layer_metrics(const Tracer& tracer,
                       const std::vector<const char*>& client_spans,
                       Report& report);

/// Writes the run's spans to <out_dir>/spans-<workload>.csv (capped, so a
/// long traced run stays a few megabytes) and notes the file in the report.
void write_spans(const Tracer& tracer, const RunConfig& config, Report& report);

/// utime + stime of a process, in seconds (from /proc/<pid>/stat).
double process_cpu_seconds(pid_t pid);

/// Peak resident set of a process in MB (VmHWM from /proc/<pid>/status).
double peak_rss_mb(pid_t pid);

/// Returns freed heap to the system and restarts this process's VmHWM from
/// its resident set (/proc/self/clear_refs), so a later peak_rss_mb(getpid())
/// covers only what follows. Returns that resident set in MB, the baseline
/// (binary and inputs) to subtract from the peak.
double reset_peak_rss();

/// Live child processes of this process whose command line contains
/// `needle`, as (pid, full command line).
std::vector<std::pair<pid_t, std::string>> child_processes(const std::string& needle);

/// Whether a run makes another trial: trials repeat until `seconds` have
/// passed since `start_ns`, and a run makes at least three. The work in a
/// trial is fixed by the inputs; the host's speed changes only how many
/// trials fit.
inline bool more_trials(std::size_t done, std::int64_t start_ns, double seconds) {
  return done < 3 || now_ns() - start_ns < static_cast<std::int64_t>(seconds * 1e9);
}

/// Moves this process, and every process it starts from now on, to one of
/// the CPUs the run began with: the `trial`-th, round-robin. A workload is
/// one chain of synchronous calls, so nothing in a trial runs in parallel;
/// on one CPU each hand-off between processes is a local context switch
/// rather than a wake-up of another vCPU. Trials rotate over the CPUs so
/// that a vCPU slowed by its neighbours on the host slows only some trials,
/// which best_of then passes over.
void pin_trial(std::size_t trial);

/// Runs `build`, appends its wall seconds to `seconds` and returns what it
/// built. Tearing the result down later is not timed. setup_s is the median
/// of a run's set-ups timed this way.
template <typename Build>
auto timed(std::vector<double>& seconds, Build&& build) {
  const std::int64_t start = now_ns();
  auto built = build();
  seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  return built;
}

}  // namespace perfbench
