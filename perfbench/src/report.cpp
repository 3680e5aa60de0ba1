#include "report.h"

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A "<field> <n> kB" line of /proc/<pid>/status, in MB.
double status_mb(pid_t pid, const std::string& field) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Report::add_latency(const std::string& name, const Summary& summary,
                         const std::string& unit, double scale) {
  add(name + "_p50", summary.p50 * scale, unit, summary.samples);
  add(name + "_p99", summary.p99 * scale, unit, summary.samples);
  if (summary.tail_percentile < 99.0) {
    context(name + "_p99", "unsupported: " + std::to_string(summary.samples) +
                               " samples leave fewer than 10 beyond p99");
  }
}

void Report::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::print(const std::string& workload) const {
  for (const auto& [key, value] : context_) {
    std::printf("context %s %s = %s\n", workload.c_str(), key.c_str(),
                value.c_str());
  }
  for (const auto& [name, metric] : metrics_) {
    std::printf("metric %s %s = %s %s", workload.c_str(), name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
    if (metric.samples > 0) std::printf(" (n=%zu)", metric.samples);
    std::printf("\n");
  }
}

std::string Report::result_json(const std::vector<std::string>& names,
                                const Outcome& outcome) const {
  const std::uint64_t failed = std::min(outcome.failed(), outcome.attempted());
  std::string out = "{\"correct\": ";
  out += outcome.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                   outcome.attempted(), 1));
  out += ", \"failed\": " + std::to_string(outcome.correct() ? 0 : std::max<std::uint64_t>(failed, 1));
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = metrics_.find(names[i]);
    if (it == metrics_.end()) {
      throw std::logic_error("metric not measured: " + names[i]);
    }
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " + number(it->second.value) +
           ", \"unit\": \"" + it->second.unit + "\"}";
  }
  out += "}}";
  return out;
}

void add_layer_metrics(const Tracer& tracer,
                       const std::vector<const char*>& client_spans,
                       Report& report) {
  const std::map<std::string, LayerTotals> fold = tracer.fold();
  const auto layer = [&](const char* name) {
    const auto it = fold.find(name);
    return it == fold.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals apply = layer("server.apply");
  report.add("server.apply_us", apply.mean_self_us(), "us", apply.count);

  const LayerTotals pump = layer("master.pump");
  const double records = tracer.counter("pump.records");
  report.add("resync.pump_us_per_record",
             ratio(static_cast<double>(pump.total_ns) / 1e3, records), "us",
             pump.count);
  report.add("resync.candidates_per_record",
             ratio(tracer.counter("pump.candidates"), records), "count");

  const LayerTotals poll = layer("endpoint.poll");
  report.add("resync.poll_us", poll.mean_self_us(), "us", poll.count);
  const double polls = tracer.counter("poll.responses");
  report.add("resync.pdus_per_poll", ratio(tracer.counter("poll.pdus"), polls),
             "count");
  report.add("resync.nonempty_poll_frac",
             ratio(tracer.counter("poll.nonempty"), polls), "fraction");

  const LayerTotals install = layer("endpoint.install");
  report.add("sync.install_us", install.mean_self_us(), "us", install.count);
  report.add("sync.install_entries",
             ratio(tracer.counter("install.pdus"),
                   tracer.counter("install.responses")),
             "count");

  LayerTotals client;
  for (const char* name : client_spans) {
    const LayerTotals t = layer(name);
    client.count += t.count;
    client.self_ns += t.self_ns;
  }
  report.add("sync.client_apply_us", client.mean_self_us(), "us", client.count);

  // Codec self times exist only on framed links.
  const LayerTotals exchange = layer("channel.exchange");
  report.add("wire.client_codec_us", exchange.mean_self_us(), "us",
             exchange.count);
  const LayerTotals transfer = layer("pipe.transfer");
  if (transfer.count > 0) {
    report.add("wire.server_codec_us", transfer.mean_self_us(), "us",
               transfer.count);
  }
}

void write_spans(const Tracer& tracer, const RunConfig& config, Report& report) {
  constexpr std::size_t kMaxSpans = 100000;
  const std::string path = config.out_dir + "/spans-" + config.workload + ".csv";
  const bool written = tracer.write_csv(path, kMaxSpans);
  report.context("spans", std::to_string(tracer.spans().size()) + " recorded, " +
                              (written ? "first " + std::to_string(std::min(
                                                        kMaxSpans, tracer.spans().size())) +
                                             " written to " + path
                                       : "could not write " + path));
}

void pin_trial(std::size_t trial) {
  // Read on the first call, before any trial has narrowed the set.
  static const std::vector<std::size_t> cpus = [] {
    std::vector<std::size_t> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[trial % cpus.size()], &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

double process_cpu_seconds(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) { return status_mb(pid, "VmHWM:"); }

double reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mb(::getpid(), "VmRSS:");
}

std::vector<std::pair<pid_t, std::string>> child_processes(
    const std::string& needle) {
  std::vector<std::pair<pid_t, std::string>> children;
  const pid_t self = ::getpid();
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return children;
  while (const dirent* entry = ::readdir(proc)) {
    const std::string name = entry->d_name;
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const std::string stat = read_file("/proc/" + name + "/stat");
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream in(stat.substr(close + 2));
    std::string state;
    long long ppid = 0;
    in >> state >> ppid;
    if (ppid != self) continue;
    std::string cmdline = read_file("/proc/" + name + "/cmdline");
    for (char& c : cmdline) {
      if (c == '\0') c = ' ';
    }
    if (cmdline.find(needle) != std::string::npos) {
      children.emplace_back(static_cast<pid_t>(std::stoll(name)), cmdline);
    }
  }
  ::closedir(proc);
  return children;
}

}  // namespace perfbench
