#pragma once

// Span recording, self-time folding, percentile summaries and failure
// accounting for the replication benchmark. Everything here is
// single-threaded by design: the benchmark driver is one closed-loop thread.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary. `parent` indexes the span that
/// was open when this one began (-1 for a top-level span); `request` is the
/// update, read, round or replica id the work belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Per-name fold of a trace: how often the layer ran and how long it was
/// busy, in total and net of the child spans it contains.
struct LayerTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  double mean_self_us() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 /
                                  static_cast<double>(count);
  }
};

/// In-memory span recorder. Spans nest by call order: a span begun while
/// another is open becomes its child. Spans are kept until the run ends and
/// written out then.
class Tracer {
 public:
  /// Request id meaning "the request of the enclosing span".
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  std::size_t begin(const char* name, std::uint64_t request = kInherit);
  void end(std::size_t id);

  /// Adds `delta` to a named counter recorded at a layer boundary.
  void count(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }
  double counter(const std::string& name) const;

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that its child spans cover.
  std::vector<std::int64_t> self_ns() const;

  /// Totals per span name.
  std::map<std::string, LayerTotals> fold() const;

  /// Summed self time of every span that descends from a span named `root`,
  /// and the summed duration of those `root` spans: the covered share of the
  /// root spans' wall time is covered / wall.
  void coverage(const char* root, std::int64_t* covered_ns,
                std::int64_t* wall_ns) const;

  /// Writes one CSV line per span (name,start,end,parent,request,self), the
  /// first `max_spans` of them.
  bool write_csv(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null tracer makes it free apart from one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name,
             std::uint64_t request = Tracer::kInherit)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// A latency sample set summarised as its median and the highest percentile
/// that still has at least ten samples beyond it.
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Highest supported percentile (99.9, 99, 90 or 50; 0 = none).
  double tail_percentile = 0.0;
  double mean = 0.0;
};

/// Highest of 99.9/99/90/50 with at least ten of `n` samples beyond it.
double supported_tail_percentile(std::size_t n);

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`.
double percentile(const std::vector<double>& sorted, double p);

/// p99 is filled only when the sample supports it (n >= 1000).
Summary summarize(std::vector<double> values);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Trials of one fixed operation sequence, repeated on fresh state, folded
/// operation by operation: operation i's time is its fastest over the
/// trials. A shared host slows a trial in stretches, so an operation reads
/// slow here only when it was slow in every trial. Trials are cut to the
/// shortest.
std::vector<double> best_of(const std::vector<std::vector<double>>& trials);

/// Sum of `values`.
double total(const std::vector<double>& values);

/// Operations attempted and failed; any correctness mismatch counts as
/// failed operations. The first few reasons are kept for the report.
class Outcome {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& reason);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return failed_ == 0 && attempted_ > 0; }
  double failed_frac() const {
    return attempted_ == 0 || failed_ >= attempted_
               ? 1.0
               : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }
  const std::vector<std::string>& reasons() const noexcept { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

}  // namespace perfbench
