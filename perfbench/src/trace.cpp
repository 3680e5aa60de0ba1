#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

std::size_t Tracer::begin(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  if (!open_.empty()) {
    span.parent = static_cast<std::int64_t>(open_.back());
    if (request == kInherit) request = spans_[open_.back()].request;
  }
  span.request = request == kInherit ? 0 : request;
  const std::size_t id = spans_.size();
  spans_.push_back(span);
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::end(std::size_t id) {
  spans_[id].end_ns = now_ns();
  // Spans close innermost-first; tolerate an outer close that skips an inner
  // one (an exception unwound through it) by closing everything above it.
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
    if (spans_[top].end_ns == 0) spans_[top].end_ns = spans_[id].end_ns;
  }
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  // Children of each span, in start order (spans are appended as they begin).
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the child intervals, clipped to this span.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (const std::size_t c : children[i]) {
      const std::int64_t s = std::max(spans_[c].start_ns, span.start_ns);
      const std::int64_t e = std::min(spans_[c].end_ns, span.end_ns);
      if (e <= s) continue;
      if (in_run && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerTotals> Tracer::fold() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

void Tracer::coverage(const char* root, std::int64_t* covered_ns,
                      std::int64_t* wall_ns) const {
  const std::vector<std::int64_t> self = self_ns();
  // A span's top-most ancestor named `root`, if any; parents precede
  // children, so one forward pass resolves it.
  std::vector<std::int64_t> root_of(spans_.size(), -1);
  std::int64_t covered = 0;
  std::int64_t wall = 0;
  const std::string root_name = root;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t inherited =
        span.parent >= 0 ? root_of[static_cast<std::size_t>(span.parent)] : -1;
    if (inherited >= 0) {
      root_of[i] = inherited;
      covered += self[i];
    } else if (root_name == span.name) {
      root_of[i] = static_cast<std::int64_t>(i);
      wall += span.end_ns - span.start_ns;
    }
  }
  *covered_ns = covered;
  *wall_ns = wall;
}

bool Tracer::write_csv(const std::string& path, std::size_t max_spans) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<std::int64_t> self = self_ns();
  std::fprintf(out, "name,start_ns,end_ns,parent,request,self_ns\n");
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < std::min(spans_.size(), max_spans); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s,%lld,%lld,%lld,%llu,%lld\n", s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(out) == 0;
}

double supported_tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

Summary summarize(std::vector<double> values) {
  Summary summary;
  summary.samples = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = percentile(values, 50.0);
  summary.tail_percentile = supported_tail_percentile(values.size());
  if (summary.tail_percentile >= 99.0) summary.p99 = percentile(values, 99.0);
  summary.mean = std::accumulate(values.begin(), values.end(), 0.0) /
                 static_cast<double>(values.size());
  return summary;
}

double median(std::vector<double> values) { return summarize(std::move(values)).p50; }

std::vector<double> best_of(const std::vector<std::vector<double>>& trials) {
  if (trials.empty()) return {};
  std::size_t length = trials.front().size();
  for (const std::vector<double>& trial : trials) length = std::min(length, trial.size());
  std::vector<double> best(trials.front().begin(),
                           trials.front().begin() + static_cast<std::ptrdiff_t>(length));
  for (const std::vector<double>& trial : trials) {
    for (std::size_t i = 0; i < length; ++i) best[i] = std::min(best[i], trial[i]);
  }
  return best;
}

double total(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void Outcome::fail(std::uint64_t n, const std::string& reason) {
  failed_ += n;
  if (reasons_.size() < 8) reasons_.push_back(reason);
}

}  // namespace perfbench
