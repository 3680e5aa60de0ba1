#include "trace.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace perfbench {
namespace {

void busy(std::chrono::microseconds duration) {
  const std::int64_t until = now_ns() + duration.count() * 1000;
  while (now_ns() < until) {
  }
}

std::int64_t duration(const Span& span) { return span.end_ns - span.start_ns; }

TEST(TracerTest, NestedSpanSelfTimeExcludesChild) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 7);
    busy(std::chrono::microseconds(200));
    {
      ScopedSpan inner(&tracer, "inner");
      busy(std::chrono::microseconds(300));
    }
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u) << "children inherit the request id";
  const auto self = tracer.self_ns();
  EXPECT_EQ(self[0], duration(spans[0]) - duration(spans[1]));
  EXPECT_EQ(self[1], duration(spans[1]));
  EXPECT_GE(self[0], 200'000);
  EXPECT_GE(self[1], 300'000);
}

TEST(TracerTest, BackToBackChildrenAreSubtractedOnce) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 1);
    for (int i = 0; i < 2; ++i) {
      ScopedSpan child(&tracer, "child", static_cast<std::uint64_t>(10 + i));
      busy(std::chrono::microseconds(100));
    }
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].request, 11u);
  EXPECT_LE(spans[1].end_ns, spans[2].start_ns);
  const auto self = tracer.self_ns();
  EXPECT_EQ(self[0], duration(spans[0]) - duration(spans[1]) - duration(spans[2]));

  const auto fold = tracer.fold();
  EXPECT_EQ(fold.at("child").count, 2u);
  EXPECT_EQ(fold.at("child").self_ns, duration(spans[1]) + duration(spans[2]));

  std::int64_t covered = 0, wall = 0;
  tracer.coverage("outer", &covered, &wall);
  EXPECT_EQ(wall, duration(spans[0]));
  EXPECT_EQ(covered, fold.at("child").self_ns);
}

TEST(TracerTest, TopLevelSpansHaveNoParent) {
  Tracer tracer;
  { ScopedSpan a(&tracer, "a", 1); }
  { ScopedSpan b(&tracer, "b", 2); }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, -1);
  EXPECT_EQ(tracer.self_ns()[1], duration(tracer.spans()[1]));
}

TEST(TracerTest, NullTracerRecordsNothing) {
  ScopedSpan span(nullptr, "free");
  SUCCEED();
}

TEST(PercentileTest, TailIsHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supported_tail_percentile(9), 0.0);
  EXPECT_EQ(supported_tail_percentile(20), 50.0);
  EXPECT_EQ(supported_tail_percentile(100), 90.0);
  EXPECT_EQ(supported_tail_percentile(999), 90.0);
  EXPECT_EQ(supported_tail_percentile(1000), 99.0);
  EXPECT_EQ(supported_tail_percentile(10000), 99.9);
}

TEST(PercentileTest, SummaryReportsSampleCountAndNearestRank) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  const Summary summary = summarize(values);
  EXPECT_EQ(summary.samples, 1000u);
  EXPECT_EQ(summary.p50, 500.0);
  EXPECT_EQ(summary.p99, 990.0);
  EXPECT_EQ(summary.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(summary.mean, 500.5);
}

TEST(PercentileTest, P99WithheldBelowAThousandSamples) {
  const Summary summary = summarize(std::vector<double>(999, 1.0));
  EXPECT_EQ(summary.tail_percentile, 90.0);
  EXPECT_EQ(summary.p99, 0.0);
}

TEST(BestOfTest, EachOperationTakesItsFastestTrial) {
  // Three trials of the same four operations, each slowed in another stretch.
  const std::vector<std::vector<double>> trials = {
      {9, 2, 3, 4}, {1, 8, 8, 4}, {1, 2, 3, 7, 5}};
  EXPECT_EQ(best_of(trials), (std::vector<double>{1, 2, 3, 4}))
      << "the fifth operation is dropped: not every trial ran it";
  EXPECT_EQ(total(best_of(trials)), 10.0);
  EXPECT_TRUE(best_of({}).empty());
}

TEST(OutcomeTest, FailedFractionCountsFailuresAgainstAttempts) {
  Outcome outcome;
  EXPECT_FALSE(outcome.correct()) << "nothing attempted is not a success";
  outcome.attempt(40);
  EXPECT_TRUE(outcome.correct());
  EXPECT_EQ(outcome.failed_frac(), 0.0);
  outcome.fail(10, "ten reads differed");
  EXPECT_FALSE(outcome.correct());
  EXPECT_EQ(outcome.failed(), 10u);
  EXPECT_DOUBLE_EQ(outcome.failed_frac(), 0.25);
  ASSERT_EQ(outcome.reasons().size(), 1u);
  EXPECT_EQ(outcome.reasons()[0], "ten reads differed");
}

}  // namespace
}  // namespace perfbench
