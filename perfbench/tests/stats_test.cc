#include "stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(QuantileTest, InterpolatesLinearlyBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0, 4.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(OneTo(101), 0.99), 100.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(TailTest, P99NeedsAThousandSamples) {
  const Tail tail = TailOf(OneTo(1000));
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
  EXPECT_EQ(tail.samples, 1000u);
  // Exactly ten samples (991..1000) lie beyond the reported value.
  EXPECT_GT(tail.value, 990.0);
  EXPECT_LT(tail.value, 991.0);
  EXPECT_EQ(QuantileLabel(tail.quantile), "p99");
}

TEST(TailTest, FewerSamplesLowerTheQuantileToKeepTenBeyond) {
  const std::vector<double> samples = OneTo(80);
  const Tail tail = TailOf(samples);
  EXPECT_DOUBLE_EQ(tail.quantile, 1.0 - 10.0 / 80.0);
  size_t beyond = 0;
  for (double s : samples) beyond += s > tail.value ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
  EXPECT_EQ(QuantileLabel(tail.quantile), "p87.5");
}

TEST(TailTest, MoreSamplesStayCappedAtP99) {
  const Tail tail = TailOf(OneTo(5000));
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
}

TEST(TailTest, TinySamplesReportTheThirdQuartile) {
  const Tail tail = TailOf({4.0, 9.0, 1.0, 5.0, 7.0});
  EXPECT_DOUBLE_EQ(tail.quantile, 0.75);
  EXPECT_DOUBLE_EQ(tail.value, 7.0);
  EXPECT_EQ(tail.samples, 5u);
  EXPECT_EQ(QuantileLabel(tail.quantile), "p75");
  // n = 20 is the last size without a qualifying quantile; n = 21 has one.
  EXPECT_DOUBLE_EQ(TailOf(OneTo(20)).quantile, 0.75);
  EXPECT_DOUBLE_EQ(TailOf(OneTo(21)).quantile, 1.0 - 10.0 / 21.0);
  EXPECT_EQ(TailOf({}).samples, 0u);
  EXPECT_EQ(QuantileLabel(1.0), "max");
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantilesExclusive) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles ten = ComputeQuartiles(OneTo(10));
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const Quartiles three = ComputeQuartiles({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.q2, 2.0);
  EXPECT_DOUBLE_EQ(three.q3, 3.0);
  // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
  const Quartiles two = ComputeQuartiles({20.0, 10.0});
  EXPECT_DOUBLE_EQ(two.q1, 7.5);
  EXPECT_DOUBLE_EQ(two.q2, 15.0);
  EXPECT_DOUBLE_EQ(two.q3, 22.5);
}

TEST(CoverageTest, UnionOfOverlappingIntervalsClippedToWindow) {
  EXPECT_EQ(CoveredNs({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25u);
  EXPECT_EQ(CoveredNs({{0, 10}, {5, 15}, {20, 30}}, 8, 25), 12u);
  EXPECT_EQ(CoveredNs({}, 0, 10), 0u);
  EXPECT_EQ(CoveredNs({{0, 10}}, 10, 10), 0u);
}

TEST(SelfTimeTest, NestedSpansSubtractOnlyTheirDirectChildren) {
  // root [0,100) > a [10,50) > a.leaf [20,30); root > b [60,90).
  // A span on another track never counts as a child.
  const std::vector<Span> spans = {
      {"root", 1, 0, 100},  {"a", 1, 10, 50},  {"a.leaf", 1, 20, 30},
      {"b", 1, 60, 90},     {"other", 2, 0, 100},
  };
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100u - 40u - 30u);
  EXPECT_EQ(self[1], 40u - 10u);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 100u);
  const auto by_name = SelfSecondsByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 30e-9);
}

TEST(SelfTimeTest, SameStartNestsTheLongerSpanOutside) {
  const std::vector<Span> spans = {{"inner", 1, 0, 40}, {"outer", 1, 0, 100}};
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 60u);
}

TEST(UnattributedTest, RootSelfTimeOverRootDuration) {
  const std::vector<Span> spans = {
      {"op.x", 1, 0, 100}, {"layer", 1, 0, 90},
      {"op.x", 1, 200, 300}, {"layer", 1, 200, 270},
  };
  auto is_root = [](const std::string& n) { return n.rfind("op.", 0) == 0; };
  EXPECT_DOUBLE_EQ(UnattributedFraction(spans, is_root), 40.0 / 200.0);
  EXPECT_DOUBLE_EQ(UnattributedFraction({}, is_root), 0.0);
}

TEST(RateLadderTest, GeometricRungs) {
  const RateLadder ladder{100.0, 1.25, 5};
  EXPECT_DOUBLE_EQ(ladder.Rate(0), 100.0);
  EXPECT_DOUBLE_EQ(ladder.Rate(2), 156.25);
}

TEST(RateLadderTest, BisectionFindsTheHighestPassingRung) {
  for (size_t rungs : {1u, 2u, 7u, 16u}) {
    for (int limit = -1; limit < static_cast<int>(rungs); ++limit) {
      std::vector<size_t> probed;
      const int found = HighestPassingRung(
          rungs, [&](size_t r) { return static_cast<int>(r) <= limit; },
          &probed);
      EXPECT_EQ(found, limit) << "rungs=" << rungs;
      // Logarithmic number of probes.
      size_t bound = 1;
      while ((size_t{1} << (bound - 1)) <= rungs) ++bound;
      EXPECT_LE(probed.size(), bound) << "rungs=" << rungs;
    }
  }
}

}  // namespace
}  // namespace perfbench
