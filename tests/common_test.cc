#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/zipf.h"

namespace sqpr {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad host count");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad host count");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Infeasible("x").IsInfeasible());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_EQ(Status::Internal("boom").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("no stream");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, DoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.Fork(1);
  Rng child2 = parent.Fork(1);  // parent advanced, so a different stream
  EXPECT_NE(child.NextUint64(), child2.NextUint64());
}

// ------------------------------------------------------------------ Zipf

TEST(ZipfTest, UniformWhenSZero) {
  ZipfSampler z(10, 0.0);
  for (size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.Probability(k), 0.1, 1e-12);
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfSampler z(100, 1.0);
  double total = 0;
  for (size_t k = 0; k < 100; ++k) total += z.Probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankOneTwiceAsLikelyAsRankTwoAtSOne) {
  ZipfSampler z(50, 1.0);
  EXPECT_NEAR(z.Probability(0) / z.Probability(1), 2.0, 1e-9);
}

TEST(ZipfTest, HigherSkewConcentratesMass) {
  ZipfSampler flat(100, 0.5), skewed(100, 2.0);
  EXPECT_GT(skewed.Probability(0), flat.Probability(0));
}

TEST(ZipfTest, SampleFrequenciesTrackProbabilities) {
  ZipfSampler z(20, 1.0);
  Rng rng(42);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  for (size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.Probability(k), 0.01)
        << "rank " << k;
  }
}

TEST(ZipfTest, SampleAlwaysInRange) {
  ZipfSampler z(7, 1.5);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.Sample(rng), 7u);
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(StatsTest, RunningStatsEmpty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, PercentileNearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
}

TEST(StatsTest, EmpiricalCdfMonotone) {
  auto cdf = EmpiricalCdf({3, 1, 2, 2, 5});
  ASSERT_EQ(cdf.size(), 4u);  // tie on value 2 collapsed
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(StatsTest, EmpiricalCdfTies) {
  auto cdf = EmpiricalCdf({2, 2, 2});
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].second, 1.0);
}

// -------------------------------------------------------------- Deadline

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(d.is_finite());
}

TEST(DeadlineTest, PastDeadlineExpires) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_TRUE(d.is_finite());
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  Deadline d = Deadline::AfterMillis(60000);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 1000);
}

}  // namespace
}  // namespace sqpr
