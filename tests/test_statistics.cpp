#include "util/statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace mobipriv::util {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat rs;
  EXPECT_EQ(rs.Count(), 0u);
  EXPECT_DOUBLE_EQ(rs.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.Stddev(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat rs;
  rs.Add(5.0);
  EXPECT_EQ(rs.Count(), 1u);
  EXPECT_DOUBLE_EQ(rs.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.Min(), 5.0);
  EXPECT_DOUBLE_EQ(rs.Max(), 5.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat rs;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(x);
  EXPECT_DOUBLE_EQ(rs.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.Variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(rs.Stddev(), 2.0);
  EXPECT_DOUBLE_EQ(rs.Min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.Max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.Sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.Add(x);
    (i < 40 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.Count(), all.Count());
  EXPECT_NEAR(left.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(left.Variance(), all.Variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.Min(), all.Min());
  EXPECT_DOUBLE_EQ(left.Max(), all.Max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  a.Add(3.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
  RunningStat b;
  b.Merge(a);
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_DOUBLE_EQ(b.Mean(), 2.0);
}

TEST(Percentile, SortedInterpolation) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(PercentileSorted(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(values, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(values, 1.0 / 3.0), 20.0);
}

TEST(Percentile, UnsortedInput) {
  const std::vector<double> values{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 25.0);
}

TEST(Percentile, ClampsQuantile) {
  const std::vector<double> values{1.0, 2.0};
  EXPECT_DOUBLE_EQ(PercentileSorted(values, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(values, 1.5), 2.0);
}

TEST(Percentile, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(MeanFn, Basic) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{2.0, 4.0}), 3.0);
}

TEST(SummaryOf, EmptyInput) {
  const Summary s = Summary::Of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(SummaryOf, Basic) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  const Summary s = Summary::Of(values);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 0.01);
  EXPECT_FALSE(s.ToString().empty());
}

// Today's Summary::Of: a std::sort of a copy, then the same fold.
Summary OracleSummary(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  RunningStat rs;
  for (const double v : values) rs.Add(v);
  s.count = rs.Count();
  s.mean = rs.Mean();
  s.stddev = rs.Stddev();
  s.min = values.front();
  s.p25 = PercentileSorted(values, 0.25);
  s.median = PercentileSorted(values, 0.50);
  s.p75 = PercentileSorted(values, 0.75);
  s.p95 = PercentileSorted(values, 0.95);
  s.p99 = PercentileSorted(values, 0.99);
  s.max = values.back();
  return s;
}

bool SameBits(const Summary& a, const Summary& b) {
  const double fa[] = {a.mean, a.stddev, a.min,  a.p25, a.median,
                       a.p75,  a.p95,    a.p99, a.max};
  const double fb[] = {b.mean, b.stddev, b.min,  b.p25, b.median,
                       b.p75,  b.p95,    b.p99, b.max};
  return a.count == b.count && std::memcmp(fa, fb, sizeof fa) == 0;
}

// SortAscending and Summary::Of against the std::sort oracle, bit for bit.
void ExpectSortsLikeStdSort(const std::vector<double>& values) {
  std::vector<double> want = values;
  std::sort(want.begin(), want.end());
  std::vector<double> got = values;
  SortAscending(got);
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
  }
  EXPECT_TRUE(SameBits(Summary::Of(values), OracleSummary(values)));
  std::vector<double> in_place = values;
  EXPECT_TRUE(SameBits(Summary::OfInPlace(in_place), OracleSummary(values)));
}

// Non-negative values: a narrow band, a spread of exponents, many exact
// duplicates, zeros and +inf.
std::vector<double> RandomNonNegative(Rng& rng, std::size_t n) {
  std::vector<double> values(n);
  for (double& v : values) {
    const double pick = rng.NextDouble();
    if (pick < 0.4) {
      v = rng.Uniform(0.0, 1000.0);
    } else if (pick < 0.7) {
      v = std::ldexp(rng.Uniform(1.0, 2.0),
                     static_cast<int>(rng.UniformInt(-1000, 1000)));
    } else if (pick < 0.95) {
      v = std::floor(rng.Uniform(0.0, 20.0));
    } else {
      v = pick < 0.975 ? 0.0 : std::numeric_limits<double>::infinity();
    }
  }
  return values;
}

TEST(SortAscending, MatchesStdSortAboveAndBelowTheRadixThreshold) {
  Rng rng(11);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7},
        kRadixSortMinValues - 1, kRadixSortMinValues,
        3 * kRadixSortMinValues + 5, std::size_t{100000}}) {
    SCOPED_TRACE(n);
    const std::vector<double> values = RandomNonNegative(rng, n);
    EXPECT_TRUE(RadixSortable(values));
    ExpectSortsLikeStdSort(values);
  }
  // All values equal in their high digits: the shared digits are skipped.
  std::vector<double> narrow(2 * kRadixSortMinValues);
  for (double& v : narrow) v = 1.0 + rng.Uniform(0.0, 1e-12);
  ExpectSortsLikeStdSort(narrow);
}

TEST(SortAscending, IneligibleValuesTakeTheStdSortFallback) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double odd[] = {-0.0, -1.5, kNan, -kNan,
                        std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::min() / 4,
                        -std::numeric_limits<double>::infinity()};
  Rng rng(12);
  for (const double value : odd) {
    for (const std::size_t n : {std::size_t{50}, 2 * kRadixSortMinValues}) {
      SCOPED_TRACE(value);
      std::vector<double> values = RandomNonNegative(rng, n);
      for (std::size_t i = 0; i < n; i += 97) values[i] = value;
      EXPECT_FALSE(RadixSortable(values));
      ExpectSortsLikeStdSort(values);
    }
  }
  // +0.0, the smallest normal and +inf stay eligible.
  EXPECT_TRUE(RadixSortable(std::vector<double>{
      0.0, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity()}));
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);    // bin 0
  h.Add(9.9);    // bin 4
  h.Add(-3.0);   // clamped to bin 0
  h.Add(100.0);  // clamped to bin 4
  h.Add(5.0);    // bin 2
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.CountInBin(0), 2u);
  EXPECT_EQ(h.CountInBin(2), 1u);
  EXPECT_EQ(h.CountInBin(4), 2u);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.4);
  EXPECT_DOUBLE_EQ(h.BinLower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BinLower(4), 8.0);
}

TEST(Histogram, EmptyFractionIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.0);
  EXPECT_FALSE(h.ToString().empty());
}

TEST(Histogram, ToStringRendersBars) {
  Histogram h(0.0, 2.0, 2);
  h.Add(0.5);
  h.Add(0.5);
  h.Add(1.5);
  const std::string rendered = h.ToString(10);
  EXPECT_NE(rendered.find('#'), std::string::npos);
  EXPECT_NE(rendered.find('2'), std::string::npos);
}

}  // namespace
}  // namespace mobipriv::util
