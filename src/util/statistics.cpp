#include "util/statistics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

namespace mobipriv::util {

void RunningStat::Add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::Variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStat::Stddev() const noexcept { return std::sqrt(Variance()); }

double PercentileSorted(std::span<const double> sorted_values, double q) {
  assert(!sorted_values.empty());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= sorted_values.size()) return sorted_values.back();
  return sorted_values[lower] * (1.0 - frac) + sorted_values[lower + 1] * frac;
}

double Percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return PercentileSorted(sorted, q);
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool RadixSortable(std::span<const double> values) noexcept {
  // Eligible bit patterns: exactly zero, or a biased exponent in
  // [1, 0x7FF] with a clear sign bit and, at 0x7FF, a zero mantissa (+inf).
  constexpr std::uint64_t kInf = 0x7FF0000000000000ULL;
  constexpr std::uint64_t kMinNormal = 0x0010000000000000ULL;
  std::uint64_t bad = 0;
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    bad |= static_cast<std::uint64_t>(bits > kInf) |
           static_cast<std::uint64_t>(bits != 0 && bits < kMinNormal);
  }
  return bad == 0;
}

void SortAscending(std::span<double> values) {
  if (values.size() < kRadixSortMinValues ||
      values.size() > std::numeric_limits<std::uint32_t>::max() ||
      !RadixSortable(values)) {
    std::sort(values.begin(), values.end());
    return;
  }
  // LSD radix sort over the eight bytes of the bit pattern. All eight
  // histograms come from one read; a byte every value shares is skipped.
  constexpr std::size_t kDigits = 8;
  constexpr std::size_t kBuckets = 256;
  const std::size_t n = values.size();
  std::vector<std::uint32_t> counts(kDigits * kBuckets, 0);
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++counts[d * kBuckets + ((bits >> (8 * d)) & 0xFF)];
    }
  }
  std::vector<double> scratch(n);
  double* from = values.data();
  double* to = scratch.data();
  for (std::size_t d = 0; d < kDigits; ++d) {
    std::uint32_t* count = counts.data() + d * kBuckets;
    const auto first_bits = std::bit_cast<std::uint64_t>(from[0]);
    if (count[(first_bits >> (8 * d)) & 0xFF] == n) continue;
    std::uint32_t start = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = count[b];
      count[b] = start;
      start += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(from[i]);
      to[count[(bits >> (8 * d)) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != values.data()) std::copy(from, from + n, values.data());
}

Summary Summary::Of(std::span<const double> values) {
  std::vector<double> copy(values.begin(), values.end());
  return OfInPlace(copy);
}

Summary Summary::OfInPlace(std::span<double> values) {
  Summary s;
  if (values.empty()) return s;
  SortAscending(values);
  const std::span<const double> sorted = values;
  RunningStat rs;
  for (const double v : sorted) rs.Add(v);
  s.count = rs.Count();
  s.mean = rs.Mean();
  s.stddev = rs.Stddev();
  s.min = sorted.front();
  s.p25 = PercentileSorted(sorted, 0.25);
  s.median = PercentileSorted(sorted, 0.50);
  s.p75 = PercentileSorted(sorted, 0.75);
  s.p95 = PercentileSorted(sorted, 0.95);
  s.p99 = PercentileSorted(sorted, 0.99);
  s.max = sorted.back();
  return s;
}

std::string Summary::ToString() const {
  std::ostringstream os;
  os << "n=" << count << " mean=" << mean << " sd=" << stddev << " min=" << min
     << " p50=" << median << " p95=" << p95 << " max=" << max;
  return os.str();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(bins > 0);
  assert(lo < hi);
}

void Histogram::Add(double x) noexcept {
  const double span = hi_ - lo_;
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / span *
                                         static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::BinLower(std::size_t i) const {
  assert(i < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::Fraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

std::string Histogram::ToString(std::size_t bar_width) const {
  std::ostringstream os;
  std::size_t max_count = 0;
  for (const auto c : counts_) max_count = std::max(max_count, c);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double frac_of_max =
        max_count ? static_cast<double>(counts_[i]) /
                        static_cast<double>(max_count)
                  : 0.0;
    const auto bar =
        static_cast<std::size_t>(frac_of_max * static_cast<double>(bar_width));
    os << "[" << BinLower(i) << ", ";
    if (i + 1 == counts_.size()) {
      os << hi_;
    } else {
      os << BinLower(i + 1);
    }
    os << ") " << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace mobipriv::util
