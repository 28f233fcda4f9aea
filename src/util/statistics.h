// Summary statistics used throughout metrics and benchmark reporting.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mobipriv::util {

/// Online mean / variance accumulator (Welford's algorithm), O(1) memory.
class RunningStat {
 public:
  void Add(double x) noexcept;
  void Merge(const RunningStat& other) noexcept;

  [[nodiscard]] std::size_t Count() const noexcept { return count_; }
  [[nodiscard]] double Mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double Variance() const noexcept;
  [[nodiscard]] double Stddev() const noexcept;
  [[nodiscard]] double Min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double Max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double Sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style summary of a batch of samples.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  /// Computes the summary of `values` (copies and sorts internally; the
  /// input is left untouched). Empty input yields an all-zero summary.
  static Summary Of(std::span<const double> values);

  /// The same summary, bit for bit, sorting `values` in place (by
  /// SortAscending) instead of a copy.
  static Summary OfInPlace(std::span<double> values);

  /// Compact single-line rendering, e.g. for benchmark table cells.
  [[nodiscard]] std::string ToString() const;
};

/// SortAscending radix-sorts arrays of at least this many eligible values;
/// below it `std::sort` is as fast as eight counting passes.
inline constexpr std::size_t kRadixSortMinValues = 2048;

/// True when every value is +0.0, a positive normal number or +inf: no
/// sign bit, no NaN, no denormal. On such values the order of the IEEE
/// bit patterns is the numeric order, and equal values have equal bits.
/// Denormals are left out because a flush-to-zero mode makes `<` treat
/// them as zero, so their bit order could differ from std::sort's.
[[nodiscard]] bool RadixSortable(std::span<const double> values) noexcept;

/// Sorts ascending, into exactly the sequence `std::sort` gives: by an LSD
/// radix sort on the bit patterns when the array has at least
/// kRadixSortMinValues values and RadixSortable holds (any correct sort of
/// such values yields the same bits), by `std::sort` otherwise.
void SortAscending(std::span<double> values);

/// Linear-interpolated percentile of *sorted* data, q in [0, 1].
/// Requires sorted_values non-empty and ascending.
[[nodiscard]] double PercentileSorted(std::span<const double> sorted_values,
                                      double q);

/// Convenience: percentile of unsorted data (copies and sorts).
[[nodiscard]] double Percentile(std::span<const double> values, double q);

/// Arithmetic mean; 0 for empty input.
[[nodiscard]] double Mean(std::span<const double> values);

/// Fixed-bin histogram over [lo, hi); values outside are clamped to the
/// first/last bin. Used for distance-error distributions in benches.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double x) noexcept;
  [[nodiscard]] std::size_t BinCount() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t CountInBin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::size_t TotalCount() const noexcept { return total_; }
  /// Inclusive-lower bound of bin i.
  [[nodiscard]] double BinLower(std::size_t i) const;
  /// Fraction of samples in bin i (0 if histogram is empty).
  [[nodiscard]] double Fraction(std::size_t i) const;
  /// Multi-line ASCII rendering with proportional bars.
  [[nodiscard]] std::string ToString(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace mobipriv::util
