// Shared experiment plumbing for the bench binaries: aligned table printing
// (every bench emits the same CSV-compatible tables), wall-clock timing and
// the standard mechanism roster used by comparison sweeps.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

namespace mobipriv::core {

/// Fixed-width console table that doubles as CSV (separator "," plus
/// padding). Column widths adapt to content.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Renders with aligned columns to a string (header, separator, rows).
  [[nodiscard]] std::string ToString() const;
  /// Strict CSV rendering (no padding). Cells containing commas, quotes,
  /// CR or LF are RFC-4180 quoted (mechanism spec strings like
  /// "geo_ind[eps=0.001,0.01]" contain commas).
  [[nodiscard]] std::string ToCsv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Milliseconds elapsed while running `fn`.
[[nodiscard]] double TimeMs(const std::function<void()>& fn);

/// The standard mechanism roster of the comparison benches as registry
/// spec strings: identity, the paper's pipeline (full and each stage
/// alone), geo-indistinguishability at the given epsilons, Wait4Me,
/// cloaking, Gaussian noise and downsampling. This is the canned grid a
/// ScenarioSpec names; mech::CreateMechanism turns each entry into an
/// instance.
[[nodiscard]] std::vector<std::string> StandardRosterSpecs(
    const std::vector<double>& geo_ind_epsilons = {0.001, 0.01, 0.1});

}  // namespace mobipriv::core
