// Parameter tables: each registry entry declares its spec keys once, as
// the rows of a ParamTable over its config struct. A row holds the key,
// the config field it sets (whose type is the key's type: double real,
// int64 integer, size_t count, bool 0/1 flag; whose value in `Config{}` is
// the default), the unit suffix, the valid range, the fixed digits a real
// prints with and whether it prints at its default. The known-key check,
// parsing, validation (SpecError naming the key) and the name all derive
// from the table. A name is the base, then in row order every row that is
// always printed or off its default. A real prints in its fixed-digit
// form when that parses back to the same double, else in shortest
// round-trip form, so names round-trip and are injective on the config.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/spec.h"

namespace mobipriv::util {

enum class ParamType { kReal, kInt, kCount, kFlag };

/// Valid values: above `lo` (or at it unless `lo_open`), at most `hi`;
/// reals must also be finite.
struct ParamRange {
  double lo = -std::numeric_limits<double>::infinity();
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
};
inline constexpr ParamRange kPositive{0.0, true};
inline constexpr ParamRange kNonNegative{0.0};
inline constexpr ParamRange kUnitInterval{0.0, false, 1.0};
[[nodiscard]] constexpr ParamRange AtLeast(double lo) { return {lo}; }

/// One row without its config type: what the readers below and the
/// registries' property tests see.
struct ParamInfo {
  std::string_view key;
  ParamType type = ParamType::kReal;
  std::string_view unit;
  ParamRange range;
  double default_value = 0.0;
};

/// `info.key`'s value in `spec`, or `fallback` (a default) when absent,
/// checked against `info`'s type and range. Throws SpecError naming the
/// key.
[[nodiscard]] double ReadReal(const Spec& spec, const ParamInfo& info,
                              double fallback);
[[nodiscard]] std::int64_t ReadInteger(const Spec& spec,
                                       const ParamInfo& info,
                                       std::int64_t fallback);
/// `value` in `digits` fixed digits when that parses back to the same
/// double, else in shortest round-trip form.
[[nodiscard]] std::string FormatReal(double value, int digits);

/// One row: spec key `key` sets `config.*field`.
template <class Config, class T>
class Param {
  static constexpr ParamType kType =
      std::is_same_v<T, double>         ? ParamType::kReal
      : std::is_same_v<T, std::int64_t> ? ParamType::kInt
      : std::is_same_v<T, std::size_t>  ? ParamType::kCount
                                        : ParamType::kFlag;
  static_assert(kType != ParamType::kFlag || std::is_same_v<T, bool>);

 public:
  constexpr Param(std::string_view key, T Config::*field,
                  std::string_view unit = "", ParamRange range = {})
      : info_{key, kType, unit, range, static_cast<double>(Config{}.*field)},
        field_(field) {
    if (kType == ParamType::kCount && range.lo < 0.0) info_.range.lo = 0.0;
    if (kType == ParamType::kFlag) info_.range = kUnitInterval;
  }

  /// Printed even at its default.
  [[nodiscard]] constexpr Param Always() const {
    Param row = *this;
    row.always_ = true;
    return row;
  }
  /// Fixed digits a real prints with when they round-trip (default 0).
  [[nodiscard]] constexpr Param Digits(int digits) const {
    Param row = *this;
    row.digits_ = digits;
    return row;
  }

  [[nodiscard]] constexpr const ParamInfo& Info() const { return info_; }

  void Read(const Spec& spec, Config& config) const {
    if constexpr (kType == ParamType::kReal) {
      config.*field_ = ReadReal(spec, info_, config.*field_);
    } else {
      config.*field_ = static_cast<T>(ReadInteger(
          spec, info_, static_cast<std::int64_t>(config.*field_)));
    }
  }

  void Write(const Config& config, Spec& spec) const {
    const T value = config.*field_;
    if constexpr (kType == ParamType::kReal) {
      if (always_ || std::bit_cast<std::uint64_t>(value) !=
                         std::bit_cast<std::uint64_t>(Config{}.*field_)) {
        spec.Add(std::string(info_.key),
                 FormatReal(value, digits_) + std::string(info_.unit));
      }
    } else if (always_ || value != Config{}.*field_) {
      spec.Add(std::string(info_.key),
               std::to_string(value) + std::string(info_.unit));
    }
  }

 private:
  ParamInfo info_;
  T Config::*field_;
  int digits_ = 0;
  bool always_ = false;
};

/// The keys of one registry entry, named by its base.
template <class Config, class... Ts>
class ParamTable {
 public:
  using ConfigType = Config;

  constexpr explicit ParamTable(std::string_view base,
                                Param<Config, Ts>... rows)
      : base_(base), rows_{rows...} {}

  [[nodiscard]] constexpr std::string_view base() const { return base_; }

  [[nodiscard]] bool Has(std::string_view key) const {
    return std::apply(
        [&](const auto&... row) { return ((row.Info().key == key) || ...); },
        rows_);
  }

  /// Reads the table's keys present in `spec` into `config`.
  void Read(const Spec& spec, Config& config) const {
    std::apply([&](const auto&... row) { (row.Read(spec, config), ...); },
               rows_);
  }

  /// Adds `config`'s printed rows to `spec`.
  void Write(const Config& config, Spec& spec) const {
    std::apply([&](const auto&... row) { (row.Write(config, spec), ...); },
               rows_);
  }

  /// The config `spec` describes; throws SpecError on a flag, a key
  /// outside the table or an invalid value.
  [[nodiscard]] Config Parse(const Spec& spec) const {
    spec.RequireKnownKeys(
        [&](const Spec::Entry& e) { return e.has_value && Has(e.key); },
        std::string(base_));
    Config config{};
    Read(spec, config);
    return config;
  }

  /// "base[key=value,...]", or the bare base when no row prints.
  [[nodiscard]] std::string Name(const Config& config) const {
    Spec spec{std::string(base_)};
    Write(config, spec);
    return spec.ToString();
  }

  [[nodiscard]] std::vector<ParamInfo> Info() const {
    return std::apply(
        [](const auto&... row) {
          return std::vector<ParamInfo>{row.Info()...};
        },
        rows_);
  }

 private:
  std::string_view base_;
  std::tuple<Param<Config, Ts>...> rows_;
};

/// Base of a registry product (a mechanism or an evaluator deriving from
/// `Base`) whose config `kTable` declares: it holds the config, and its
/// Name() is the table's name for that config.
template <class Base, const auto& kTable>
class Configured : public Base {
 public:
  using Config = typename std::remove_cvref_t<decltype(kTable)>::ConfigType;
  static constexpr const auto& kParams = kTable;

  explicit Configured(Config config = {}) : config_(config) {}

  [[nodiscard]] std::string Name() const override {
    return kTable.Name(config_);
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 protected:
  Config config_;
};

}  // namespace mobipriv::util
