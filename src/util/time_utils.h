// Timestamp helpers. All trajectory timestamps in the library are plain Unix
// seconds stored as std::int64_t (field name `Timestamp`); sub-second GPS
// resolution is irrelevant at the sampling rates mobility datasets use, and
// integral seconds make the constant-speed arithmetic exact to test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mobipriv::util {

using Timestamp = std::int64_t;  ///< Unix seconds.

inline constexpr Timestamp kSecondsPerMinute = 60;
inline constexpr Timestamp kSecondsPerHour = 3600;
inline constexpr Timestamp kSecondsPerDay = 86400;

/// `later - earlier` for `later >= earlier`, exact over the whole Timestamp
/// range: the signed subtraction overflows once a span passes INT64_MAX,
/// the unsigned difference of the ordered pair never does.
[[nodiscard]] inline constexpr std::uint64_t ElapsedSeconds(
    Timestamp earlier, Timestamp later) noexcept {
  return static_cast<std::uint64_t>(later) -
         static_cast<std::uint64_t>(earlier);
}

/// Parses "YYYY-MM-DD hh:mm:ss" (or with 'T' separator) as UTC.
/// Returns nullopt on malformed input. Days-from-civil algorithm (Hinnant),
/// no locale or timezone dependence.
[[nodiscard]] std::optional<Timestamp> ParseDateTime(std::string_view text);

/// Formats a Unix timestamp as "YYYY-MM-DD hh:mm:ss" UTC.
[[nodiscard]] std::string FormatDateTime(Timestamp ts);

/// Seconds elapsed since the enclosing UTC midnight, in [0, 86400).
[[nodiscard]] Timestamp SecondsOfDay(Timestamp ts) noexcept;

/// UTC midnight at or before ts.
[[nodiscard]] Timestamp StartOfDay(Timestamp ts) noexcept;

/// Human-readable duration, e.g. "2h03m" or "45s" (for logs/reports).
[[nodiscard]] std::string FormatDuration(Timestamp seconds);

}  // namespace mobipriv::util
