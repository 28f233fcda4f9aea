#include "util/params.h"

#include <charconv>
#include <cmath>

#include "util/string_utils.h"

namespace mobipriv::util {
namespace {

/// Throws unless `value` lies in `info`'s range, naming the key and the
/// rule ("finite and > 0", ">= 2", "in [0, 1]", "0 or 1").
void CheckRange(const Spec& spec, const ParamInfo& info, double value) {
  const ParamRange& r = info.range;
  if (std::isfinite(value) && (r.lo_open ? value > r.lo : value >= r.lo) &&
      value <= r.hi) {
    return;
  }
  std::string rule = info.type == ParamType::kReal ? "finite and " : "";
  if (info.type == ParamType::kFlag) {
    rule = "0 or 1";
  } else if (std::isfinite(r.hi)) {
    rule += std::string("in ") + (r.lo_open ? "(" : "[") +
            FormatReal(r.lo, 0) + ", " + FormatReal(r.hi, 0) + "]";
  } else {
    rule += (r.lo_open ? "> " : ">= ") + FormatReal(r.lo, 0);
  }
  throw SpecError("spec " + spec.ToString() + ": parameter " +
                  std::string(info.key) + " must be " + rule);
}

}  // namespace

double ReadReal(const Spec& spec, const ParamInfo& info, double fallback) {
  const double value = spec.NumberOf(info.key, fallback);
  CheckRange(spec, info, value);
  return value;
}

std::int64_t ReadInteger(const Spec& spec, const ParamInfo& info,
                         std::int64_t fallback) {
  const std::int64_t value = spec.IntOf(info.key, fallback);
  CheckRange(spec, info, static_cast<double>(value));
  return value;
}

std::string FormatReal(double value, int digits) {
  std::string fixed = FormatDouble(value, digits);
  const auto back = ParseDouble(fixed);
  if (back && std::bit_cast<std::uint64_t>(*back) ==
                  std::bit_cast<std::uint64_t>(value)) {
    return fixed;
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace mobipriv::util
