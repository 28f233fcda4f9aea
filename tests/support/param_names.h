// Registry-wide name property shared by the mechanism and evaluator
// registry tests: for every registered base and every key of its
// parameter table, valid values (fractional, tiny, huge and next to the
// default) give names that round-trip, and distinct configs give
// distinct names.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/params.h"

namespace mobipriv::test_support {

/// Valid values of one table row as spec text (unit suffix included),
/// each a config different from the default and from the others.
inline std::vector<std::string> ValidValues(const util::ParamInfo& info) {
  const double d = info.default_value;
  const auto admits = [&](double v) {
    return std::isfinite(v) &&
           (info.range.lo_open ? v > info.range.lo : v >= info.range.lo) &&
           v <= info.range.hi && v != d;
  };
  std::vector<std::string> values;
  std::set<std::string> seen;
  const auto add = [&](const std::string& text) {
    if (seen.insert(text).second) {
      values.push_back(text + std::string(info.unit));
    }
  };
  switch (info.type) {
    case util::ParamType::kReal: {
      const double scale = d != 0.0 ? d : 1.0;
      const double inf = std::numeric_limits<double>::infinity();
      for (const double v :
           {d + 0.4, d * 1.004, scale * 1e-9, scale * 1e12,
            std::nextafter(d, inf), std::nextafter(d, -inf)}) {
        if (!admits(v)) continue;
        char buffer[32];
        const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v);
        add(std::string(buffer, result.ptr));
      }
      break;
    }
    case util::ParamType::kInt:
    case util::ParamType::kCount:
      for (const double v : {d + 1.0, d - 1.0, std::round(d * 1e12)}) {
        if (admits(v)) add(std::to_string(static_cast<std::int64_t>(v)));
      }
      break;
    case util::ParamType::kFlag:
      add(d != 0.0 ? "0" : "1");
      break;
  }
  return values;
}

/// Checks the name property for each of `bases`: `params(base)` is its
/// table and `name_of(text)` builds from a spec text and returns Name().
inline void ExpectNamesRoundTripAndAreInjective(
    const std::vector<std::string>& bases,
    const std::function<std::vector<util::ParamInfo>(const std::string&)>&
        params,
    const std::function<std::string(const std::string&)>& name_of) {
  for (const std::string& base : bases) {
    std::map<std::string, std::string> spec_of_name;
    const auto check = [&](const std::string& spec, bool distinct) {
      const std::string name = name_of(spec);
      EXPECT_EQ(name_of(name), name) << spec;
      const auto [it, inserted] = spec_of_name.emplace(name, spec);
      if (distinct) {
        EXPECT_TRUE(inserted)
            << spec << " and " << it->second << " share the name " << name;
      }
    };
    check(base, true);
    std::string all_keys;
    std::size_t keys_drawn = 0;
    for (const util::ParamInfo& info : params(base)) {
      const std::vector<std::string> values = ValidValues(info);
      EXPECT_FALSE(values.empty()) << base << " key " << info.key;
      for (const std::string& value : values) {
        check(base + "[" + std::string(info.key) + "=" + value + "]", true);
      }
      if (!values.empty()) {
        ++keys_drawn;
        all_keys += (all_keys.empty() ? "" : ",") + std::string(info.key) +
                    "=" + values.front();
      }
    }
    // Every key off its default at once (a new config when there are two
    // keys or more).
    if (keys_drawn > 0) check(base + "[" + all_keys + "]", keys_drawn > 1);
  }
}

}  // namespace mobipriv::test_support
