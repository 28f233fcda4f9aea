// Spec strings: the tiny declarative grammar shared by the mechanism
// registry and the evaluator registry.
//
//   chain     := spec ("|" spec)*
//   spec      := base [ "[" entry ("," entry)* "]" ]
//   entry     := key "=" value   (parameter)
//              | token           (flag, e.g. "speed+mix")
//   base/key  := [A-Za-z0-9_+.-]+
//   value     := anything up to the next "," or "]"
//
// A spec is what Mechanism::Name() prints ("geo_ind[eps=0.0100]",
// "wait4me[k=4,delta=500m]"). Built-in entries read their keys through
// one util::ParamTable each (util/params.h), so a name parses back to the
// config it was printed from and two configs never share a name.
// A chain composes specs left to right ("geo_ind[eps=0.1]|downsampling"):
// stage separators are only recognized at the top level, never inside
// brackets. Numeric values may carry a trailing unit suffix ("500m",
// "600s") which NumberOf strips — units are documentation, not semantics.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mobipriv::util {

/// Raised on malformed spec strings, unknown bases, or bad parameters.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Spec {
 public:
  struct Entry {
    std::string key;    ///< flag token when value is empty and !has_value
    std::string value;  ///< verbatim, unit suffix included
    bool has_value = false;
  };

  Spec() = default;
  explicit Spec(std::string base) : base_(std::move(base)) {}

  /// Parses `text`. Throws SpecError on empty base, unbalanced brackets,
  /// empty entries or trailing garbage after "]".
  [[nodiscard]] static Spec Parse(std::string_view text);

  /// Canonical rendering: base, then "[k=v,...]" when entries exist —
  /// Parse(s).ToString() == s for any already-canonical spec string.
  [[nodiscard]] std::string ToString() const;

  [[nodiscard]] const std::string& base() const noexcept { return base_; }
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

  void Add(std::string key, std::string value);
  void AddFlag(std::string token);

  /// Value of key=value entry `key`, or nullopt (flags don't count).
  [[nodiscard]] std::optional<std::string> Get(std::string_view key) const;
  /// True when a valueless `token` flag entry is present.
  [[nodiscard]] bool HasFlag(std::string_view token) const;

  /// Numeric lookups; `fallback` when the key is absent. A trailing
  /// alphabetic unit suffix ("m", "s", "ms") is ignored. Throws SpecError
  /// when the value is present but not a number.
  [[nodiscard]] double NumberOf(std::string_view key, double fallback) const;
  [[nodiscard]] std::int64_t IntOf(std::string_view key,
                                   std::int64_t fallback) const;

  /// Throws SpecError naming the first entry (key=value or flag) that
  /// `known` rejects. `context` prefixes the message.
  void RequireKnownKeys(const std::function<bool(const Entry&)>& known,
                        const std::string& context) const;
  /// The same for a fixed key list (flags are checked against it too).
  void RequireKnownKeys(std::initializer_list<std::string_view> known,
                        const std::string& context) const;

 private:
  std::string base_;
  std::vector<Entry> entries_;
};

/// A pipeline of specs applied left to right: `"a[...]|b[...]|c"`.
/// Single-stage chains are ordinary specs — Parse accepts every string
/// Spec::Parse accepts and ToString then prints the identical text, so
/// existing single-mechanism call sites can adopt SpecChain untouched.
class SpecChain {
 public:
  SpecChain() = default;

  /// Splits on top-level '|' (separators inside brackets are literal) and
  /// parses each stage with Spec::Parse. Throws SpecError on empty stages
  /// ("a||b", "|a", "a|") or any per-stage parse failure.
  [[nodiscard]] static SpecChain Parse(std::string_view text);

  /// Stage ToString()s joined with '|': Parse(s).ToString() == s for any
  /// already-canonical chain string.
  [[nodiscard]] std::string ToString() const;

  [[nodiscard]] const std::vector<Spec>& stages() const noexcept {
    return stages_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return stages_.size(); }

  void Append(Spec stage) { stages_.push_back(std::move(stage)); }

 private:
  std::vector<Spec> stages_;
};

/// Splits `text` on `separator` occurrences outside "[...]" brackets.
/// Empty pieces are preserved ("a||b" -> {"a", "", "b"}); an empty input
/// yields one empty piece. Bracket balance is NOT validated here — each
/// piece is expected to go through Spec::Parse, which is.
[[nodiscard]] std::vector<std::string> SplitTopLevel(std::string_view text,
                                                     char separator);

/// Strips one trailing run of alphabetic characters ("500m" -> "500").
[[nodiscard]] std::string_view StripUnitSuffix(std::string_view value);

}  // namespace mobipriv::util
