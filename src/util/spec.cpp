#include "util/spec.h"

#include <algorithm>
#include <cctype>

#include "util/string_utils.h"

namespace mobipriv::util {
namespace {

[[noreturn]] void Malformed(std::string_view text, const std::string& what) {
  throw SpecError("malformed spec \"" + std::string(text) + "\": " + what);
}

}  // namespace

std::string_view StripUnitSuffix(std::string_view value) {
  while (!value.empty() &&
         std::isalpha(static_cast<unsigned char>(value.back())) != 0) {
    value.remove_suffix(1);
  }
  return value;
}

Spec Spec::Parse(std::string_view text) {
  const std::size_t open = text.find('[');
  Spec spec;
  spec.base_ = std::string(text.substr(0, open));
  if (spec.base_.empty()) Malformed(text, "empty base name");
  if (open == std::string_view::npos) return spec;
  if (text.back() != ']') Malformed(text, "missing closing ]");
  std::string_view body = text.substr(open + 1, text.size() - open - 2);
  if (body.find('[') != std::string_view::npos ||
      body.find(']') != std::string_view::npos) {
    Malformed(text, "nested brackets");
  }
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    const std::string_view entry = body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    if (entry.empty()) Malformed(text, "empty entry");
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      spec.AddFlag(std::string(entry));
    } else {
      if (eq == 0) Malformed(text, "empty key");
      spec.Add(std::string(entry.substr(0, eq)),
               std::string(entry.substr(eq + 1)));
    }
  }
  return spec;
}

std::string Spec::ToString() const {
  if (entries_.empty()) return base_;
  std::string out = base_ + "[";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ",";
    out += entries_[i].key;
    if (entries_[i].has_value) {
      out += "=";
      out += entries_[i].value;
    }
  }
  out += "]";
  return out;
}

void Spec::Add(std::string key, std::string value) {
  entries_.push_back({std::move(key), std::move(value), /*has_value=*/true});
}

void Spec::AddFlag(std::string token) {
  entries_.push_back({std::move(token), "", /*has_value=*/false});
}

std::optional<std::string> Spec::Get(std::string_view key) const {
  for (const Entry& entry : entries_) {
    if (entry.has_value && entry.key == key) return entry.value;
  }
  return std::nullopt;
}

bool Spec::HasFlag(std::string_view token) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) {
                       return !e.has_value && e.key == token;
                     });
}

double Spec::NumberOf(std::string_view key, double fallback) const {
  const auto value = Get(key);
  if (!value) return fallback;
  const auto parsed = ParseDouble(StripUnitSuffix(*value));
  if (!parsed) {
    throw SpecError("spec " + ToString() + ": parameter " + std::string(key) +
                    "=\"" + *value + "\" is not a number");
  }
  return *parsed;
}

std::int64_t Spec::IntOf(std::string_view key, std::int64_t fallback) const {
  const auto value = Get(key);
  if (!value) return fallback;
  const auto parsed = ParseInt(StripUnitSuffix(*value));
  if (!parsed) {
    throw SpecError("spec " + ToString() + ": parameter " + std::string(key) +
                    "=\"" + *value + "\" is not an integer");
  }
  return *parsed;
}

SpecChain SpecChain::Parse(std::string_view text) {
  SpecChain chain;
  for (const std::string& piece : SplitTopLevel(text, '|')) {
    if (piece.empty()) Malformed(text, "empty chain stage");
    chain.stages_.push_back(Spec::Parse(piece));
  }
  return chain;
}

std::string SpecChain::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += "|";
    out += stages_[i].ToString();
  }
  return out;
}

std::vector<std::string> SplitTopLevel(std::string_view text, char separator) {
  std::vector<std::string> pieces;
  std::size_t depth = 0;
  std::string current;
  for (const char c : text) {
    if (c == '[') ++depth;
    if (c == ']' && depth > 0) --depth;
    if (c == separator && depth == 0) {
      pieces.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  pieces.push_back(std::move(current));
  return pieces;
}

void Spec::RequireKnownKeys(const std::function<bool(const Entry&)>& known,
                            const std::string& context) const {
  for (const Entry& entry : entries_) {
    if (!known(entry)) {
      throw SpecError(context + ": unknown parameter \"" + entry.key +
                      "\" in spec " + ToString());
    }
  }
}

void Spec::RequireKnownKeys(std::initializer_list<std::string_view> known,
                            const std::string& context) const {
  RequireKnownKeys(
      [&](const Entry& entry) {
        return std::find(known.begin(), known.end(), entry.key) !=
               known.end();
      },
      context);
}

}  // namespace mobipriv::util
