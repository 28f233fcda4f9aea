// The registry behind mech::CreateMechanism and core::CreateEvaluator: a
// base name maps to a factory and to the parameter table it parses (none
// for an entry registered with a bare factory).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/params.h"
#include "util/spec.h"
#include "util/string_utils.h"

namespace mobipriv::util {

template <class Product>
class SpecRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Product>(const Spec&)>;

  /// `kind` names the product in errors ("unknown mechanism ...").
  explicit SpecRegistry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers (or replaces, dropping its table) the factory for `base`.
  void Register(std::string base, Factory factory,
                std::vector<ParamInfo> params = {}) {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[std::move(base)] = {std::move(factory), std::move(params)};
  }

  /// Registers a util::Configured T under its table's base, built from
  /// the config the table parses.
  template <class T>
  void Add() {
    Register(
        std::string(T::kParams.base()),
        [](const Spec& spec) -> std::unique_ptr<Product> {
          return std::make_unique<T>(T::kParams.Parse(spec));
        },
        T::kParams.Info());
  }

  /// Registers T, which takes no parameters, under `base`.
  template <class T>
  void AddBare(const std::string& base) {
    Register(base, [base](const Spec& spec) -> std::unique_ptr<Product> {
      spec.RequireKnownKeys({}, base);
      return std::make_unique<T>();
    });
  }

  /// Throws SpecError on an unknown base, listing the registered ones.
  [[nodiscard]] std::unique_ptr<Product> Create(const Spec& spec) const {
    const Entry entry = Find(spec.base());
    if (!entry.factory) {
      throw SpecError("unknown " + kind_ + " \"" + spec.base() +
                      "\" (registered: " + Join(Bases(), ", ") + ")");
    }
    return entry.factory(spec);
  }

  /// Registered base names, sorted.
  [[nodiscard]] std::vector<std::string> Bases() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> bases;
    for (const auto& [base, unused] : entries_) bases.push_back(base);
    return bases;
  }

  /// The parameter table of `base`; empty when it has none or is unknown.
  [[nodiscard]] std::vector<ParamInfo> Params(const std::string& base) const {
    return Find(base).params;
  }

 private:
  struct Entry {
    Factory factory;
    std::vector<ParamInfo> params;
  };

  [[nodiscard]] Entry Find(const std::string& base) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(base);
    return it == entries_.end() ? Entry{} : it->second;
  }

  std::string kind_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace mobipriv::util
