// Test-only mechanisms, registered at static initialization. This file is
// linked into the tests that use them AND into mobipriv_test_worker (the
// shard-execution worker plus these registrations), so a grid naming one
// of them runs the same kernel in the whole-view DAG, in the in-process
// shard stream and in worker processes.
//
//   test_fail_on_user[user=N]  copies every trace, but throws
//                              "test_fail_on_user: user N" on any trace of
//                              global user id N — a stage that fails
//                              partway through its input.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"

namespace mobipriv {
namespace {

class FailOnUser final : public mech::PerTraceMechanism {
 public:
  explicit FailOnUser(std::int64_t user) : user_(user) {}

  [[nodiscard]] std::string Name() const override {
    return "test_fail_on_user[user=" + std::to_string(user_) + "]";
  }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& /*rng*/) const override {
    if (static_cast<std::int64_t>(trace.user()) == user_) {
      throw std::runtime_error("test_fail_on_user: user " +
                               std::to_string(user_));
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
      out.Append(trace.position(i), trace.time(i));
    }
  }

 private:
  std::int64_t user_;
};

const bool kRegistered = [] {
  mech::RegisterMechanism(
      "test_fail_on_user",
      [](const util::Spec& spec) -> std::unique_ptr<mech::Mechanism> {
        spec.RequireKnownKeys({"user"}, "test_fail_on_user");
        return std::make_unique<FailOnUser>(spec.IntOf("user", -1));
      });
  return true;
}();

}  // namespace
}  // namespace mobipriv
