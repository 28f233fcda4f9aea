// Test-only evaluators, registered at static initialization, for the
// failure-parity tests of prepared original sides. Both report the same
// Name(), so a report naming either reads the same:
//
//   test_original_throws[at=K]           a core::PreparedEvaluator: its
//                                        Prepare throws, and its
//                                        OriginalFold throws on shard K.
//   test_original_throws_per_cell[at=K]  the same failure without the split:
//                                        Evaluate throws, and every cell's
//                                        TraceFold throws on shard K before
//                                        reading the published side.
//
// The thrown text is "test_original_throws: original side". Cells that get
// past it score `published_events`, the published event count.
//
//   test_slow_prepare[ms=N]              a core::PreparedEvaluator whose
//                                        Prepare sleeps N ms (the watchdog
//                                        test hook); it scores
//                                        `published_events`.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"

namespace mobipriv {
namespace {

constexpr const char* kError = "test_original_throws: original side";

std::string NameOf(std::int64_t at) {
  return "test_original_throws[at=" + std::to_string(at) + "]";
}

double PublishedEvents(std::span<const model::TraceView> traces) {
  std::size_t events = 0;
  for (const model::TraceView& trace : traces) events += trace.size();
  return static_cast<double>(events);
}

/// Counts published events shard by shard; throws on shard `at` when
/// `throw_original` (the per-cell form's original side).
class CountingFold final : public core::TraceFold {
 public:
  CountingFold(std::int64_t at, bool throw_original)
      : at_(at), throw_original_(throw_original) {}
  void AccumulateShard(const core::ShardSlice& slice) override {
    if (throw_original_ && shard_++ == at_) throw std::runtime_error(kError);
    events_ += PublishedEvents(slice.published);
  }
  std::vector<core::MetricValue> Finalize() override {
    return {{"published_events", events_}};
  }

 private:
  std::int64_t at_;
  bool throw_original_;
  std::int64_t shard_ = 0;
  double events_ = 0.0;
};

class ThrowingOriginalFold final : public core::OriginalFold {
 public:
  explicit ThrowingOriginalFold(std::int64_t at) : at_(at) {}
  void AccumulateShard(const core::ShardSlice& /*slice*/) override {
    if (shard_++ == at_) throw std::runtime_error(kError);
  }
  core::PreparedPtr Finalize() override { return core::MakePrepared(0); }

 private:
  std::int64_t at_;
  std::int64_t shard_ = 0;
};

class PreparedThrows final : public core::PreparedEvaluator {
 public:
  explicit PreparedThrows(std::int64_t at) : at_(at) {}
  [[nodiscard]] std::string Name() const override { return NameOf(at_); }
  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& /*input*/) const override {
    throw std::runtime_error(kError);
  }
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& /*prepared*/,
      const core::EvalInput& input) const override {
    return {{"published_events", PublishedEvents(input.published.traces())}};
  }
  [[nodiscard]] std::unique_ptr<core::OriginalFold> MakeOriginalFold(
      std::uint64_t /*seed*/) const override {
    return std::make_unique<ThrowingOriginalFold>(at_);
  }
  [[nodiscard]] std::unique_ptr<core::TraceFold> MakeScoreFold(
      std::shared_future<core::PreparedPtr> /*prepared*/,
      std::uint64_t /*seed*/) const override {
    return std::make_unique<CountingFold>(at_, /*throw_original=*/false);
  }

 private:
  std::int64_t at_;
};

class SlowPrepare final : public core::PreparedEvaluator {
 public:
  explicit SlowPrepare(std::int64_t ms) : ms_(ms) {}
  [[nodiscard]] std::string Name() const override {
    return "test_slow_prepare[ms=" + std::to_string(ms_) + "]";
  }
  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& /*input*/) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return core::MakePrepared(0);
  }
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& /*prepared*/,
      const core::EvalInput& input) const override {
    return {{"published_events", PublishedEvents(input.published.traces())}};
  }

 private:
  std::int64_t ms_;
};

class PerCellThrows final : public core::Evaluator {
 public:
  explicit PerCellThrows(std::int64_t at) : at_(at) {}
  [[nodiscard]] std::string Name() const override { return NameOf(at_); }
  [[nodiscard]] std::vector<core::MetricValue> Evaluate(
      const core::EvalInput& /*input*/) const override {
    throw std::runtime_error(kError);
  }
  [[nodiscard]] std::unique_ptr<core::TraceFold> MakeTraceFold(
      std::uint64_t /*seed*/) const override {
    return std::make_unique<CountingFold>(at_, /*throw_original=*/true);
  }

 private:
  std::int64_t at_;
};

const bool kRegistered = [] {
  core::RegisterEvaluator(
      "test_original_throws",
      [](const util::Spec& spec) -> std::unique_ptr<core::Evaluator> {
        spec.RequireKnownKeys({"at"}, "test_original_throws");
        return std::make_unique<PreparedThrows>(spec.IntOf("at", 0));
      });
  core::RegisterEvaluator(
      "test_original_throws_per_cell",
      [](const util::Spec& spec) -> std::unique_ptr<core::Evaluator> {
        spec.RequireKnownKeys({"at"}, "test_original_throws_per_cell");
        return std::make_unique<PerCellThrows>(spec.IntOf("at", 0));
      });
  core::RegisterEvaluator(
      "test_slow_prepare",
      [](const util::Spec& spec) -> std::unique_ptr<core::Evaluator> {
        spec.RequireKnownKeys({"ms"}, "test_slow_prepare");
        return std::make_unique<SlowPrepare>(spec.IntOf("ms", 0));
      });
  return true;
}();

}  // namespace
}  // namespace mobipriv
