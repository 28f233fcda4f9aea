#include "core/evaluator.h"

#include "attacks/evaluators.h"
#include "metrics/evaluators.h"
#include "privacy/evaluators.h"
#include "util/spec_registry.h"

namespace mobipriv::core {
namespace {

util::SpecRegistry<Evaluator>& GlobalRegistry() {
  static auto* registry = [] {
    auto* r = new util::SpecRegistry<Evaluator>("evaluator");
    r->AddBare<metrics::SpatialDistortionEvaluator>("spatial_distortion");
    r->Add<metrics::CoverageEvaluator>();
    r->Add<metrics::HeatmapEvaluator>();
    r->Add<metrics::RangeQueryEvaluator>();
    r->AddBare<metrics::TrajectoryStatsEvaluator>("trajectory_stats");
    r->Add<metrics::KDeltaEvaluator>();
    r->Add<attacks::PoiAttackEvaluator>();
    r->AddBare<attacks::ReidentEvaluator>("reident");
    r->Add<attacks::HomeWorkEvaluator>();
    r->Add<privacy::CertificationEvaluator>();
    r->Add<privacy::UncertaintyEvaluator>();
    return r;
  }();
  return *registry;
}

/// PreparedEvaluator::MakeTraceFold: one cell's OriginalFold and score
/// fold on the same slices. The original side finalizes first, so the
/// score fold's future is ready when its own Finalize reads it.
class PreparedCellFold final : public TraceFold {
 public:
  PreparedCellFold(std::unique_ptr<OriginalFold> original,
                   std::promise<PreparedPtr> prepared,
                   std::unique_ptr<TraceFold> score)
      : original_(std::move(original)),
        prepared_(std::move(prepared)),
        score_(std::move(score)) {}

  void AccumulateShard(const ShardSlice& slice) override {
    original_->AccumulateShard(slice);
    score_->AccumulateShard(slice);
  }

  std::vector<MetricValue> Finalize() override {
    prepared_.set_value(original_->Finalize());
    return score_->Finalize();
  }

 private:
  std::unique_ptr<OriginalFold> original_;
  std::promise<PreparedPtr> prepared_;
  std::unique_ptr<TraceFold> score_;
};

}  // namespace

std::unique_ptr<OriginalFold> PreparedEvaluator::MakeOriginalFold(
    std::uint64_t /*seed*/) const {
  return nullptr;
}

std::unique_ptr<TraceFold> PreparedEvaluator::MakeScoreFold(
    std::shared_future<PreparedPtr> /*prepared*/,
    std::uint64_t /*seed*/) const {
  return nullptr;
}

std::vector<MetricValue> PreparedEvaluator::Evaluate(
    const EvalInput& input) const {
  return Score(*Prepare(input), input);
}

std::unique_ptr<TraceFold> PreparedEvaluator::MakeTraceFold(
    std::uint64_t seed) const {
  std::unique_ptr<OriginalFold> original = MakeOriginalFold(seed);
  if (!original) return nullptr;
  std::promise<PreparedPtr> prepared;
  std::unique_ptr<TraceFold> score =
      MakeScoreFold(prepared.get_future().share(), seed);
  return std::make_unique<PreparedCellFold>(
      std::move(original), std::move(prepared), std::move(score));
}

void RegisterEvaluator(std::string base, EvaluatorFactory factory) {
  GlobalRegistry().Register(std::move(base), std::move(factory));
}

std::unique_ptr<Evaluator> CreateEvaluator(std::string_view spec_text) {
  return GlobalRegistry().Create(util::Spec::Parse(spec_text));
}

std::vector<std::string> RegisteredEvaluatorBases() {
  return GlobalRegistry().Bases();
}

std::vector<util::ParamInfo> EvaluatorParams(std::string_view base) {
  return GlobalRegistry().Params(std::string(base));
}

}  // namespace mobipriv::core
