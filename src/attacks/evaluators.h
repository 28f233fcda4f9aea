// Privacy-attack implementations of the scenario engine's Evaluator
// interface (core/evaluator.h). Where the bench binaries scored attacks
// against synthetic ground truth, these evaluators score them against the
// *original dataset* — the attack's haul on raw data is the reference —
// so they run on any (original, published) pair, real data included.
#pragma once

#include "attacks/home_work.h"
#include "attacks/poi_extraction.h"
#include "attacks/reident.h"
#include "core/evaluator.h"
#include "util/params.h"

namespace mobipriv::attacks {

/// "poi_attack" knobs: the match radius and the published-side
/// extractor's diameter and dwell (defaults: PoiExtractionConfig's).
struct PoiAttackConfig {
  double match_radius_m = 250.0;
  double max_diameter_m = PoiExtractionConfig{}.max_diameter_m;
  util::Timestamp min_duration_s = PoiExtractionConfig{}.min_duration_s;
};

inline constexpr util::ParamTable kPoiAttackParams{
    "poi_attack",
    util::Param{"radius", &PoiAttackConfig::match_radius_m, "m",
                util::kNonNegative}
        .Always(),
    util::Param{"diameter", &PoiAttackConfig::max_diameter_m, "m",
                util::kNonNegative},
    util::Param{"dwell", &PoiAttackConfig::min_duration_s, "s",
                util::kNonNegative}};

/// "home_work" knob: how close a published guess must land.
struct HomeWorkMatchConfig {
  double match_radius_m = 300.0;
};

inline constexpr util::ParamTable kHomeWorkParams{
    "home_work", util::Param{"radius", &HomeWorkMatchConfig::match_radius_m,
                             "m", util::kNonNegative}
                     .Always()};

/// "poi_attack[radius=...m,diameter=...m,dwell=...s]": POI extraction on
/// both datasets; reports how many of the POIs extractable from the
/// original survive in the published data (same user, within the match
/// radius). The reference side (original data) always uses the standard
/// extractor — it proxies what is really there — while the
/// diameter/dwell knobs tune the extractor run on the PUBLISHED data:
/// that is the adaptive adversary of the paper's Section II discussion,
/// who calibrates the clustering diameter to the defense's noise scale.
/// The paper's core privacy claim is poi_survival ~ 0 for the
/// constant-speed pipeline. Prepared: the reference POIs.
class PoiAttackEvaluator final
    : public util::Configured<core::PreparedEvaluator, kPoiAttackParams> {
 public:
  using Configured::Configured;
  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& input) const override;
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& prepared,
      const core::EvalInput& input) const override;
};

/// "reident": POI-profile linkage. Profiles are trained on the original
/// (identified) dataset and matched against the published traces.
/// Prepared: the profiles.
class ReidentEvaluator final : public core::PreparedEvaluator {
 public:
  explicit ReidentEvaluator(ReidentConfig config = {});
  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& input) const override;
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& prepared,
      const core::EvalInput& input) const override;

 private:
  ReidentConfig config_;
};

/// "home_work[radius=...m]": home/work inference on both datasets; a
/// published guess counts when it lands within the match radius of the
/// original-data guess for the same user (the quasi-identifier pair).
/// Prepared: the original-data guesses.
class HomeWorkEvaluator final
    : public util::Configured<core::PreparedEvaluator, kHomeWorkParams> {
 public:
  using Configured::Configured;
  [[nodiscard]] core::PreparedPtr Prepare(
      const core::EvalInput& input) const override;
  [[nodiscard]] std::vector<core::MetricValue> Score(
      const core::PreparedOriginal& prepared,
      const core::EvalInput& input) const override;

 private:
  HomeWorkConfig attack_;
};

}  // namespace mobipriv::attacks
