#include "attacks/evaluators.h"

#include <map>

#include "geo/point2.h"
#include "metrics/reident_metrics.h"

namespace mobipriv::attacks {

// All library mechanisms preserve the user-id space (they intern every
// input user up front, in id order), so original and published user ids
// compare directly in the evaluators below.

core::PreparedPtr PoiAttackEvaluator::Prepare(
    const core::EvalInput& input) const {
  // Reference POIs come from the STANDARD extractor on the original
  // data; the (possibly adaptive) configured extractor attacks the
  // published data — see the class comment.
  const PoiExtractor reference_extractor{PoiExtractionConfig{}};
  return core::MakePrepared(
      reference_extractor.Extract(input.original, input.frame));
}

std::vector<core::MetricValue> PoiAttackEvaluator::Score(
    const core::PreparedOriginal& prepared,
    const core::EvalInput& input) const {
  const auto& reference =
      core::PreparedAs<std::vector<ExtractedPoi>>(prepared);
  PoiExtractionConfig extraction;
  extraction.max_diameter_m = config_.max_diameter_m;
  extraction.min_duration_s = config_.min_duration_s;
  const PoiExtractor extractor(extraction);
  const std::vector<ExtractedPoi> published =
      extractor.Extract(input.published, input.frame);

  std::map<model::UserId, std::vector<geo::Point2>> published_by_user;
  for (const ExtractedPoi& poi : published) {
    published_by_user[poi.user].push_back(poi.centroid);
  }
  std::size_t survived = 0;
  for (const ExtractedPoi& poi : reference) {
    const auto it = published_by_user.find(poi.user);
    if (it == published_by_user.end()) continue;
    for (const geo::Point2& candidate : it->second) {
      if (geo::Distance(poi.centroid, candidate) <= config_.match_radius_m) {
        ++survived;
        break;
      }
    }
  }
  const double survival =
      reference.empty() ? 0.0
                        : static_cast<double>(survived) /
                              static_cast<double>(reference.size());
  return {{"poi_survival", survival},
          {"pois_original", static_cast<double>(reference.size())},
          {"pois_published", static_cast<double>(published.size())}};
}

ReidentEvaluator::ReidentEvaluator(ReidentConfig config)
    : config_(std::move(config)) {}

std::string ReidentEvaluator::Name() const { return "reident"; }

core::PreparedPtr ReidentEvaluator::Prepare(
    const core::EvalInput& input) const {
  const ReidentificationAttack attack(config_);
  return core::MakePrepared(attack.BuildProfiles(input.original, input.frame));
}

std::vector<core::MetricValue> ReidentEvaluator::Score(
    const core::PreparedOriginal& prepared,
    const core::EvalInput& input) const {
  const ReidentificationAttack attack(config_);
  const auto& profiles =
      core::PreparedAs<std::vector<MobilityProfile>>(prepared);
  const auto results = attack.Attack(profiles, input.published, input.frame);
  const metrics::ReidentReport report = metrics::SummarizeReident(results);
  const double linkable_frac =
      report.traces == 0 ? 0.0
                         : static_cast<double>(report.linkable) /
                               static_cast<double>(report.traces);
  return {{"reident_acc_all", report.accuracy_all},
          {"reident_acc_linkable", report.accuracy_linkable},
          {"reident_linkable_frac", linkable_frac}};
}

core::PreparedPtr HomeWorkEvaluator::Prepare(
    const core::EvalInput& input) const {
  const HomeWorkAttack attack(attack_);
  return core::MakePrepared(attack.Infer(input.original, input.frame));
}

std::vector<core::MetricValue> HomeWorkEvaluator::Score(
    const core::PreparedOriginal& prepared,
    const core::EvalInput& input) const {
  const HomeWorkAttack attack(attack_);
  const auto& reference =
      core::PreparedAs<std::vector<HomeWorkGuess>>(prepared);
  const auto published = attack.Infer(input.published, input.frame);
  std::map<model::UserId, const HomeWorkGuess*> published_by_user;
  for (const HomeWorkGuess& guess : published) {
    published_by_user[guess.user] = &guess;
  }
  std::size_t homes_reference = 0;
  std::size_t works_reference = 0;
  std::size_t homes_refound = 0;
  std::size_t works_refound = 0;
  for (const HomeWorkGuess& truth : reference) {
    const auto it = published_by_user.find(truth.user);
    const HomeWorkGuess* match =
        it == published_by_user.end() ? nullptr : it->second;
    if (truth.home) {
      ++homes_reference;
      if (match != nullptr && match->home &&
          geo::Distance(*truth.home, *match->home) <= config_.match_radius_m) {
        ++homes_refound;
      }
    }
    if (truth.work) {
      ++works_reference;
      if (match != nullptr && match->work &&
          geo::Distance(*truth.work, *match->work) <= config_.match_radius_m) {
        ++works_refound;
      }
    }
  }
  const auto frac = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  return {{"home_refound_frac", frac(homes_refound, homes_reference)},
          {"work_refound_frac", frac(works_refound, works_reference)},
          {"homes_original", static_cast<double>(homes_reference)}};
}

}  // namespace mobipriv::attacks
