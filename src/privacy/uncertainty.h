// Attacker-uncertainty quantification for mix-zones.
//
// The mix-zone literature ([6], Hoh & Gruteser [5]) measures protection as
// the adversary's uncertainty over the identity permutation applied inside a
// zone. With a uniform permutation over k participants the posterior over
// "which exit is my target" is uniform over k candidates, giving
// log2(k) bits of entropy per traversal; over a whole publication the
// per-user *cumulative* entropy tells each user how untrackable she became.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "mechanisms/mixzone.h"
#include "model/views.h"

namespace mobipriv::privacy {

/// Entropy (bits) of a uniform choice among `set_size` candidates.
[[nodiscard]] double AnonymitySetEntropyBits(std::size_t set_size) noexcept;

struct UserUncertainty {
  model::UserId user = model::kInvalidUser;
  std::size_t traversals = 0;       ///< mix-zone occurrences participated in
  double cumulative_bits = 0.0;     ///< sum of per-occurrence entropies
};

struct UncertaintyReport {
  double total_bits = 0.0;          ///< pooled over all occurrences
  double mean_bits_per_occurrence = 0.0;
  std::size_t occurrences = 0;
  std::vector<UserUncertainty> per_user;

  [[nodiscard]] std::string ToString() const;
};

/// Computes the uncertainty the mechanism run described by `report`
/// generated. `dataset` supplies the user universe (users with no traversal
/// appear with 0 bits — the honest "this user was not protected" signal).
[[nodiscard]] UncertaintyReport MeasureMixingUncertainty(
    const model::DatasetView& dataset, const mech::MixZoneReport& report);

}  // namespace mobipriv::privacy
