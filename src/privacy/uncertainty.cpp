#include "privacy/uncertainty.h"

#include <cmath>
#include <sstream>

#include "util/string_utils.h"

namespace mobipriv::privacy {

double AnonymitySetEntropyBits(std::size_t set_size) noexcept {
  if (set_size < 2) return 0.0;
  return std::log2(static_cast<double>(set_size));
}

std::string UncertaintyReport::ToString() const {
  std::ostringstream os;
  os << "occurrences=" << occurrences
     << " total_bits=" << util::FormatDouble(total_bits, 2)
     << " mean_bits/occurrence="
     << util::FormatDouble(mean_bits_per_occurrence, 2);
  std::size_t protected_users = 0;
  for (const auto& u : per_user) {
    if (u.traversals > 0) ++protected_users;
  }
  os << " users_with_mixing=" << protected_users << "/" << per_user.size();
  return os.str();
}

UncertaintyReport MeasureMixingUncertainty(
    const model::DatasetView& dataset, const mech::MixZoneReport& report) {
  UncertaintyReport out;
  std::map<model::UserId, UserUncertainty> per_user;
  for (model::UserId id = 0; id < dataset.UserCount(); ++id) {
    per_user[id] = UserUncertainty{id, 0, 0.0};
  }
  for (const auto& occurrence : report.occurrence_details) {
    const double bits = AnonymitySetEntropyBits(occurrence.users.size());
    out.total_bits += bits;
    ++out.occurrences;
    for (const model::UserId user : occurrence.users) {
      auto& entry = per_user[user];
      entry.user = user;
      ++entry.traversals;
      entry.cumulative_bits += bits;
    }
  }
  if (out.occurrences > 0) {
    out.mean_bits_per_occurrence =
        out.total_bits / static_cast<double>(out.occurrences);
  }
  out.per_user.reserve(per_user.size());
  for (auto& [id, entry] : per_user) out.per_user.push_back(entry);
  return out;
}

}  // namespace mobipriv::privacy
