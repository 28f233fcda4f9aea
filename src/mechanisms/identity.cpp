#include "mechanisms/identity.h"

namespace mobipriv::mech {

model::EventStore Identity::ApplyToStore(const model::DatasetView& input,
                                         util::Rng& rng) const {
  (void)rng;
  const auto& traces = input.traces();
  std::size_t total = 0;
  for (const model::TraceView& t : traces) total += t.size();

  std::vector<double> lat;
  std::vector<double> lng;
  std::vector<util::Timestamp> time;
  lat.reserve(total);
  lng.reserve(total);
  time.reserve(total);
  std::vector<model::EventStore::TraceRange> table;
  table.reserve(traces.size());
  for (const model::TraceView& t : traces) {
    const std::size_t begin = time.size();
    for (std::size_t i = 0; i < t.size(); ++i) {
      lat.push_back(t.lat(i));
      lng.push_back(t.lng(i));
      time.push_back(t.time(i));
    }
    table.push_back(
        model::EventStore::TraceRange{t.user(), begin, time.size()});
  }
  std::vector<std::string> names;
  names.reserve(input.UserCount());
  for (model::UserId id = 0;
       id < static_cast<model::UserId>(input.UserCount()); ++id) {
    names.push_back(input.UserName(id));
  }
  return model::EventStore::FromColumns(std::move(names), std::move(table),
                                        std::move(lat), std::move(lng),
                                        std::move(time));
}

}  // namespace mobipriv::mech
