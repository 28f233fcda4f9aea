#include "model/trace.h"

#include <algorithm>

#include "model/views.h"

namespace mobipriv::model {

Trace::Trace(UserId user, std::vector<Event> events)
    : user_(user), events_(std::move(events)) {}

void Trace::SortByTime() {
  std::stable_sort(events_.begin(), events_.end(), EventTimeLess{});
}

bool Trace::IsTimeOrdered() const noexcept {
  return TraceView(*this).IsTimeOrdered();
}

util::Timestamp Trace::Duration() const noexcept {
  if (events_.size() < 2) return 0;
  return events_.back().time - events_.front().time;
}

double Trace::LengthMeters() const noexcept {
  return TraceView(*this).LengthMeters();
}

std::vector<geo::LatLng> Trace::Positions() const {
  std::vector<geo::LatLng> out;
  out.reserve(events_.size());
  for (const auto& e : events_) out.push_back(e.position);
  return out;
}

std::vector<util::Timestamp> Trace::Times() const {
  std::vector<util::Timestamp> out;
  out.reserve(events_.size());
  for (const auto& e : events_) out.push_back(e.time);
  return out;
}

geo::GeoBoundingBox Trace::BoundingBox() const {
  geo::GeoBoundingBox box;
  for (const auto& e : events_) box.Extend(e.position);
  return box;
}

Trace Trace::Slice(util::Timestamp from, util::Timestamp to) const {
  Trace out;
  out.set_user(user_);
  for (const auto& e : events_) {
    if (e.time >= from && e.time <= to) out.Append(e);
  }
  return out;
}

}  // namespace mobipriv::model
