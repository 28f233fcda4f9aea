#include "model/event_store.h"

#include <stdexcept>
#include <utility>

namespace mobipriv::model {

EventStore EventStore::FromDataset(const Dataset& dataset) {
  EventStore store;
  for (UserId id = 0; id < dataset.UserCount(); ++id) {
    store.InternUser(dataset.UserName(id));
  }
  store.ReserveTraces(dataset.TraceCount());
  store.ReserveEvents(dataset.EventCount());
  for (const Trace& trace : dataset.traces()) {
    store.AppendTrace(trace.user(), trace);
  }
  return store;
}

EventStore EventStore::FromColumns(std::vector<std::string> names,
                                   std::vector<TraceRange> traces,
                                   std::vector<double> lat,
                                   std::vector<double> lng,
                                   std::vector<util::Timestamp> time) {
  if (lat.size() != lng.size() || lat.size() != time.size()) {
    throw std::invalid_argument("EventStore::FromColumns: column lengths differ");
  }
  for (const TraceRange& range : traces) {
    if (range.begin > range.end || range.end > lat.size()) {
      throw std::invalid_argument(
          "EventStore::FromColumns: trace range out of bounds");
    }
    if (range.user >= names.size()) {
      throw std::invalid_argument(
          "EventStore::FromColumns: trace user id out of range");
    }
  }
  EventStore store;
  store.ids_.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!store.ids_.emplace(names[i], static_cast<UserId>(i)).second) {
      throw std::invalid_argument(
          "EventStore::FromColumns: duplicate user name");
    }
  }
  store.names_ = std::move(names);
  store.traces_ = std::move(traces);
  store.lat_ = std::move(lat);
  store.lng_ = std::move(lng);
  store.time_ = std::move(time);
  return store;
}

UserId EventStore::InternUser(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<UserId>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::size_t EventStore::AppendTrace(UserId user, const TraceView& events) {
  const std::size_t begin = lat_.size();
  const std::size_t n = events.size();
  for (std::size_t i = 0; i < n; ++i) {
    lat_.push_back(events.lat(i));
    lng_.push_back(events.lng(i));
    time_.push_back(events.time(i));
  }
  traces_.push_back(TraceRange{user, begin, begin + n});
  return traces_.size() - 1;
}

void EventStore::ReserveEvents(std::size_t events) {
  lat_.reserve(events);
  lng_.reserve(events);
  time_.reserve(events);
}

void EventStore::ReserveTraces(std::size_t traces) {
  traces_.reserve(traces);
}

std::string EventStore::UserName(UserId id) const {
  if (id < names_.size()) return names_[id];
  return "user" + std::to_string(id);
}

TraceView EventStore::View(std::size_t trace) const {
  const TraceRange& range = traces_[trace];
  const std::size_t n = range.end - range.begin;
  return TraceView(
      range.user,
      StridedSpan<double>(n ? &lat_[range.begin] : nullptr, n,
                          sizeof(double)),
      StridedSpan<double>(n ? &lng_[range.begin] : nullptr, n,
                          sizeof(double)),
      StridedSpan<util::Timestamp>(n ? &time_[range.begin] : nullptr, n,
                                   sizeof(util::Timestamp)));
}

DatasetView EventStore::View() const {
  std::vector<TraceView> traces;
  traces.reserve(traces_.size());
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    traces.push_back(View(t));
  }
  return DatasetView(std::move(traces), names_.size(), names_);
}

Trace TraceBuffer::ToTrace(UserId user) const {
  std::vector<Event> events;
  events.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    events.push_back(Event{geo::LatLng{lat_[i], lng_[i]}, time_[i]});
  }
  return Trace(user, std::move(events));
}

Dataset EventStore::ToDataset() const {
  Dataset out;
  for (const std::string& name : names_) out.InternUser(name);
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    out.AddTrace(View(t).Materialize());
  }
  return out;
}

}  // namespace mobipriv::model
