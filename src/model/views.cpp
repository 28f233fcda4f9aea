#include "model/views.h"

#include <atomic>

#include "geo/distance.h"
#include "model/dataset.h"

namespace mobipriv::model {

TraceView::TraceView(const Trace& trace) : user_(trace.user()) {
  if (trace.empty()) return;
  const Event* base = trace.events().data();
  const std::size_t n = trace.size();
  lat_ = StridedSpan<double>(&base->position.lat, n, sizeof(Event));
  lng_ = StridedSpan<double>(&base->position.lng, n, sizeof(Event));
  time_ = StridedSpan<util::Timestamp>(&base->time, n, sizeof(Event));
}

bool TraceView::IsTimeOrdered() const noexcept {
  for (std::size_t i = 1; i < size(); ++i) {
    if (time(i) < time(i - 1)) return false;
  }
  return true;
}

double TraceView::LengthMeters() const noexcept {
  double total = 0.0;
  for (std::size_t i = 1; i < size(); ++i) {
    total += geo::HaversineDistance(position(i - 1), position(i));
  }
  return total;
}

geo::GeoBoundingBox TraceView::BoundingBox() const {
  geo::GeoBoundingBox box;
  for (std::size_t i = 0; i < size(); ++i) box.Extend(position(i));
  return box;
}

namespace {
std::atomic<std::size_t> trace_copy_count{0};
}  // namespace

Trace TraceView::Materialize() const {
  trace_copy_count.fetch_add(1, std::memory_order_relaxed);
  std::vector<Event> events;
  events.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) events.push_back(event(i));
  return Trace(user_, std::move(events));
}

std::size_t TraceCopyCount() noexcept {
  return trace_copy_count.load(std::memory_order_relaxed);
}

geo::LatLng InterpolateAt(const TraceView& trace, util::Timestamp t) {
  // Mirrors model::InterpolateAt on Trace bit for bit: same lower_bound
  // neighbour selection, same interpolation expression shape, so metrics
  // rewritten over views reproduce their pre-refactor results exactly.
  const std::size_t n = trace.size();
  if (t <= trace.time(0)) return trace.position(0);
  if (t >= trace.time(n - 1)) return trace.position(n - 1);
  // The first index with time >= t exists: t < last time.
  return InterpolateBetween(trace, FirstAtOrAfter(trace, t), t);
}

std::size_t FirstAtOrAfter(const TraceView& trace, util::Timestamp t) {
  std::size_t lo = 0, hi = trace.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (trace.time(mid) < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

geo::LatLng InterpolateBetween(const TraceView& trace, std::size_t after,
                               util::Timestamp t) {
  const std::size_t before = after - 1;
  if (trace.time(after) == trace.time(before)) return trace.position(before);
  const double alpha =
      static_cast<double>(util::ElapsedSeconds(trace.time(before), t)) /
      static_cast<double>(
          util::ElapsedSeconds(trace.time(before), trace.time(after)));
  return geo::LatLng{
      trace.lat(before) + (trace.lat(after) - trace.lat(before)) * alpha,
      trace.lng(before) + (trace.lng(after) - trace.lng(before)) * alpha};
}

DatasetView::DatasetView(const Dataset& dataset)
    : traces_(dataset.traces().begin(), dataset.traces().end()),
      user_count_(dataset.UserCount()),
      names_(dataset.names()) {}

std::size_t DatasetView::EventCount() const noexcept {
  std::size_t total = 0;
  for (const TraceView& t : traces_) total += t.size();
  return total;
}

std::string DatasetView::UserName(UserId id) const {
  if (id < names_.size()) return names_[id];
  return "user" + std::to_string(id);
}

geo::GeoBoundingBox DatasetView::BoundingBox() const {
  geo::GeoBoundingBox box;
  for (const TraceView& t : traces_) box.Extend(t.BoundingBox());
  return box;
}

namespace {
std::atomic<std::size_t> full_materialize_count{0};
}  // namespace

Dataset DatasetView::Materialize() const {
  full_materialize_count.fetch_add(1, std::memory_order_relaxed);
  Dataset out;
  for (UserId id = 0; id < user_count_; ++id) out.InternUser(UserName(id));
  for (const TraceView& t : traces_) out.AddTrace(t.Materialize());
  return out;
}

std::size_t FullMaterializeCount() noexcept {
  return full_materialize_count.load(std::memory_order_relaxed);
}

}  // namespace mobipriv::model
