// Non-owning span views over mobility data, the common currency of every
// batch kernel after the columnar refactor.
//
// The same kernel must run over every storage layout the library holds:
//   * AoS — model::Trace / model::Dataset (std::vector<Event>), the
//     mutation-friendly layout mechanisms produce,
//   * SoA — model::EventStore (contiguous lat / lng / time columns), the
//     scan-friendly layout ingestion and sharding produce, and
//   * mapped — model::MappedColumnar (`.mpc` files, docs/FORMAT.md),
//     whose views alias a read-only mmap of the on-disk columns.
// StridedSpan bridges them: a (pointer, count, byte-stride) triple views a
// column either inside an Event array (stride == sizeof(Event)) or inside a
// flat column (stride == sizeof(T)) with zero copies either way.
//
// Views never own memory. The backing Dataset / EventStore must outlive
// every view derived from it; views are cheap to copy and to pass by value.
//
// A `const Trace&` converts implicitly to a TraceView and a `const
// Dataset&` to a DatasetView, so every kernel has one signature, over
// views, and AoS callers pass their Trace / Dataset straight in. The
// conversions from rvalues are deleted: a view over a temporary would
// dangle the moment the full expression ends, so `F(MakeDataset())` is a
// compile error instead of a use-after-free. Bind the temporary to a
// named local first.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "geo/bounding_box.h"
#include "model/trace.h"

namespace mobipriv::model {

class Dataset;

/// Read-only view of `count` values of type T laid out every `stride` bytes.
/// A plain std::span is the stride == sizeof(T) special case.
template <typename T>
class StridedSpan {
 public:
  StridedSpan() = default;
  StridedSpan(const T* first, std::size_t count, std::size_t stride_bytes)
      : data_(reinterpret_cast<const std::byte*>(first)),
        count_(count),
        stride_(stride_bytes) {}

  /// Value `i` (no bounds check, like std::span). The backing storage
  /// must outlive the span.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return *reinterpret_cast<const T*>(data_ + i * stride_);
  }
  /// Number of viewed values.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t count_ = 0;
  std::size_t stride_ = 0;
};

/// Non-owning view of one trace: user id plus lat / lng / time columns.
/// Constructible over a Trace (AoS) or EventStore columns (SoA) at zero cost.
class TraceView {
 public:
  TraceView() = default;
  TraceView(UserId user, StridedSpan<double> lat, StridedSpan<double> lng,
            StridedSpan<util::Timestamp> time)
      : user_(user), lat_(lat), lng_(lng), time_(time) {}

  /// Zero-copy view over an AoS trace (strides through its Event array).
  /// Implicit on purpose; the rvalue form is deleted (file comment).
  TraceView(const Trace& trace);
  TraceView(const Trace&& trace) = delete;

  /// Dense id of the trace's user (kInvalidUser for anonymous views).
  [[nodiscard]] UserId user() const noexcept { return user_; }
  /// Number of events in the trace.
  [[nodiscard]] std::size_t size() const noexcept { return time_.size(); }
  [[nodiscard]] bool empty() const noexcept { return time_.empty(); }

  /// Column reads for fix `i` (no bounds check; i < size()).
  [[nodiscard]] double lat(std::size_t i) const { return lat_[i]; }
  [[nodiscard]] double lng(std::size_t i) const { return lng_[i]; }
  [[nodiscard]] util::Timestamp time(std::size_t i) const { return time_[i]; }
  /// Fix `i` assembled as a LatLng (two column reads).
  [[nodiscard]] geo::LatLng position(std::size_t i) const {
    return geo::LatLng{lat_[i], lng_[i]};
  }
  /// Fix `i` assembled as an owning Event value.
  [[nodiscard]] Event event(std::size_t i) const {
    return Event{position(i), time_[i]};
  }

  /// True if times are non-decreasing (Trace::IsTimeOrdered's rule).
  [[nodiscard]] bool IsTimeOrdered() const noexcept;

  /// Duration in seconds between first and last fix (0 if < 2 events).
  [[nodiscard]] util::Timestamp Duration() const noexcept {
    return size() < 2 ? 0 : time_[size() - 1] - time_[0];
  }

  /// Geographic path length in metres (haversine over consecutive fixes;
  /// Trace::LengthMeters runs this body).
  [[nodiscard]] double LengthMeters() const noexcept;

  [[nodiscard]] geo::GeoBoundingBox BoundingBox() const;

  /// Materializes an owning Trace (copies the events).
  [[nodiscard]] Trace Materialize() const;

  /// Same spans under a different user id — how shard-local views are
  /// re-labelled into a global id space without touching event data.
  [[nodiscard]] TraceView WithUser(UserId user) const {
    TraceView out = *this;
    out.user_ = user;
    return out;
  }

 private:
  UserId user_ = kInvalidUser;
  StridedSpan<double> lat_;
  StridedSpan<double> lng_;
  StridedSpan<util::Timestamp> time_;
};

/// Position linearly interpolated at time `t` (clamped to the view's range).
/// Requires a non-empty, time-ordered view; mirrors model::InterpolateAt.
[[nodiscard]] geo::LatLng InterpolateAt(const TraceView& trace,
                                        util::Timestamp t);

/// Index of the first fix with time >= t, by InterpolateAt's binary search
/// (on an unordered view: the index that search lands on); size() when
/// every fix is earlier.
[[nodiscard]] std::size_t FirstAtOrAfter(const TraceView& trace,
                                         util::Timestamp t);

/// InterpolateAt's value at `t` between fixes `after - 1` and `after`, for
/// `time(after - 1) < t <= time(after)`: the pair its binary search picks.
/// A caller that finds the pair another way (a forward cursor over
/// ascending query times) gets the same bits.
[[nodiscard]] geo::LatLng InterpolateBetween(const TraceView& trace,
                                             std::size_t after,
                                             util::Timestamp t);

/// Non-owning view of a whole dataset: a list of trace views plus the dense
/// id -> name table (may be empty for anonymous/synthetic views).
class DatasetView {
 public:
  DatasetView() = default;
  DatasetView(std::vector<TraceView> traces, std::size_t user_count,
              std::span<const std::string> names)
      : traces_(std::move(traces)), user_count_(user_count), names_(names) {}

  /// View over an AoS dataset. O(TraceCount) setup, zero event copies.
  /// Implicit on purpose; the rvalue form is deleted (file comment).
  DatasetView(const Dataset& dataset);
  DatasetView(const Dataset&& dataset) = delete;

  /// All trace views, in dataset order.
  [[nodiscard]] const std::vector<TraceView>& traces() const noexcept {
    return traces_;
  }
  /// Trace `i` (no bounds check).
  [[nodiscard]] const TraceView& trace(std::size_t i) const {
    return traces_[i];
  }
  [[nodiscard]] std::size_t TraceCount() const noexcept {
    return traces_.size();
  }
  /// Number of users in the underlying id space (>= ids seen in traces).
  [[nodiscard]] std::size_t UserCount() const noexcept { return user_count_; }
  /// Total events across all traces. O(TraceCount).
  [[nodiscard]] std::size_t EventCount() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return traces_.empty(); }

  /// External name for a dense id ("user<N>" fallback, like Dataset).
  [[nodiscard]] std::string UserName(UserId id) const;
  [[nodiscard]] std::span<const std::string> names() const noexcept {
    return names_;
  }

  [[nodiscard]] geo::GeoBoundingBox BoundingBox() const;

  /// Materializes an owning Dataset (re-interns names in id order, copies
  /// every event).
  [[nodiscard]] Dataset Materialize() const;

 private:
  std::vector<TraceView> traces_;
  std::size_t user_count_ = 0;
  std::span<const std::string> names_;
};

/// Process-wide count of DatasetView::Materialize calls (full-dataset
/// copies; per-trace materialization is not counted). The scenario
/// engine's contract is that mmap-fed sources reach mechanisms and
/// evaluators without any full materialization — tests pin that by
/// sampling this counter around an engine run.
[[nodiscard]] std::size_t FullMaterializeCount() noexcept;

/// Process-wide count of TraceView::Materialize calls (per-trace copies:
/// one owning std::vector<Event> built from a view). The SoA-native
/// mechanism path (Mechanism::ApplyToStore with a columns kernel) performs
/// ZERO of these — kernels read the view's columns and write column
/// buffers; only the legacy adapters (default ApplyToTraceColumns,
/// EventStore::ToDataset) copy traces. test_scenario_engine pins that an
/// engine grid over an mmap'd `.mpc` source leaves this counter unchanged.
[[nodiscard]] std::size_t TraceCopyCount() noexcept;

}  // namespace mobipriv::model
