// Columnar (SoA) event storage: the scan-friendly core of the data layer.
//
// A Dataset stores one std::vector<Event> per trace — friendly to per-trace
// mutation, hostile to whole-dataset scans (one allocation per trace,
// interleaved lat/lng/time, pointer-chasing per trace). EventStore holds the
// same information as three contiguous columns (lat, lng, time) plus a
// table of trace descriptors (user id + [begin, end) offset range), so
// column scans (bounding boxes, rasterization, histogramming) stream
// through memory and whole datasets move as three memcpys.
//
// EventStore is immutable-after-build by design: build it trace by trace
// (AppendTrace) or convert an existing Dataset (FromDataset), then hand out
// cheap TraceView / DatasetView spans. Mutating stages keep producing
// Datasets; EventStore is the substrate for ingestion, sharding and
// read-only kernels.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/dataset.h"
#include "model/views.h"

namespace mobipriv::model {

/// Growable SoA scratch columns — the output buffer of the allocation-free
/// mechanism path (Mechanism::ApplyToStore). A worker appends one or more
/// transformed traces' fixes to a buffer it reuses across traces, so the
/// per-trace cost is amortized-O(1) appends instead of a fresh
/// std::vector<Event> per trace; the engine then bulk-copies buffer slices
/// into a pre-sized EventStore. Plain columns, no user ids: trace
/// boundaries and ownership are tracked by the caller.
class TraceBuffer {
 public:
  /// Appends one fix.
  void Append(geo::LatLng p, util::Timestamp t) {
    lat_.push_back(p.lat);
    lng_.push_back(p.lng);
    time_.push_back(t);
  }

  /// Raw pointers to a freshly appended block of `n` fixes — the output
  /// form of the vectorized kernels (one resize + direct vector stores
  /// instead of three push_backs per fix). The pointers are valid until
  /// the next Append/Extend/Clear; the caller must write every row.
  struct Rows {
    double* lat = nullptr;
    double* lng = nullptr;
    util::Timestamp* time = nullptr;
  };
  [[nodiscard]] Rows Extend(std::size_t n) {
    const std::size_t at = time_.size();
    lat_.resize(at + n);
    lng_.resize(at + n);
    time_.resize(at + n);
    return Rows{lat_.data() + at, lng_.data() + at, time_.data() + at};
  }

  /// Fixes appended so far.
  [[nodiscard]] std::size_t size() const noexcept { return time_.size(); }
  [[nodiscard]] bool empty() const noexcept { return time_.empty(); }

  /// Drops the content, keeping the capacity (the reuse contract).
  void Clear() noexcept {
    lat_.clear();
    lng_.clear();
    time_.clear();
  }

  [[nodiscard]] std::span<const double> lat() const noexcept { return lat_; }
  [[nodiscard]] std::span<const double> lng() const noexcept { return lng_; }
  [[nodiscard]] std::span<const util::Timestamp> time() const noexcept {
    return time_;
  }

  /// The three columns, moved out: hands a finished buffer to
  /// EventStore::FromColumns without copying it.
  struct Columns {
    std::vector<double> lat;
    std::vector<double> lng;
    std::vector<util::Timestamp> time;
  };
  [[nodiscard]] Columns Release() && {
    return {std::move(lat_), std::move(lng_), std::move(time_)};
  }

  /// Owning Trace over the whole buffer content (used by the AoS adapter;
  /// the store path copies columns directly and never assembles Events).
  [[nodiscard]] Trace ToTrace(UserId user) const;

 private:
  std::vector<double> lat_;
  std::vector<double> lng_;
  std::vector<util::Timestamp> time_;
};

class EventStore {
 public:
  /// One trace's descriptor: owning user plus the [begin, end) offset
  /// range of its events in the columns. Public because the columnar file
  /// layer (model/columnar_file.h) exchanges whole descriptor tables with
  /// the store; everyone else should go through View()/TraceUser().
  struct TraceRange {
    UserId user = kInvalidUser;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  EventStore() = default;

  /// Converts an AoS dataset. O(EventCount) copies into columns.
  /// ToDataset() inverts it exactly (same names, ids, trace order, event
  /// bit patterns) — the basis of the columnar round-trip guarantee.
  [[nodiscard]] static EventStore FromDataset(const Dataset& dataset);

  /// Adopts pre-built columns and a descriptor table wholesale — the
  /// columnar file reader's entry point; no per-event copies beyond the
  /// moves. Requires columns of equal length, every range within bounds
  /// with begin <= end, user ids < names.size(), and unique names; throws
  /// std::invalid_argument otherwise (nothing is adopted on failure).
  [[nodiscard]] static EventStore FromColumns(
      std::vector<std::string> names, std::vector<TraceRange> traces,
      std::vector<double> lat, std::vector<double> lng,
      std::vector<util::Timestamp> time);

  /// Registers (or looks up) the dense id for an external user name.
  UserId InternUser(const std::string& name);

  /// Appends one trace's events (copied into the columns) under `user`.
  /// Returns the new trace's index.
  std::size_t AppendTrace(UserId user, const TraceView& events);

  /// Pre-sizes the columns (ingestion knows totals up front).
  void ReserveEvents(std::size_t events);
  void ReserveTraces(std::size_t traces);

  [[nodiscard]] std::size_t TraceCount() const noexcept {
    return traces_.size();
  }
  [[nodiscard]] std::size_t EventCount() const noexcept { return lat_.size(); }
  [[nodiscard]] std::size_t UserCount() const noexcept {
    return names_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return traces_.empty(); }

  /// User id of trace `trace` (dense, < UserCount()).
  [[nodiscard]] UserId TraceUser(std::size_t trace) const {
    return traces_[trace].user;
  }
  /// Event count of trace `trace`.
  [[nodiscard]] std::size_t TraceSize(std::size_t trace) const {
    return traces_[trace].end - traces_[trace].begin;
  }

  /// The full descriptor table (trace i's user + column offset range).
  [[nodiscard]] std::span<const TraceRange> trace_table() const noexcept {
    return traces_;
  }

  /// Raw columns (contiguous; event i of trace t is at offset begin + i).
  [[nodiscard]] std::span<const double> lat() const noexcept { return lat_; }
  [[nodiscard]] std::span<const double> lng() const noexcept { return lng_; }
  [[nodiscard]] std::span<const util::Timestamp> time() const noexcept {
    return time_;
  }

  [[nodiscard]] std::string UserName(UserId id) const;
  [[nodiscard]] std::span<const std::string> names() const noexcept {
    return names_;
  }

  /// Zero-copy view of one trace's columns.
  [[nodiscard]] TraceView View(std::size_t trace) const;

  /// Zero-copy view of the whole store. The store must outlive the view.
  [[nodiscard]] DatasetView View() const;

  /// Materializes an AoS dataset (users re-interned in id order, traces in
  /// store order) — the exact inverse of FromDataset.
  [[nodiscard]] Dataset ToDataset() const;

 private:
  std::vector<double> lat_;
  std::vector<double> lng_;
  std::vector<util::Timestamp> time_;
  std::vector<TraceRange> traces_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, UserId> ids_;
};

}  // namespace mobipriv::model
