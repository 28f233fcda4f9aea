// The uniform evaluation interface of the scenario engine: one Evaluator
// scores one aspect (a utility metric or a privacy attack) of an
// (original, published) dataset pair, consuming non-owning DatasetViews so
// mmap-opened `.mpc` files and shard slices feed it without materializing
// an AoS dataset first.
//
// metrics/evaluators.h and attacks/evaluators.h implement this interface
// over the existing metric/attack kernels; the registry below turns spec
// strings ("coverage[cell=200m]", "reident", ...) into instances, exactly
// like mechanisms/registry.h does for mechanisms — a scenario grid is
// mechanism spec strings x evaluator spec strings. A PreparedEvaluator
// splits off the part that reads only the original, so the engine
// computes it once per (evaluator, seed) column instead of once per row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/bounding_box.h"
#include "geo/projection.h"
#include "model/views.h"
#include "util/params.h"
#include "util/spec.h"

namespace mobipriv::core {

/// One grid cell's evaluation input. The views alias storage owned by the
/// engine (an mmap, an event store or an AoS dataset) and must outlive the
/// Evaluate call; `frame` is the shared planar projection centred on the
/// original dataset, so attack geometry agrees across evaluators.
struct EvalInput {
  model::DatasetView original;
  model::DatasetView published;
  geo::LocalProjection frame;
  /// Scenario seed of this grid cell — evaluators with sampled workloads
  /// (range queries) derive their streams from it, so one seed pins the
  /// whole report.
  std::uint64_t seed = 0;
};

/// One scored number under a stable metric name ("coverage_jaccard").
struct MetricValue {
  std::string metric;
  double value = 0.0;
};

/// One resident shard of a shard-streamed evaluation (see TraceFold).
/// `original` aliases the currently mapped shard. `published` aliases the
/// stage's output for that shard, as core::ApplyStageToShard produced it:
/// its result store when the stage runs in-process, a mapped worker
/// result file when it runs under workers. All spans are valid only for
/// the duration of one AccumulateShard call. Trace order within a shard
/// is canonical-order restricted: shard-local index ascending == original
/// dataset order filtered to this shard's traces, and every trace of one
/// user lives in the same shard — so per-user passes (radius of
/// gyration) see exactly the trace sequence the whole-view path sees.
struct ShardSlice {
  /// Original traces of this shard, user ids rewritten to GLOBAL dense ids.
  std::span<const model::TraceView> original;
  /// Original dataset-order index of each trace (parallel to `original`).
  std::span<const std::size_t> canonical_index;
  /// Published traces, parallel to `original`. A size()==0 view means the
  /// mechanism suppressed the trace (whole-view assembly drops it). The
  /// span itself is empty in the slices an OriginalFold sees.
  std::span<const model::TraceView> published;
  /// Global user count (names table size) of the full dataset.
  std::size_t user_count = 0;
  /// Extents of the FULL original dataset, folded by the engine's
  /// read-only source scan before any fold runs: exactly what
  /// DatasetView::BoundingBox() over the whole original would return, and
  /// the min first-fix / max last-fix timestamp over non-empty original
  /// traces (t_min > t_max when there are none). There is no published
  /// extent: folds measure published geometry in the original's frame.
  geo::GeoBoundingBox original_bbox;
  util::Timestamp original_t_min = 0;
  util::Timestamp original_t_max = 0;
};

/// Streaming accumulator for one (mechanism output, evaluator, seed) grid
/// cell: the shard-streamed engine maps one shard at a time and calls
/// AccumulateShard once per shard in ascending shard order (the full
/// original's extents already folded into every slice), then Finalize once.
/// Contract: the returned metrics must be bit-identical to Evaluate()
/// over the whole views — folds replicate their evaluator's arithmetic,
/// not approximate it. Implementations are single-threaded (one fold per
/// grid cell). A prepared evaluator's cell fold (MakeScoreFold) reads only
/// the published side of its slices; its column's original side arrives
/// through the shared future it was built with.
class TraceFold {
 public:
  virtual ~TraceFold() = default;
  virtual void AccumulateShard(const ShardSlice& slice) = 0;
  [[nodiscard]] virtual std::vector<MetricValue> Finalize() = 0;
};

/// What a prepared evaluator derives from the ORIGINAL alone (reference
/// POIs, profiles, sampled queries and their counts, ...). The engine
/// builds one per (evaluator, seed) grid column and every row of the
/// column scores against it concurrently, so it is immutable once built.
class PreparedOriginal {
 public:
  virtual ~PreparedOriginal() = default;
};
using PreparedPtr = std::shared_ptr<const PreparedOriginal>;

/// A prepared side holding one value of type T, for evaluators whose
/// original side is a plain struct or vector.
template <typename T>
struct PreparedValue final : PreparedOriginal {
  explicit PreparedValue(T v) : value(std::move(v)) {}
  T value;
};

template <typename T>
[[nodiscard]] PreparedPtr MakePrepared(T value) {
  return std::make_shared<const PreparedValue<T>>(std::move(value));
}

/// The value MakePrepared<T> stored. A prepared side is only ever scored
/// by the evaluator that built it, so the type is known.
template <typename T>
[[nodiscard]] const T& PreparedAs(const PreparedOriginal& prepared) {
  return static_cast<const PreparedValue<T>&>(prepared).value;
}

/// Streamed counterpart of PreparedEvaluator::Prepare for one column: the
/// engine feeds it every shard's slice once, in ascending shard order,
/// with `ShardSlice::published` empty, then calls Finalize once. The
/// result must be what Prepare returns over the whole original, as far as
/// the evaluator's cell folds read it.
class OriginalFold {
 public:
  virtual ~OriginalFold() = default;
  virtual void AccumulateShard(const ShardSlice& slice) = 0;
  [[nodiscard]] virtual PreparedPtr Finalize() = 0;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Stable identifier, round-trippable through CreateEvaluator.
  [[nodiscard]] virtual std::string Name() const = 0;

  /// Scores the pair. Implementations must be stateless const calls (the
  /// engine invokes one instance from many DAG workers concurrently) and
  /// deterministic at any thread count.
  [[nodiscard]] virtual std::vector<MetricValue> Evaluate(
      const EvalInput& input) const = 0;

  /// Streaming counterpart of Evaluate for the shard-by-shard engine
  /// path. `seed` is the grid cell's scenario seed (what EvalInput::seed
  /// would carry). Returning nullptr (the default) declares the evaluator
  /// non-foldable: any grid row using it falls back to the whole-view
  /// path. Implementations must satisfy the TraceFold bit-identity
  /// contract.
  [[nodiscard]] virtual std::unique_ptr<TraceFold> MakeTraceFold(
      std::uint64_t seed) const {
    (void)seed;
    return nullptr;
  }
};

/// An evaluator whose original side depends only on the source, the
/// frame and the seed, split into Prepare (the original side) and Score
/// (one row against it). The engine prepares once per (evaluator, seed)
/// column and shares the result read-only with every row of the column:
/// a prepare node of the whole-view DAG, or one OriginalFold fed by the
/// shard stream. A throwing Prepare fails every cell of its column with
/// its own error text, exactly as a throwing Evaluate would. Evaluate and
/// MakeTraceFold run both halves for one cell, for callers outside the
/// engine; the engine recognises the split by this class.
class PreparedEvaluator : public Evaluator {
 public:
  /// Builds the column's original side from `input.original`,
  /// `input.frame` and `input.seed`; `input.published` is not read. Never
  /// returns nullptr.
  [[nodiscard]] virtual PreparedPtr Prepare(const EvalInput& input) const = 0;

  /// Scores one row against `prepared`, which Prepare (or the column's
  /// OriginalFold) built from the same original, frame and seed. Stateless
  /// and deterministic, like Evaluate.
  [[nodiscard]] virtual std::vector<MetricValue> Score(
      const PreparedOriginal& prepared, const EvalInput& input) const = 0;

  /// The streamed split, both or neither: the column's OriginalFold, and a
  /// cell fold that reads `prepared` (ready before its Finalize runs) for
  /// the original side. nullptr (the default) declares the evaluator
  /// non-foldable.
  [[nodiscard]] virtual std::unique_ptr<OriginalFold> MakeOriginalFold(
      std::uint64_t seed) const;
  [[nodiscard]] virtual std::unique_ptr<TraceFold> MakeScoreFold(
      std::shared_future<PreparedPtr> prepared, std::uint64_t seed) const;

  /// Score(Prepare(input), input).
  [[nodiscard]] std::vector<MetricValue> Evaluate(
      const EvalInput& input) const final;
  /// One cell fold that runs both halves on the same slices: the
  /// OriginalFold, then the score fold on its result.
  [[nodiscard]] std::unique_ptr<TraceFold> MakeTraceFold(
      std::uint64_t seed) const final;
};

using EvaluatorFactory =
    std::function<std::unique_ptr<Evaluator>(const util::Spec&)>;

/// Registers (or replaces) the factory for `base`. The library's
/// evaluators are pre-registered; downstream metrics/attacks hook in here
/// and then participate in scenario grids like any built-in.
void RegisterEvaluator(std::string base, EvaluatorFactory factory);

/// Instantiates an evaluator from its spec string. Throws util::SpecError
/// on malformed specs, unknown bases, unknown parameters or out-of-range
/// values.
[[nodiscard]] std::unique_ptr<Evaluator> CreateEvaluator(
    std::string_view spec);

/// Registered base names, sorted.
[[nodiscard]] std::vector<std::string> RegisteredEvaluatorBases();

/// The parameter table `base` parses (util/params.h): empty for a base
/// without parameters, an extension or an unknown base.
[[nodiscard]] std::vector<util::ParamInfo> EvaluatorParams(
    std::string_view base);

}  // namespace mobipriv::core
