// Common interface of all publication mechanisms (the paper's solution and
// every baseline). A mechanism maps a raw dataset to a sanitized dataset;
// randomness is supplied by the caller so runs are reproducible.
//
// One implementation per mechanism: ApplyToStore(DatasetView) takes any
// storage layout (AoS, EventStore, mmap'd .mpc) and returns the columnar
// EventStore the scenario engine runs, caches and evaluates — with no
// per-trace std::vector<Event> and no name re-interning on the way out.
// Apply(Dataset) is the AoS adapter over it, so for the same input and
// seed both entry points produce the same bytes and advance `rng` alike.
// A chain of mechanisms is not a Mechanism: the scenario engine plans it
// stage by stage (core/engine.h). Per-trace mechanisms also expose one
// trace of their batch scheme (ApplyToIndexedTrace), which the engine's
// shard body (core/shard_stage.h) alone calls, in-process or in a worker.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/dataset.h"
#include "model/event_store.h"
#include "model/views.h"
#include "util/rng.h"

namespace mobipriv::mech {

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Stable identifier used in benchmark tables ("speed_smoothing",
  /// "geo_ind[eps=0.01]", ...).
  [[nodiscard]] virtual std::string Name() const = 0;

  /// Produces the sanitized dataset as an EventStore (contiguous
  /// lat/lng/time columns + trace table). Implementations must not mutate
  /// the input and must leave `rng` in a valid (advanced) state.
  [[nodiscard]] virtual model::EventStore ApplyToStore(
      const model::DatasetView& input, util::Rng& rng) const = 0;

  /// AoS adapter: ApplyToStore(input, rng).ToDataset().
  /// Virtual only so instrumentation wrappers can intercept it; mechanisms
  /// implement ApplyToStore and never override this.
  [[nodiscard]] virtual model::Dataset Apply(const model::Dataset& input,
                                             util::Rng& rng) const;
};

/// Helper base for mechanisms that transform each trace independently.
class PerTraceMechanism : public Mechanism {
 public:
  /// The allocation-free path: two-pass ParallelFor (transform each trace
  /// into a per-chunk column buffer recording output sizes, prefix-sum the
  /// offsets, bulk-copy every chunk into its pre-sized slot). Zero
  /// per-trace vector<Event> allocations, zero per-trace view
  /// materializations, and names carried through without re-interning.
  [[nodiscard]] model::EventStore ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const final;

  /// One trace of the batch determinism scheme, exposed for the
  /// out-of-core shard body (core::ApplyStageToShard): transforms `trace`
  /// with the stream Rng that ApplyToStore would use for dataset-order
  /// index `index` under master draw `master`
  /// (DeriveStreamSeed(master, user, index)), appending the output fixes
  /// to `out`. Fed one shard at a time with each trace's ORIGINAL dataset
  /// index, it reproduces the whole-view ApplyToStore output bit for bit,
  /// without the input ever being resident at once.
  void ApplyToIndexedTrace(const model::TraceView& trace, std::uint64_t master,
                           std::uint64_t index, model::TraceBuffer& out) const {
    util::Rng trace_rng(util::DeriveStreamSeed(
        master, static_cast<std::uint64_t>(trace.user()), index));
    ApplyToTraceColumns(trace, out, trace_rng);
  }

 protected:
  /// SoA per-trace kernel: transforms `trace` and APPENDS the output fixes
  /// to `out` (which may already hold earlier traces' output — kernels must
  /// only append, never clear). Appending nothing suppresses the trace.
  virtual void ApplyToTraceColumns(const model::TraceView& trace,
                                   model::TraceBuffer& out,
                                   util::Rng& rng) const = 0;
};

}  // namespace mobipriv::mech
