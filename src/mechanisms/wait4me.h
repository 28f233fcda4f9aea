// Wait For Me baseline (Abul, Bonchi, Nanni [3]): (k, delta)-anonymity for
// moving-object databases. Every published trajectory must, at every
// instant, travel within a cylinder of diameter delta together with at
// least k-1 other trajectories.
//
// This is a faithful reimplementation of the published pipeline shape:
//   1. temporal alignment — all traces are resampled onto a common time
//      grid over their overlapping span;
//   2. greedy clustering — pick an unassigned pivot, attach its k-1 nearest
//      trajectories under synchronized Euclidean distance; clusters that
//      cannot reach size k are suppressed ("trash" in the original paper —
//      the source of its poor utility on sparse real-life data, which our
//      bench E3/E7 rows reproduce);
//   3. space translation — within each cluster and at each time step, any
//      point farther than delta/2 from the cluster centroid is pulled onto
//      the delta/2 disc boundary.
#pragma once

#include "mechanisms/mechanism.h"
#include "util/params.h"

namespace mobipriv::mech {

struct Wait4MeConfig {
  std::size_t k = 4;           ///< anonymity-set size
  double delta_m = 500.0;      ///< cylinder diameter
  util::Timestamp grid_step_s = 60;  ///< temporal alignment step
  /// Traces whose time span overlaps the dataset's common span by less than
  /// this fraction are suppressed up front (cannot be aligned).
  double min_overlap_fraction = 0.5;
};

inline constexpr util::ParamTable kWait4MeParams{
    "wait4me",
    util::Param{"k", &Wait4MeConfig::k, "", util::AtLeast(2)}.Always(),
    util::Param{"delta", &Wait4MeConfig::delta_m, "m", util::kPositive}
        .Always(),
    util::Param{"grid", &Wait4MeConfig::grid_step_s, "s", util::kPositive},
    util::Param{"overlap", &Wait4MeConfig::min_overlap_fraction, "",
                util::kUnitInterval}};

class Wait4Me final : public util::Configured<Mechanism, kWait4MeParams> {
 public:
  explicit Wait4Me(Wait4MeConfig config = {});

  /// Alignment, clustering and translation build their working sets
  /// (aligned planar tracks) straight from the view's columns — no
  /// full-dataset materialization for mmap'd sources. Suppressed traces
  /// are simply absent from the output, so the original paper's headline
  /// utility cost is 1 - output traces / input traces.
  [[nodiscard]] model::EventStore ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const override;
};

}  // namespace mobipriv::mech
