#include "mechanisms/downsampling.h"

#include <cassert>

#include "util/simd.h"

namespace mobipriv::mech {

Downsampling::Downsampling(DownsamplingConfig config) : Configured(config) {
  assert(config_.min_interval_s > 0);
}

void Downsampling::ApplyToTraceColumns(const model::TraceView& trace,
                                       model::TraceBuffer& out,
                                       util::Rng& rng) const {
  (void)rng;
  // `out` may already hold earlier traces; track this trace's last kept
  // timestamp locally instead of peeking at the buffer tail.
  const std::size_t n = trace.size();
  const util::Timestamp dt = config_.min_interval_s;
  bool any = false;
  util::Timestamp last = 0;
  std::size_t i = 0;
  while (i < n) {
    // Fast path for dense keep runs (the common case when the sampling
    // interval already exceeds dt): when all four upcoming gaps meet the
    // interval, the greedy scan keeps the whole block — emit it with one
    // Extend + vector coordinate copy instead of four branchy Appends.
    // The fallthrough step below is the untouched greedy rule, so the
    // kept set is identical to the pre-vectorization scan.
    if (any && i + util::kSimdWidth <= n) {
      const util::Timestamp t0 = trace.time(i);
      const util::Timestamp t1 = trace.time(i + 1);
      const util::Timestamp t2 = trace.time(i + 2);
      const util::Timestamp t3 = trace.time(i + 3);
      if (t0 - last >= dt && t1 - t0 >= dt && t2 - t1 >= dt &&
          t3 - t2 >= dt) {
        const auto rows = out.Extend(util::kSimdWidth);
        util::F64x4::Set(trace.lat(i), trace.lat(i + 1), trace.lat(i + 2),
                         trace.lat(i + 3))
            .Store(rows.lat);
        util::F64x4::Set(trace.lng(i), trace.lng(i + 1), trace.lng(i + 2),
                         trace.lng(i + 3))
            .Store(rows.lng);
        rows.time[0] = t0;
        rows.time[1] = t1;
        rows.time[2] = t2;
        rows.time[3] = t3;
        last = t3;
        i += util::kSimdWidth;
        continue;
      }
    }
    const util::Timestamp t = trace.time(i);
    if (!any || t - last >= dt) {
      out.Append(trace.position(i), t);
      any = true;
      last = t;
    }
    ++i;
  }
}

}  // namespace mobipriv::mech
