#include "core/shard_stage.h"

#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mobipriv::core {

model::EventStore ApplyStageToShard(const mech::PerTraceMechanism& stage,
                                    std::uint64_t master,
                                    const ShardStreamPlan& plan,
                                    std::size_t shard,
                                    const model::MappedColumnar& mapped,
                                    const std::function<void()>& progress) {
  const std::vector<model::TraceView> traces =
      GlobalShardViews(plan, shard, mapped);
  model::TraceBuffer buffer;
  std::vector<model::EventStore::TraceRange> ranges(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::size_t begin = buffer.size();
    stage.ApplyToIndexedTrace(traces[i], master, plan.origin[shard][i],
                              buffer);
    ranges[i] = {mapped.TraceUser(i), begin, buffer.size()};
    if (progress && (i & 63u) == 63u) progress();
  }
  const std::span<const std::string> names = mapped.names();
  model::TraceBuffer::Columns columns = std::move(buffer).Release();
  return model::EventStore::FromColumns(
      std::vector<std::string>(names.begin(), names.end()), std::move(ranges),
      std::move(columns.lat), std::move(columns.lng), std::move(columns.time));
}

}  // namespace mobipriv::core
