// The per-shard body of a shard-streamed mechanism stage: the one place a
// per-trace stage is applied to a shard of a shard directory. Both
// placements of the engine's streamed merge run it, in-process
// (core/engine.cpp) and in `mobipriv_worker` processes
// (core/shard_exec.h), so a placement decides only WHERE it runs.
//
// Trace i of shard s draws from DeriveStreamSeed(master, global user,
// plan.origin[s][i]), the stream PerTraceMechanism::ApplyToStore gives
// that trace in the bound source's canonical view. The shard results of
// any partition, interleaved by plan.origin with empty ranges dropped,
// are therefore the whole-view output bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/scenario.h"
#include "mechanisms/mechanism.h"
#include "model/columnar_file.h"
#include "model/event_store.h"

namespace mobipriv::core {

/// Applies `stage` under master draw `master` to shard `shard` of `plan`.
/// `mapped` is the caller's mapping of model::ShardDataPath(plan.dir,
/// shard); the body maps nothing itself. Returns one trace range per
/// input trace in shard order (an empty range is a suppressed trace),
/// under SHARD-LOCAL user ids and the shard's own name table: the bytes a
/// worker writes as its result file. `progress`, when set, is called
/// after every 64th trace (the worker's heartbeat). Throws model::IoError
/// when the shard's trace count disagrees with the plan; exceptions of
/// the stage's kernel propagate.
[[nodiscard]] model::EventStore ApplyStageToShard(
    const mech::PerTraceMechanism& stage, std::uint64_t master,
    const ShardStreamPlan& plan, std::size_t shard,
    const model::MappedColumnar& mapped,
    const std::function<void()>& progress = {});

}  // namespace mobipriv::core
