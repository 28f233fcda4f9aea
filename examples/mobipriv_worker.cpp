// mobipriv_worker: the child-process side of fault-tolerant shard
// execution (core/shard_exec.h). Not a user-facing tool — the
// supervisor fork/execs it with requests on stdin and replies on
// stdout, speaking the length-prefixed protocol of
// core/worker_protocol.h.
//
// Per 'A' request the worker applies one per-trace mechanism stage to
// its owned shards of a shard directory with core::ApplyStageToShard
// (core/shard_stage.h, the body the engine's in-process placement runs
// too), publishing one `.mpc` result file per shard through the atomic
// WriteColumnar path (a SIGKILL mid-write never leaves a torn file under
// the final name). Trace RNG streams are keyed by (stage master draw,
// GLOBAL user id, canonical position), both read from the directory by
// core::ProbeShardStream — the engine's one shard-directory reader — so
// the supervisor's merged report is byte-identical to the in-process run
// regardless of how shards were partitioned.
//
// The worker heartbeats on the reply pipe while applying; a worker
// whose supervisor died sees the heartbeat write fail (SIGPIPE is
// ignored) and exits nonzero with a one-line message instead of
// computing into a dead pipe. Worker-side fault points (worker.apply,
// worker.result.write) arm through the inherited MOBIPRIV_FAULTS
// environment, keyed "<stage prefix name>#<attempt>".

#include <cerrno>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/scenario.h"
#include "core/shard_stage.h"
#include "core/worker_protocol.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "util/cli.h"
#include "util/fault.h"
#include "util/rng.h"

namespace {

namespace core = mobipriv::core;
namespace wp = mobipriv::core::wp;
namespace model = mobipriv::model;
namespace mech = mobipriv::mech;
namespace util = mobipriv::util;
namespace fault = mobipriv::util::fault;

/// Reply-pipe write failure: the supervisor is gone. Broken-pipe exit
/// (satellite contract: one line on stderr, nonzero exit).
[[noreturn]] void DiePipe() {
  std::cerr << "mobipriv_worker: error: writing to supervisor pipe failed "
               "(broken pipe?)\n";
  std::exit(3);
}

void Heartbeat() {
  if (!wp::WriteFrame(1, wp::kFrameHeartbeat, {})) DiePipe();
}

/// The probe result is cached per directory: every request of a run
/// names the same shard dir, and the plan is what carries the
/// global-user / original-index tables the RNG contract needs.
const core::ShardStreamPlan& PlanFor(const std::string& dir) {
  static std::optional<std::pair<std::string, core::ShardStreamPlan>> cache;
  if (!cache || cache->first != dir) {
    std::optional<core::ShardStreamPlan> plan = core::ProbeShardStream(dir);
    if (!plan) {
      throw model::IoError("shard directory not streamable: " + dir);
    }
    cache.emplace(dir, std::move(*plan));
  }
  return cache->second;
}

void ProcessRequest(const wp::WorkerRequest& request) {
  const core::ShardStreamPlan& plan = PlanFor(request.dir);
  const std::unique_ptr<mech::Mechanism> mechanism =
      mech::CreateMechanism(request.spec_text);
  const auto* kernel =
      dynamic_cast<const mech::PerTraceMechanism*>(mechanism.get());
  if (kernel == nullptr) {
    throw std::runtime_error("mechanism is not per-trace: " +
                             request.spec_text);
  }
  // The exact master draw the engine's ApplyToStore would make for this
  // stage — per-trace streams then depend only on (master, global user,
  // original index), never on the shard partition.
  const std::uint64_t master =
      core::StageStream(request.seed, request.prefix_name).NextU64();

  const std::string key =
      request.prefix_name + "#" + std::to_string(request.attempt);
  for (const std::size_t shard : request.shards) {
    if (shard >= plan.shard_count) {
      throw std::runtime_error("shard index out of range: " +
                               std::to_string(shard));
    }
    if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kWorkerApply, key)) {
      throw std::runtime_error(
          "injected fault (" + std::string(fault::points::kWorkerApply) +
          "): " + key);
    }
    Heartbeat();
    // The library's shard body, the same one the engine's in-process
    // placement runs; it heartbeats every 64 traces while applying.
    const model::MappedColumnar mapped =
        model::MapColumnar(model::ShardDataPath(plan.dir, shard));
    const model::EventStore result = core::ApplyStageToShard(
        *kernel, master, plan, shard, mapped, Heartbeat);
    if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kWorkerResultWrite, key)) {
      throw model::IoError(
          "injected fault (" +
          std::string(fault::points::kWorkerResultWrite) + "): " + key);
    }
    model::WriteColumnar(
        result, wp::StageShardPath(request.out_dir, request.stem, shard));
    Heartbeat();
  }
}

}  // namespace

int main() {
  util::IgnoreSigpipe();
  wp::FrameReader reader;
  char buf[4096];
  char type = 0;
  std::string payload;
  while (true) {
    while (reader.Next(&type, &payload)) {
      if (reader.corrupt()) return 2;
      if (type == wp::kFrameQuit) return 0;
      if (type != wp::kFrameApply) {
        std::cerr << "mobipriv_worker: error: unexpected frame type\n";
        return 2;
      }
      wp::WorkerRequest request;
      std::string error;
      if (!wp::DecodeRequest(payload, &request, &error)) {
        if (!wp::WriteFrame(1, wp::kFrameFail, "bad request: " + error)) {
          DiePipe();
        }
        continue;
      }
      try {
        ProcessRequest(request);
        if (!wp::WriteFrame(1, wp::kFrameOk, {})) DiePipe();
      } catch (const std::exception& e) {
        if (!wp::WriteFrame(1, wp::kFrameFail, e.what())) DiePipe();
      }
    }
    if (reader.corrupt()) return 2;
#if defined(__unix__) || defined(__APPLE__)
    const ::ssize_t n = ::read(0, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 0;  // supervisor closed the request pipe: done
    reader.Feed(buf, static_cast<std::size_t>(n));
#else
    return 2;
#endif
  }
}
