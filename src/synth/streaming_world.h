// Out-of-core world generation: simulates a population directly into a
// SaveShards directory without ever holding the dataset in memory.
//
// SyntheticWorld materializes every trace (plus ground truth) before
// anything is written — fine at 10^3 agents, hopeless at 10^6, where the
// dataset alone is gigabytes. GenerateShardedWorld streams instead: the
// road network and POI universe are built once, then agents are simulated
// one at a time and each finished trace is appended to the agent's home
// shard through a model::ColumnarAppender. Peak memory is the static world
// plus the per-shard chunk buffers plus one agent's day in flight —
// independent of the agent count.
//
// Sharding and ordering contracts:
//   * Home shard = model::ShardedDataset::ShardOfUser(name, shard_count) —
//     the same stable hash Partition uses, so every trace of one agent
//     lands in one shard and the layout passes core::ProbeShardStream.
//   * Agent names ("agent0".."agent<N-1>") are pre-interned into their
//     home shards in global order, so shard-local user ids match what
//     Partition of the equivalent in-memory dataset would assign.
//   * The manifest records origin = global generation index of every
//     trace (strictly ascending within each shard), so the engine's bind
//     of the directory (core::BoundSource::Bind, and the shard-streamed
//     executor through core::ProbeShardStream) reproduces the generation
//     order exactly.
//
// Determinism: per-agent streams are derived with util::DeriveStreamSeed
// from one master draw, so an agent's trajectory depends only on
// (seed, agent index) — never on batch boundaries or flush chunking — and
// the shard files are byte-identical at every flush_chunk_events value
// (the ColumnarAppender bitwise contract). Note this scheme intentionally
// differs from SyntheticWorld's sequential rng.Split() discipline, so the
// two generators do NOT produce byte-identical worlds for the same seed;
// each is internally deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "synth/population.h"

namespace mobipriv::synth {

struct StreamingWorldConfig {
  /// Population sizing and physics: identical knobs to SyntheticWorld
  /// (road/pois/schedule/simulator/origin/start_day reused verbatim).
  PopulationConfig population;
  /// Shard fan-out of the output directory. Clamped to >= 1.
  std::size_t shard_count = 8;
  /// Events buffered per shard column before spilling (the
  /// ColumnarAppender memory knob). Purely a resource setting: output
  /// bytes are identical at any value. 0 = appender default.
  std::size_t flush_chunk_events = 0;
};

/// What one generation run produced (and wrote).
struct StreamingWorldStats {
  std::size_t agents = 0;
  std::size_t traces = 0;
  std::size_t events = 0;
  std::size_t shards = 0;
  std::uint64_t bytes_written = 0;  ///< total size of the published files
};

/// Generates the world described by `config` straight into `dir` as a
/// SaveShards-compatible directory (shard-*.mpc + manifest.mpm, manifest
/// committed last). Creates `dir` if missing. Throws model::IoError on any
/// filesystem failure; on throw no manifest is published, so the directory
/// is never observable half-written.
StreamingWorldStats GenerateShardedWorld(const StreamingWorldConfig& config,
                                         const std::string& dir);

}  // namespace mobipriv::synth
