// Sharded datasets: the unit of horizontal scale-out.
//
// A ShardedDataset partitions a dataset's *users* across N shards with a
// stable assignment (FNV-1a of the external user name, modulo shard count),
// so every trace of one user — across files, days and re-ingestions — lands
// in the same shard. Shard-local user ids are dense per shard; the global
// name table is retained so shards merge back under the original ids.
//
// Contracts:
//   * Partition is pure bookkeeping: Partition(d, k).Merge() == d exactly,
//     for any k >= 1 (Merge replays the recorded original trace order).
//   * The assignment depends only on (user name, shard count) — never on
//     worker count, ingestion chunking or trace order — so sharded
//     ingestion is deterministic by construction.
//
// Shard-wise mechanism runs (TransformSharded below, as used by
// `anonymize_csv --shards`) process each shard independently; this is the
// in-process form of the multi-process / NUMA sharding the roadmap
// targets — the shard boundary is already the process boundary, one
// serialization step away.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv::model {

class ShardedDataset {
 public:
  ShardedDataset() = default;
  explicit ShardedDataset(std::size_t shard_count);

  /// Stable shard assignment: FNV-1a 64-bit hash of the user name modulo
  /// `shard_count`. Pure function of its arguments (platform independent).
  [[nodiscard]] static std::size_t ShardOfUser(std::string_view user_name,
                                               std::size_t shard_count);

  /// Partitions `dataset` by user. Trace order within each shard follows
  /// the input's trace order; the original global position of every trace
  /// is recorded so Merge() can reproduce `dataset` exactly.
  [[nodiscard]] static ShardedDataset Partition(const Dataset& dataset,
                                                std::size_t shard_count);

  /// Inverse of Partition: byte-identical to the partitioned dataset.
  /// For sharded datasets whose shards were rebuilt (e.g. by a shard-wise
  /// mechanism run) the recorded order no longer applies; traces then
  /// concatenate in (shard, local index) order — still deterministic.
  [[nodiscard]] Dataset Merge() const;

  /// Empty sharded dataset with the same shard count and global name table
  /// (the shape shard-wise transforms write their outputs into).
  [[nodiscard]] ShardedDataset EmptyLike() const;

  /// What one SaveShards call actually touched. Unchanged shards are
  /// detected by content fingerprint (ColumnarFileMatches) and skipped —
  /// an incremental run that appended to one shard republishes one file,
  /// not the whole directory.
  struct SaveStats {
    std::size_t shards_written = 0;
    std::size_t shards_skipped = 0;  ///< fingerprint matched the existing file
  };

  /// Persists the partition: one columnar file per shard
  /// (`shard-00000.mpc`, ... — see docs/FORMAT.md) plus `manifest.mpm`
  /// (shard count, global name table, and — when still valid — the
  /// original trace order so OpenShards().Merge() reproduces the
  /// partitioned dataset exactly). Shards whose on-disk content already
  /// matches are left untouched (see SaveStats). Creates `dir` if
  /// missing; throws model::IoError on any filesystem failure.
  void SaveShards(const std::string& dir, SaveStats* stats = nullptr) const;

  /// Opens a directory written by SaveShards. Restores shard count,
  /// global names, every shard's contents and (when recorded) the
  /// original trace order: OpenShards(Save(sd)).Merge() == sd.Merge().
  /// Throws model::IoError on corruption (bad magic/version/checksum,
  /// missing shard files, inconsistent origin table).
  [[nodiscard]] static ShardedDataset OpenShards(const std::string& dir);

  /// As OpenShards, but loads only the shard indices in `only` — the
  /// per-process worker entry point: each worker opens just the shards it
  /// owns; the rest stay empty. The recorded original order is dropped
  /// (Merge concatenates the loaded shards in shard order). Indices must
  /// be < the saved shard count.
  [[nodiscard]] static ShardedDataset OpenShards(
      const std::string& dir, const std::vector<std::size_t>& only);

  /// What OpenShards does with a shard file that fails to load (missing,
  /// truncated, checksum mismatch).
  enum class OpenPolicy {
    /// Default: the first corrupt shard aborts the whole open (IoError).
    kFailFast,
    /// Graceful degradation: corrupt shards are quarantined — recorded in
    /// the OpenReport, left empty in the result — and every healthy shard
    /// still loads. The recorded original trace order is dropped whenever
    /// anything was skipped (Merge falls back to shard-order concat).
    kSkipCorrupt,
  };

  /// Quarantine record of one OpenShards call (parallel vectors, shard
  /// index ascending — deterministic at any worker count).
  struct OpenReport {
    std::vector<std::size_t> skipped_shards;
    std::vector<std::string> errors;  ///< IoError text per skipped shard
    [[nodiscard]] bool ok() const noexcept { return skipped_shards.empty(); }
  };

  /// Policy-explicit open. With kFailFast this is OpenShards(dir); with
  /// kSkipCorrupt it survives corrupt shard files and records them in
  /// `report` (optional). The manifest itself must always be healthy —
  /// without it there is no shard count or name table to degrade onto.
  [[nodiscard]] static ShardedDataset OpenShards(const std::string& dir,
                                                OpenPolicy policy,
                                                OpenReport* report = nullptr);

  [[nodiscard]] std::size_t ShardCount() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Dataset& shard(std::size_t i) const {
    return shards_[i];
  }
  /// Replacing a shard's contents invalidates the recorded original order
  /// (Merge falls back to shard-order concatenation).
  [[nodiscard]] Dataset& mutable_shard(std::size_t i) {
    origin_.clear();
    return shards_[i];
  }

  [[nodiscard]] std::size_t TraceCount() const noexcept;
  [[nodiscard]] std::size_t EventCount() const noexcept;
  /// Number of users in the global name table.
  [[nodiscard]] std::size_t UserCount() const noexcept {
    return global_names_.size();
  }
  [[nodiscard]] const std::vector<std::string>& global_names() const noexcept {
    return global_names_;
  }

 private:
  // Shared loader behind every OpenShards overload (nullptr = all shards).
  [[nodiscard]] static ShardedDataset OpenShardsImpl(
      const std::string& dir, const std::vector<std::size_t>* only,
      OpenPolicy policy, OpenReport* report);

  std::vector<Dataset> shards_;
  // Original global trace index of shard s's local trace i (recorded by
  // Partition, cleared by mutable_shard). Valid only while every shard's
  // trace count matches the record.
  std::vector<std::vector<std::size_t>> origin_;
  std::vector<std::string> global_names_;  // global dense id -> name
};

/// Decoded `manifest.mpm` metadata of a shard directory: everything a
/// per-process worker (or the scenario engine's mmap-fed shard source)
/// needs to know before touching any shard file.
struct ShardManifest {
  std::size_t shard_count = 0;
  /// Global dense id -> external user name (the id space shards merge
  /// back into).
  std::vector<std::string> global_names;
  /// Original global trace index of shard s's local trace i, when the
  /// save recorded it (empty otherwise). Validated as a permutation of
  /// [0, total); per-shard counts are validated against shard contents
  /// only when the shards themselves load.
  std::vector<std::vector<std::size_t>> origin;

  [[nodiscard]] bool has_origin() const noexcept { return !origin.empty(); }
};

/// Reads and validates `dir`/manifest.mpm without opening any shard file.
/// Throws IoError on corruption (bad magic/version/checksum, non-permutation
/// origin table).
[[nodiscard]] ShardManifest ReadShardManifest(const std::string& dir);

/// Writes `dir`/manifest.mpm (crash-safe: the manifest is the directory's
/// commit marker, published atomically and last). `origin` — one run of
/// original global trace indices per shard — may be empty to record no
/// origin order, in which case OpenShards().Merge() concatenates in
/// (shard, local index) order. Every SaveShards-directory producer
/// (SaveShards itself, manifest merge, the streaming world generator)
/// funnels through this one encoder. Throws IoError on failure.
void WriteShardManifest(const std::string& dir, std::size_t shard_count,
                        std::span<const std::string> global_names,
                        std::span<const std::vector<std::size_t>> origin = {});

/// Builds `dir`/manifest.mpm from shard files written independently (e.g.
/// one ColumnarAppender per shard): opens `shard-00000.mpc` ..
/// `shard-<n-1>.mpc`, unions their name tables into a global table in
/// (shard, local id) order — first sighting wins for names present in
/// several shards — and commits a manifest without an origin order, making
/// the directory a valid OpenShards target. Only shard metadata is read
/// (mapped open; column payloads are never touched). Throws IoError if any
/// shard file is missing or corrupt.
void MergeShardManifests(const std::string& dir, std::size_t shard_count);

/// Path of shard `s`'s columnar file inside a SaveShards directory
/// ("<dir>/shard-00005.mpc") — the file a worker owning shard `s` opens
/// (model::MapColumnar for the zero-copy path).
[[nodiscard]] std::string ShardDataPath(const std::string& dir,
                                        std::size_t shard);

/// The shard fan-out scaffold every shard-wise runner shares (so the
/// determinism scheme lives in exactly one place): one master draw from
/// `rng`, per-shard streams seeded DeriveStreamSeed(master, shard, 0),
/// shards transformed concurrently by `fn(shard_dataset, shard_rng, s)`,
/// outputs assembled in shard order into an EmptyLike result. The caller's
/// rng advances by exactly one draw; the result is byte-identical at any
/// worker count.
template <typename Fn>
[[nodiscard]] ShardedDataset TransformSharded(const ShardedDataset& input,
                                              util::Rng& rng, Fn&& fn) {
  const std::size_t n = input.ShardCount();
  const std::uint64_t master = rng.NextU64();
  std::vector<Dataset> outputs(n);
  util::ParallelForEach(n, [&](std::size_t s) {
    util::Rng shard_rng(
        util::DeriveStreamSeed(master, static_cast<std::uint64_t>(s), 0));
    outputs[s] = fn(input.shard(s), shard_rng, s);
  });
  ShardedDataset result = input.EmptyLike();
  for (std::size_t s = 0; s < n; ++s) {
    result.mutable_shard(s) = std::move(outputs[s]);
  }
  return result;
}

}  // namespace mobipriv::model
