// Sharded datasets: the unit of horizontal scale-out, and the writer of
// shard directories.
//
// A ShardedDataset partitions a dataset's *users* across N shards with a
// stable assignment (FNV-1a of the external user name, modulo shard count),
// so every trace of one user — across files, days and re-ingestions — lands
// in the same shard. Shard-local user ids are dense per shard; the global
// name table and every trace's original position are retained, and
// SaveShards persists both in the directory's manifest.
//
// Contracts:
//   * Partition is pure bookkeeping: binding SaveShards(Partition(d, k))
//     through the scenario engine (core::BoundSource::Bind) yields a view
//     equal to d exactly, for any k >= 1.
//   * The assignment depends only on (user name, shard count) — never on
//     worker count, ingestion chunking or trace order — so sharded
//     ingestion is deterministic by construction.
//
// This file writes shard directories; it does not read them back. The one
// reader is core/scenario.cpp's shard-directory bind, which
// core::BoundSource::Bind, core::ProbeShardStream and mobipriv_worker all
// go through.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/dataset.h"

namespace mobipriv::model {

class ShardedDataset {
 public:
  /// Stable shard assignment: FNV-1a 64-bit hash of the user name modulo
  /// `shard_count`. Pure function of its arguments (platform independent).
  [[nodiscard]] static std::size_t ShardOfUser(std::string_view user_name,
                                               std::size_t shard_count);

  /// Partitions `dataset` by user. Trace order within each shard follows
  /// the input's trace order; the original global position of every trace
  /// is recorded so a SaveShards directory binds back to `dataset` exactly.
  [[nodiscard]] static ShardedDataset Partition(const Dataset& dataset,
                                                std::size_t shard_count);

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
  /// (shard count, global name table and the original trace order, so the
  /// engine's bind of the directory reproduces the partitioned dataset
  /// exactly). Shards whose on-disk content already matches are left
  /// untouched (see SaveStats). Creates `dir` if missing; throws
  /// model::IoError on any filesystem failure.
  void SaveShards(const std::string& dir, SaveStats* stats = nullptr) const;

  [[nodiscard]] std::size_t ShardCount() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Dataset& shard(std::size_t i) const {
    return shards_[i];
  }

 private:
  explicit ShardedDataset(std::size_t shard_count);

  std::vector<Dataset> shards_;
  // Original global trace index of shard s's local trace i.
  std::vector<std::vector<std::size_t>> origin_;
  std::vector<std::string> global_names_;  // global dense id -> name
};

/// Decoded `manifest.mpm` metadata of a shard directory: everything the
/// shard-directory reader needs to know before touching any shard file.
struct ShardManifest {
  std::size_t shard_count = 0;
  /// Global dense id -> external user name (the id space shards merge
  /// back into).
  std::vector<std::string> global_names;
  /// Original global trace index of shard s's local trace i, when the
  /// save recorded it (empty otherwise). Validated as a permutation of
  /// [0, total); per-shard counts are validated against the shard files
  /// by the reader that maps them.
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
/// origin order, in which case readers take (shard, local index) order as
/// the canonical trace order. Every SaveShards-directory producer
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
/// the directory a valid scenario source. Only shard metadata is read
/// (mapped open; column payloads are never touched). Throws IoError if any
/// shard file is missing or corrupt.
void MergeShardManifests(const std::string& dir, std::size_t shard_count);

/// Path of shard `s`'s columnar file inside a SaveShards directory
/// ("<dir>/shard-00005.mpc") — the file the reader (and a worker owning
/// shard `s`) maps with model::MapColumnar.
[[nodiscard]] std::string ShardDataPath(const std::string& dir,
                                        std::size_t shard);

}  // namespace mobipriv::model
