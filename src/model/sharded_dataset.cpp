#include "model/sharded_dataset.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "model/atomic_file.h"
#include "model/columnar_append.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace mobipriv::model {

namespace {

namespace fault = util::fault;

constexpr std::size_t kManifestHeaderSize = 48;
constexpr std::uint32_t kManifestFlagHasOrigin = 1u;
// Backstop against a corrupt shard count driving a huge open loop; far
// above any deployment's process count.
constexpr std::uint64_t kMaxShardCount = 1u << 20;

using detail::GetU32;
using detail::GetU64;
using detail::PutU32;
using detail::PutU64;

constexpr std::size_t AlignUp8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

std::string ShardFileName(std::size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05zu.mpc", shard);
  return buf;
}

std::filesystem::path ManifestPath(const std::string& dir) {
  return std::filesystem::path(dir) / "manifest.mpm";
}

[[noreturn]] void CorruptManifest(const std::string& dir,
                                  const std::string& what) {
  throw IoError("shard manifest in " + dir + ": " + what);
}

}  // namespace

ShardedDataset::ShardedDataset(std::size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count), origin_(shards_.size()) {}

std::size_t ShardedDataset::ShardOfUser(std::string_view user_name,
                                        std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  // FNV-1a, 64-bit: stable across platforms and standard libraries (unlike
  // std::hash), so shard assignment is part of the format, not the build —
  // the same Fnv1a64 the columnar container uses for its checksums.
  return static_cast<std::size_t>(
      Fnv1a64(user_name.data(), user_name.size()) % shard_count);
}

ShardedDataset ShardedDataset::Partition(const Dataset& dataset,
                                         std::size_t shard_count) {
  ShardedDataset out(shard_count);

  // Global name table in the input's id order; every user is interned into
  // its home shard up front (users without traces must survive the round
  // trip too).
  out.global_names_.reserve(dataset.UserCount());
  for (UserId id = 0; id < dataset.UserCount(); ++id) {
    const std::string name = dataset.UserName(id);
    out.shards_[ShardOfUser(name, out.shards_.size())].InternUser(name);
    out.global_names_.push_back(name);
  }

  const auto& traces = dataset.traces();
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const Trace& trace = traces[t];
    const std::string name = dataset.UserName(trace.user());
    const std::size_t s = ShardOfUser(name, out.shards_.size());
    Dataset& shard = out.shards_[s];
    Trace local = trace;  // copy; shard-local user id
    local.set_user(shard.InternUser(name));
    shard.AddTrace(std::move(local));
    out.origin_[s].push_back(t);
  }
  return out;
}

void ShardedDataset::SaveShards(const std::string& dir,
                                SaveStats* stats) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw IoError("cannot create shard directory " + dir);

  // Shard files are independent; serialize them concurrently (the pool
  // rethrows the first failure). A shard whose content fingerprint
  // already matches the published file is skipped outright — incremental
  // runs that touched one shard republish one file, not the directory.
  std::atomic<std::size_t> written{0};
  std::atomic<std::size_t> skipped{0};
  util::ParallelForEach(shards_.size(), [&](std::size_t s) {
    const EventStore store = EventStore::FromDataset(shards_[s]);
    const std::string path = ShardDataPath(dir, s);
    if (ColumnarFileMatches(store, path)) {
      skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    WriteColumnar(store, path);
    written.fetch_add(1, std::memory_order_relaxed);
  });
  if (stats != nullptr) {
    stats->shards_written = written.load(std::memory_order_relaxed);
    stats->shards_skipped = skipped.load(std::memory_order_relaxed);
  }

  WriteShardManifest(dir, shards_.size(), global_names_, origin_);
}

void WriteShardManifest(const std::string& dir, std::size_t shard_count,
                        std::span<const std::string> global_names,
                        std::span<const std::vector<std::size_t>> origin) {
  const bool has_origin = !origin.empty();
  if (has_origin && origin.size() != shard_count) {
    throw IoError("shard manifest origin runs disagree with shard count");
  }

  // Payload: name table (offsets + blob, zero-padded to 8 bytes), then —
  // when present — per-shard origin runs (u64 count + count u64 indices).
  const std::vector<std::byte> name_table =
      detail::EncodeNameTable(global_names);
  std::size_t payload_size = AlignUp8(name_table.size());
  if (has_origin) {
    for (const auto& o : origin) payload_size += 8 + o.size() * 8;
  }

  std::vector<std::byte> payload(payload_size, std::byte{0});
  std::memcpy(payload.data(), name_table.data(), name_table.size());
  if (has_origin) {
    std::byte* p = payload.data() + AlignUp8(name_table.size());
    for (const auto& o : origin) {
      PutU64(p, o.size());
      p += 8;
      for (const std::size_t index : o) {
        PutU64(p, index);
        p += 8;
      }
    }
  }

  std::vector<std::byte> head(kManifestHeaderSize, std::byte{0});
  std::memcpy(head.data(), kManifestMagic.data(), kManifestMagic.size());
  PutU32(head.data() + 8, kColumnarFormatVersion);
  PutU32(head.data() + 12, has_origin ? kManifestFlagHasOrigin : 0u);
  PutU64(head.data() + 16, shard_count);
  PutU64(head.data() + 24, global_names.size());
  PutU64(head.data() + 32, payload.size());
  PutU64(head.data() + 40, Fnv1a64(payload.data(), payload.size()));

  // Crash-safe publication (docs/ROBUSTNESS.md): the manifest is the
  // directory's commit marker — writing it last, atomically, means a
  // crash mid-save leaves either the previous manifest (old partition
  // still opens) or no manifest (open fails cleanly), never a torn one.
  const std::string manifest = ManifestPath(dir).string();
  const std::span<const std::byte> parts[] = {
      {head.data(), head.size()}, {payload.data(), payload.size()}};
  WriteFileAtomic(manifest, parts,
                  {.open = fault::points::kManifestWriteOpen,
                   .write = fault::points::kManifestWriteShort,
                   .commit = fault::points::kManifestWriteCommit});
}

void MergeShardManifests(const std::string& dir, std::size_t shard_count) {
  if (shard_count == 0 || shard_count > kMaxShardCount) {
    throw IoError("cannot merge manifests in " + dir +
                  ": implausible shard count " + std::to_string(shard_count));
  }
  // Union of the shard name tables in (shard, local id) order. Mapped
  // open: the name/trace metadata is decoded eagerly but the column
  // payloads are never faulted in, so merging a terabyte directory reads
  // kilobytes. A name appearing in several shards is kept once (first
  // sighting) — shards intern names locally, so duplicates only denote
  // the same external user.
  std::vector<std::string> global_names;
  std::unordered_set<std::string_view> seen;
  std::vector<std::vector<std::string>> shard_names(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const MappedColumnar mapped = MapColumnar(ShardDataPath(dir, s));
    shard_names[s].assign(mapped.names().begin(), mapped.names().end());
  }
  for (const auto& names : shard_names) {
    for (const std::string& name : names) {
      if (seen.insert(name).second) global_names.push_back(name);
    }
  }
  WriteShardManifest(dir, shard_count, global_names);
}

ShardManifest ReadShardManifest(const std::string& dir) {
  const std::string manifest = ManifestPath(dir).string();
  if (MOBIPRIV_FAULT_POINT(fault::points::kManifestReadOpen)) {
    throw IoError("injected fault (" +
                  std::string(fault::points::kManifestReadOpen) +
                  "): cannot open " + manifest);
  }
  std::ifstream in(manifest, std::ios::binary);
  if (!in) throw IoError("cannot open " + manifest);
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  in.seekg(0);
  if (len < static_cast<std::streamoff>(kManifestHeaderSize)) {
    CorruptManifest(dir, "shorter than the 48-byte header");
  }
  std::vector<std::byte> bytes(static_cast<std::size_t>(len));
  if (!in.read(reinterpret_cast<char*>(bytes.data()), len)) {
    throw IoError("cannot read " + manifest);
  }

  if (std::memcmp(bytes.data(), kManifestMagic.data(),
                  kManifestMagic.size()) != 0) {
    CorruptManifest(dir, "bad magic (not a .mpm manifest)");
  }
  const std::uint32_t version = GetU32(bytes.data() + 8);
  if (version != kColumnarFormatVersion) {
    CorruptManifest(dir, "unsupported version " + std::to_string(version));
  }
  const std::uint32_t flags = GetU32(bytes.data() + 12);
  if ((flags & ~kManifestFlagHasOrigin) != 0) {
    CorruptManifest(dir, "unknown flag bits set");
  }
  const std::uint64_t shard_count = GetU64(bytes.data() + 16);
  const std::uint64_t user_count = GetU64(bytes.data() + 24);
  const std::uint64_t payload_size = GetU64(bytes.data() + 32);
  if (shard_count == 0 || shard_count > kMaxShardCount) {
    CorruptManifest(dir, "implausible shard count");
  }
  if (payload_size != bytes.size() - kManifestHeaderSize) {
    CorruptManifest(dir, "payload size disagrees with file size");
  }
  const std::byte* payload = bytes.data() + kManifestHeaderSize;
  if (GetU64(bytes.data() + 40) != Fnv1a64(payload, payload_size)) {
    CorruptManifest(dir, "payload checksum mismatch");
  }

  ShardManifest out;
  out.shard_count = static_cast<std::size_t>(shard_count);

  // Name table (shared codec with the .mpc NAME section).
  std::size_t names_consumed = 0;
  out.global_names = detail::DecodeNameTable(
      payload, payload_size, user_count, &names_consumed,
      "shard manifest in " + dir);

  if ((flags & kManifestFlagHasOrigin) != 0) {
    std::size_t cursor = AlignUp8(names_consumed);
    std::vector<std::vector<std::size_t>> origin(out.shard_count);
    std::size_t total = 0;
    for (std::size_t s = 0; s < out.shard_count; ++s) {
      if (payload_size - cursor < 8) {
        CorruptManifest(dir, "origin table truncated");
      }
      const std::uint64_t count = GetU64(payload + cursor);
      cursor += 8;
      if (count > (payload_size - cursor) / 8) {
        CorruptManifest(dir, "origin table truncated");
      }
      origin[s].reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        origin[s].push_back(
            static_cast<std::size_t>(GetU64(payload + cursor)));
        cursor += 8;
      }
      total += static_cast<std::size_t>(count);
    }
    // The indices must form a permutation of [0, total) or origin-order
    // replay would read out of bounds on a corrupt manifest.
    std::vector<bool> seen(total, false);
    for (const auto& o : origin) {
      for (const std::size_t index : o) {
        if (index >= total || seen[index]) {
          CorruptManifest(dir, "origin indices are not a permutation");
        }
        seen[index] = true;
      }
    }
    out.origin = std::move(origin);
  }
  return out;
}

std::string ShardDataPath(const std::string& dir, std::size_t shard) {
  return (std::filesystem::path(dir) / ShardFileName(shard)).string();
}

}  // namespace mobipriv::model
