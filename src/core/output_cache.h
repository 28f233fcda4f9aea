// The `.mpc` mechanism-output cache: spills scenario-engine node outputs
// to disk, content-addressed by (canonical node name, source fingerprint,
// seed), and reuses them across runs. Extracted from core/engine so chain
// compilation, the CLI and the test suite share one keying scheme.
//
// Entry layout (docs/FORMAT.md, "Cached mechanism outputs"): payload
// `<stem>.mpc` plus sidecar `<stem>.key`, stem = hex FNV-1a64 of the key
// text. The sidecar is the commit marker — written last, required to
// match exactly on reuse — so a hash collision in the stem can never
// serve the wrong output and any key drift reads as stale.
//
// With `max_bytes` > 0 the cache is LRU-bounded: every Store enforces the
// cap by evicting least-recently-used entries (recency = the sidecar's
// mtime, refreshed on every hit) until the directory fits. Eviction
// removes the sidecar FIRST, then the payload, so a crash mid-eviction
// leaves at worst an orphaned payload — which every reader treats as a
// miss. Evicting a live entry is always safe: the next run recomputes.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>

#include "model/event_store.h"
#include "model/views.h"

namespace mobipriv::core {

/// Cache epoch: the mechanism-implementation version component of the
/// cache key. A cached output is only as valid as the code that produced
/// it — bump this on ANY change to a mechanism's algorithm or rng stream
/// discipline, and every existing entry reads as stale (recomputed, never
/// reused) instead of silently replaying pre-change outputs. Epoch 2:
/// names became injective on the config, so an epoch-1 entry may hold the
/// output of a different config that printed the same name.
inline constexpr std::uint32_t kMechanismCacheEpoch = 2;

class OutputCache {
 public:
  /// Creates `dir` if needed. `max_bytes` == 0 means unbounded.
  explicit OutputCache(std::filesystem::path dir, std::uint64_t max_bytes = 0);

  /// Content fingerprint of a bound source: user names, trace structure
  /// (user id + length per trace) and every column bit pattern. Two
  /// sources fingerprint equal iff a mechanism sees identical input —
  /// the dataset component of the cache key.
  [[nodiscard]] static std::uint64_t FingerprintView(
      const model::DatasetView& view);

  /// The sidecar text identifying one cache entry. For a chain stage,
  /// `name` is the stage's PREFIX canonical name (stages [0..k] joined
  /// with '|'), making the key a prefix-fingerprint: suffix stages and
  /// sibling grid rows never affect it.
  [[nodiscard]] static std::string KeyText(const std::string& name,
                                           std::uint64_t fingerprint,
                                           std::uint64_t seed);

  /// File stem for one cache entry (hex FNV-1a64 of the key text).
  [[nodiscard]] static std::string Stem(const std::string& key_text);

  /// Attempts to reuse an entry. Returns true and fills `store` only when
  /// the sidecar matches `key_text` exactly AND the payload reads back
  /// clean (every section checksum verified). A transient IoError is
  /// retried with bounded backoff (counted into read_retries()); persistent
  /// failure, staleness or corruption is a miss — the caller recomputes
  /// and overwrites. A hit refreshes the sidecar mtime (LRU recency).
  [[nodiscard]] bool TryLoad(const std::string& key_text,
                             model::EventStore& store);

  /// Spills one node output: payload first, sidecar last, both through
  /// the atomic-commit helper (temp -> fsync -> rename) — neither a crash
  /// nor an injected fault can publish a half-written entry. Failures are
  /// non-fatal (the run already holds the computed store). Enforces the
  /// byte cap afterwards.
  void Store(const std::string& key_text, const model::EventStore& store);

  /// Evicts least-recently-used entries until the directory holds at most
  /// `max_bytes` (no-op when unbounded). Public so tests and maintenance
  /// paths can re-enforce after external modification.
  void EnforceCap();

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  [[nodiscard]] std::uint64_t max_bytes() const noexcept { return max_bytes_; }
  /// Transient read failures absorbed by the retry budget.
  [[nodiscard]] std::size_t read_retries() const noexcept {
    return read_retries_.load(std::memory_order_relaxed);
  }
  /// Entries evicted by the LRU cap (orphaned payloads count too).
  [[nodiscard]] std::size_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  std::filesystem::path dir_;
  std::uint64_t max_bytes_ = 0;
  std::atomic<std::size_t> read_retries_{0};
  std::atomic<std::size_t> evictions_{0};
  std::mutex evict_mutex_;
};

}  // namespace mobipriv::core
