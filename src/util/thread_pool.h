// Shared worker pool and chunked parallel-for, the execution substrate of
// every batch stage (mechanisms, attacks, metrics).
//
// Design constraints, in priority order:
//   1. *Determinism*: ParallelFor never decides anything the result can
//      depend on. Callers pre-split work into index ranges and write results
//      into pre-sized slots, so the output is byte-identical whatever the
//      worker count (including 1, i.e. fully serial).
//   2. *No oversubscription, no deadlock*: one process-wide pool, created
//      lazily. Only a ParallelFor called from inside a chunk body runs
//      inline. Any other call fans out, a pool worker's included (a
//      scenario DAG node's kernel): it submits helper lanes, claims chunks
//      itself and then waits only until every claimed chunk has finished,
//      never for a helper to start. That wait always ends: each claimed
//      chunk belongs to a thread that is running it, and a chunk body
//      never waits for anything, because its own nested calls are inline.
//   3. *Zero cost when serial*: with an effective parallelism of 1 (single
//      core, MOBIPRIV_THREADS=1 or ScopedParallelism(1)) ParallelFor is a
//      plain loop — no pool, no atomics, no thread hop.
//
// The effective parallelism is, in decreasing precedence:
//   SetParallelismLevel(n) / ScopedParallelism  >  MOBIPRIV_THREADS  >
//   std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mobipriv::util {

/// Fixed-size worker pool. Most code should use ParallelFor instead; the
/// pool is exposed for long-lived background jobs (future streaming ingest).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, created on first use with as many workers as the
  /// machine offers (capped by MOBIPRIV_THREADS when set).
  static ThreadPool& Global();

  void Submit(std::function<void()> task);

  [[nodiscard]] std::size_t WorkerCount() const noexcept {
    return workers_.size();
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Effective parallelism ParallelFor will use (>= 1).
[[nodiscard]] std::size_t ParallelismLevel() noexcept;

/// Overrides the effective parallelism. 0 restores the default
/// (MOBIPRIV_THREADS or hardware concurrency). Values are clamped to the
/// global pool size + 1 (the caller participates).
void SetParallelismLevel(std::size_t n) noexcept;

/// Raw override as set by SetParallelismLevel (0 = no override). Unlike
/// ParallelismLevel() this never clamps and never constructs the pool.
[[nodiscard]] std::size_t ParallelismOverride() noexcept;

/// RAII parallelism override, for tests and serial-vs-parallel comparisons.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(std::size_t n) noexcept
      : previous_(ParallelismOverride()) {
    SetParallelismLevel(n);
  }
  ~ScopedParallelism() { SetParallelismLevel(previous_); }
  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  std::size_t previous_;
};

/// Runs body(begin, end) over disjoint chunks covering [0, n), using the
/// calling thread plus global-pool workers. Chunks are claimed dynamically
/// (atomic counter) for load balance; `grain` is the minimum chunk size
/// (0 = pick automatically). The call returns after every index is
/// processed; the first exception thrown by any chunk is rethrown on the
/// caller. Nested calls (from inside a chunk body) run inline; a call from
/// a pool worker fans out like any other and waits only for the chunks
/// that running lanes have claimed, so idle workers help a busy one.
void ParallelFor(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain = 0);

/// Convenience element-wise overload: body(i) for each i in [0, n).
void ParallelForEach(std::size_t n,
                     const std::function<void(std::size_t)>& body,
                     std::size_t grain = 0);

}  // namespace mobipriv::util
