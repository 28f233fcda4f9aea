#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace mobipriv::util {
namespace {

/// True while the current thread is executing a ParallelFor chunk; nested
/// parallel regions then degrade to inline loops. This is the one inline
/// rule: a chunk body never waits for other threads, which is what lets
/// a lane that fans out from a pool worker block on its claimed chunks.
thread_local bool t_in_parallel_region = false;

/// 0 = no override (use the default below).
std::atomic<std::size_t> g_parallelism_override{0};

std::size_t DefaultParallelism() {
  static const std::size_t value = [] {
    if (const char* env = std::getenv("MOBIPRIV_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return value;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Global() {
  // The pool holds callers' helpers, so size it one short of the
  // parallelism target: the calling thread is always the +1. A floor of 7
  // helpers keeps ScopedParallelism able to genuinely multithread (e.g.
  // determinism tests) even on small machines; unused workers just sleep.
  static ThreadPool pool(std::max<std::size_t>(
      DefaultParallelism() > 1 ? DefaultParallelism() - 1 : 0, 7));
  return pool;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t ParallelismLevel() noexcept {
  const std::size_t override = g_parallelism_override.load();
  const std::size_t level = override != 0 ? override : DefaultParallelism();
  // Serial callers must never touch Global(): constructing the pool spawns
  // worker threads, and the whole point of level 1 is to not have any.
  if (level <= 1) return 1;
  // The caller is one lane; the pool supplies the rest.
  return std::min(level, ThreadPool::Global().WorkerCount() + 1);
}

void SetParallelismLevel(std::size_t n) noexcept {
  g_parallelism_override.store(n);
}

std::size_t ParallelismOverride() noexcept {
  return g_parallelism_override.load();
}

void ParallelFor(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain) {
  if (n == 0) return;
  const auto run_inline = [&body, n] {
    struct Reset {
      bool previous;
      ~Reset() { t_in_parallel_region = previous; }
    } reset{t_in_parallel_region};
    (void)reset;
    t_in_parallel_region = true;
    body(0, n);
  };
  const std::size_t lanes = ParallelismLevel();
  if (lanes <= 1 || n == 1 || t_in_parallel_region) {
    // Effective worker count 1 (or already inside a parallel region):
    // plain loop, zero pool round-trips, no shared state.
    run_inline();
    return;
  }

  if (grain == 0) {
    // ~4 chunks per lane: enough slack to absorb skewed chunk costs
    // without drowning in claim traffic.
    grain = std::max<std::size_t>(1, n / (lanes * 4));
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks <= 1) {
    // The whole range fits one chunk (n <= grain): fan-out would buy one
    // lane of work for a full pool round-trip — run it inline instead.
    run_inline();
    return;
  }
  const std::size_t helpers = std::min(lanes - 1, chunks - 1);

  // The caller waits for its chunks, not for its helpers: a helper that
  // the pool starts after the last chunk was claimed finds nothing to do
  // and leaves without touching `body`. Only the state below, kept alive
  // by the shared_ptr each lane holds, outlives the call.
  struct Shared {
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t finished = 0;  // guarded by mutex
    std::exception_ptr error;  // guarded by mutex
  };
  auto shared = std::make_shared<Shared>();

  const auto run_lane = [shared, body = &body, n, grain, chunks] {
    Shared& s = *shared;
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t chunk = s.next_chunk.fetch_add(1);
      if (chunk >= chunks) break;
      // After a failure the remaining chunks are claimed and counted but
      // not run, so the caller's wait still ends.
      std::exception_ptr error;
      if (!s.failed.load(std::memory_order_relaxed)) {
        const std::size_t begin = chunk * grain;
        try {
          (*body)(begin, std::min(n, begin + grain));
        } catch (...) {
          error = std::current_exception();
        }
      }
      const std::lock_guard<std::mutex> lock(s.mutex);
      if (error && !s.error) {
        s.error = error;
        s.failed.store(true, std::memory_order_relaxed);
      }
      if (++s.finished == chunks) s.done.notify_one();
    }
    t_in_parallel_region = was_in_region;
  };

  auto& pool = ThreadPool::Global();
  for (std::size_t h = 0; h < helpers; ++h) pool.Submit(run_lane);
  run_lane();

  // Every chunk is claimed by now, each by a thread that is running it.
  // Chunk bodies never wait (nested calls run inline), so this wait ends
  // even when the caller is a pool worker and every other worker is busy.
  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->done.wait(lock, [&] { return shared->finished == chunks; });
  if (shared->error) std::rethrow_exception(shared->error);
}

void ParallelForEach(std::size_t n,
                     const std::function<void(std::size_t)>& body,
                     std::size_t grain) {
  ParallelFor(
      n,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      grain);
}

}  // namespace mobipriv::util
