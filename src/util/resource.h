// Process resource introspection for benchmarks and CLIs. Peak RSS is the
// out-of-core evidence: a streaming run over a multi-gigabyte world must
// report a peak far below the dataset size, and the throughput benches
// publish this number next to rows/sec so regressions in residency are as
// visible as regressions in speed.
#pragma once

#include <cstdint>

namespace mobipriv::util {

/// Peak resident set size of the current process in bytes. On Linux this
/// is VmHWM from /proc/self/status, which ResetPeakRss can lower to the
/// current RSS, so a reset followed by a read measures one phase. Where
/// VmHWM is unreadable it falls back to getrusage(RUSAGE_SELF) ru_maxrss,
/// the lifetime high-water mark that never resets. Returns 0 on platforms
/// without either.
[[nodiscard]] std::uint64_t PeakRssBytes() noexcept;

/// Resets the peak RSS that PeakRssBytes reports to the current RSS
/// (Linux: writes "5" to /proc/self/clear_refs, proc(5)). Returns false
/// when the platform or the kernel refuses, in which case PeakRssBytes
/// stays a process-lifetime high-water mark.
bool ResetPeakRss() noexcept;

}  // namespace mobipriv::util
