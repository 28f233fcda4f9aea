// util/resource.h: the peak-RSS reading the benches record per row. On
// Linux a reset must lower the reported peak to the current RSS, so a
// benchmark's counter is not the high-water mark of whatever ran before.
#include "util/resource.h"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstdint>
#include <cstring>

namespace mobipriv {
namespace {

constexpr std::uint64_t kMiB = 1024u * 1024u;

/// Maps `bytes` of anonymous memory, writes every page (so it is
/// resident), then unmaps it. A direct mapping, not the heap: allocators
/// (and sanitizer quarantines) may keep freed heap memory resident.
void TouchAndRelease(std::uint64_t bytes) {
  void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(block, MAP_FAILED);
  std::memset(block, 1, bytes);
  ASSERT_EQ(::munmap(block, bytes), 0);
}

TEST(Resource, PeakRssIsPositiveAndCoversATouchedBlock) {
  TouchAndRelease(64 * kMiB);
  EXPECT_GE(util::PeakRssBytes(), 64 * kMiB);
}

TEST(Resource, ResetLowersThePeakToTheCurrentRss) {
  TouchAndRelease(128 * kMiB);
  const std::uint64_t before = util::PeakRssBytes();
  if (!util::ResetPeakRss()) {
    GTEST_SKIP() << "peak-RSS reset unavailable on this platform";
  }
  const std::uint64_t after = util::PeakRssBytes();
  EXPECT_LT(after + 64 * kMiB, before);
  TouchAndRelease(32 * kMiB);
  EXPECT_GE(util::PeakRssBytes(), 32 * kMiB);
}

}  // namespace
}  // namespace mobipriv
