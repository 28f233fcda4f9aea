#include "util/resource.h"

#include <cinttypes>
#include <cstdio>

#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace mobipriv::util {

std::uint64_t PeakRssBytes() noexcept {
#if defined(__linux__)
  // VmHWM honours ResetPeakRss; ru_maxrss below does not.
  if (std::FILE* status = std::fopen("/proc/self/status", "re")) {
    char line[256];
    std::uint64_t kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) return kib * 1024u;
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  // Linux (and the BSDs) report kibibytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

bool ResetPeakRss() noexcept {
#if defined(__linux__)
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
#else
  return false;
#endif
}

}  // namespace mobipriv::util
