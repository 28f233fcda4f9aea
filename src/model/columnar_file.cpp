#include "model/columnar_file.h"

#include "model/atomic_file.h"
#include "model/columnar_layout.h"
#include "util/fault.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define MOBIPRIV_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define MOBIPRIV_HAS_MMAP 0
#endif

// The container is specified little-endian (docs/FORMAT.md). Scalars go
// through memcpy, columns are written/mapped verbatim, so the build is
// gated on a little-endian host; a big-endian port needs byte-swapping
// load/store helpers here (and cannot use the zero-copy mapped path).
static_assert(std::endian::native == std::endian::little,
              "mobipriv columnar files require a little-endian host");

namespace mobipriv::model {

// Layout constants (kHeaderSize, section ids, AlignUp8, ...) live in
// model/columnar_layout.h so the appender shares them.
using namespace detail;  // NOLINT(google-build-using-namespace)

namespace {

[[noreturn]] void Corrupt(const std::string& path, const std::string& what) {
  throw IoError("columnar file " + path + ": " + what);
}

// Appends the OS-level cause (": No such file or directory", ...) when
// errno carries one — bind errors and supervisor retry logs then say WHY
// an open failed, not just that it did.
std::string ErrnoSuffix() {
  if (errno == 0) return {};
  return std::string(": ") + std::strerror(errno);
}

// Payload location of one known section, resolved from the directory.
struct SectionInfo {
  std::size_t offset = 0;
  std::size_t size = 0;
  std::uint64_t checksum = 0;
  bool seen = false;
};

// Fully validated file layout: header counts plus the five known
// sections. Produced by ParseAndValidate, consumed by both load paths.
struct ParsedLayout {
  std::uint64_t user_count = 0;
  std::uint64_t trace_count = 0;
  std::uint64_t event_count = 0;
  SectionInfo sections[kKnownSections];  // index = id - 1

  [[nodiscard]] const SectionInfo& section(std::uint32_t id) const {
    return sections[id - 1];
  }
};

// Validates magic, version, header/directory checksums, section bounds
// and sizes, and the NAME/TRACE section checksums (those are decoded
// eagerly by every path). Column checksums are verified only when
// `verify_columns` — ReadColumnar always, MapColumnar per options.
ParsedLayout ParseAndValidate(const std::byte* data, std::size_t size,
                              const std::string& path, bool verify_columns) {
  if (size < kHeaderSize) Corrupt(path, "shorter than the 64-byte header");
  if (std::memcmp(data, kColumnarMagic.data(), kColumnarMagic.size()) != 0) {
    Corrupt(path, "bad magic (not a .mpc columnar file)");
  }
  const std::uint32_t version = GetU32(data + 8);
  if (version != kColumnarFormatVersion) {
    Corrupt(path, "unsupported format version " + std::to_string(version) +
                      " (reader supports " +
                      std::to_string(kColumnarFormatVersion) + ")");
  }
  if (GetU64(data + 48) != Fnv1a64(data, 48)) {
    Corrupt(path, "header checksum mismatch");
  }
  const std::uint32_t section_count = GetU32(data + 12);
  if (section_count < kKnownSections || section_count > kMaxSectionCount) {
    Corrupt(path, "implausible section count");
  }

  ParsedLayout layout;
  layout.user_count = GetU64(data + 16);
  layout.trace_count = GetU64(data + 24);
  layout.event_count = GetU64(data + 32);
  if (GetU64(data + 40) != size) {
    Corrupt(path, "recorded file size disagrees with actual size (truncated?)");
  }

  const std::size_t dir_bytes =
      static_cast<std::size_t>(section_count) * kDirEntrySize;
  if (size - kHeaderSize < dir_bytes) {
    Corrupt(path, "section directory extends past end of file");
  }
  if (GetU64(data + 56) != Fnv1a64(data + kHeaderSize, dir_bytes)) {
    Corrupt(path, "section directory checksum mismatch");
  }

  // Size each known section must have, derived from the header counts
  // (counts were bounded above by the file size check below).
  const auto expected_size = [&](std::uint32_t id) -> std::uint64_t {
    switch (id) {
      case kSectionName:
        return (layout.user_count + 1) * 8;  // offsets; blob comes on top
      case kSectionTrace:
        return layout.trace_count * kTraceRecordSize;
      default:
        return layout.event_count * 8;
    }
  };
  // Counts that would overflow the size arithmetic can never fit in the
  // file anyway; reject them before multiplying.
  if (layout.user_count > size / 8 || layout.trace_count > size / kTraceRecordSize ||
      layout.event_count > size / 8) {
    Corrupt(path, "header counts exceed what the file could hold");
  }

  for (std::size_t i = 0; i < section_count; ++i) {
    const std::byte* entry = data + kHeaderSize + i * kDirEntrySize;
    const std::uint32_t id = GetU32(entry);
    const std::uint64_t offset = GetU64(entry + 8);
    const std::uint64_t payload = GetU64(entry + 16);
    if (offset % 8 != 0) Corrupt(path, "section offset not 8-byte aligned");
    if (offset < kHeaderSize + dir_bytes || offset > size ||
        payload > size - offset) {
      Corrupt(path, "section payload out of file bounds");
    }
    if (id == 0 || id > kKnownSections) continue;  // unknown: ignored
    SectionInfo& info = layout.sections[id - 1];
    if (info.seen) Corrupt(path, "duplicate section id in directory");
    info.seen = true;
    info.offset = static_cast<std::size_t>(offset);
    info.size = static_cast<std::size_t>(payload);
    info.checksum = GetU64(entry + 24);
    const std::uint64_t expect = expected_size(id);
    const bool size_ok = id == kSectionName ? payload >= expect
                                            : payload == expect;
    if (!size_ok) {
      Corrupt(path, "section size disagrees with header counts");
    }
  }
  for (std::size_t i = 0; i < kKnownSections; ++i) {
    if (!layout.sections[i].seen) {
      Corrupt(path, "required section missing from directory");
    }
  }

  const auto verify = [&](std::uint32_t id, const char* name) {
    const SectionInfo& info = layout.section(id);
    if (Fnv1a64(data + info.offset, info.size) != info.checksum) {
      Corrupt(path, std::string(name) + " section checksum mismatch");
    }
  };
  verify(kSectionName, "name");
  verify(kSectionTrace, "trace");
  if (verify_columns) {
    verify(kSectionLat, "lat");
    verify(kSectionLng, "lng");
    verify(kSectionTime, "time");
  }
  return layout;
}

std::vector<std::string> DecodeNames(const std::byte* data,
                                     const ParsedLayout& layout,
                                     const std::string& path) {
  const SectionInfo& s = layout.section(kSectionName);
  std::size_t consumed = 0;
  std::vector<std::string> names =
      detail::DecodeNameTable(data + s.offset, s.size, layout.user_count,
                              &consumed, "columnar file " + path);
  if (consumed != s.size) {
    Corrupt(path, "name blob has trailing bytes not covered by the table");
  }
  return names;
}

std::vector<EventStore::TraceRange> DecodeTraces(const std::byte* data,
                                                 const ParsedLayout& layout,
                                                 const std::string& path) {
  const SectionInfo& s = layout.section(kSectionTrace);
  std::vector<EventStore::TraceRange> traces;
  traces.reserve(static_cast<std::size_t>(layout.trace_count));
  for (std::uint64_t t = 0; t < layout.trace_count; ++t) {
    const std::byte* rec = data + s.offset + t * kTraceRecordSize;
    EventStore::TraceRange range;
    range.user = GetU32(rec);
    range.begin = static_cast<std::size_t>(GetU64(rec + 8));
    range.end = static_cast<std::size_t>(GetU64(rec + 16));
    if (range.begin > range.end || range.end > layout.event_count) {
      Corrupt(path, "trace record range out of column bounds");
    }
    if (range.user >= layout.user_count) {
      Corrupt(path, "trace record user id out of range");
    }
    traces.push_back(range);
  }
  return traces;
}

namespace fault = util::fault;

std::vector<std::byte> SlurpFile(const std::string& path) {
  if (MOBIPRIV_FAULT_POINT(fault::points::kColumnarReadOpen)) {
    throw IoError("injected fault (" +
                  std::string(fault::points::kColumnarReadOpen) +
                  "): cannot open " + path);
  }
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path + ErrnoSuffix());
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  if (len < 0) throw IoError("cannot stat " + path + ErrnoSuffix());
  in.seekg(0);
  std::size_t want = static_cast<std::size_t>(len);
  // Injected short read: hand back only a prefix of the file, exactly
  // what a failing disk or a concurrent truncation produces. The format
  // validation (recorded size, section bounds, checksums) must turn this
  // into a clean IoError downstream — never an out-of-bounds read.
  if (fault::Enabled()) {
    const fault::Decision d =
        fault::Evaluate(fault::points::kColumnarReadShort);
    if (d.fail) want = std::min(want, d.io_cap);
  }
  std::vector<std::byte> bytes(want);
  if (want > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(want))) {
    throw IoError("cannot read " + path + ErrnoSuffix());
  }
  return bytes;
}

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

namespace detail {

void PutU32(std::byte* p, std::uint32_t v) noexcept { std::memcpy(p, &v, 4); }
void PutU64(std::byte* p, std::uint64_t v) noexcept { std::memcpy(p, &v, 8); }
std::uint32_t GetU32(const std::byte* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t GetU64(const std::byte* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::vector<std::byte> EncodeNameTable(std::span<const std::string> names) {
  std::size_t blob_size = 0;
  for (const std::string& name : names) blob_size += name.size();
  std::vector<std::byte> payload((names.size() + 1) * 8 + blob_size);
  std::uint64_t cursor = 0;
  std::byte* blob = payload.data() + (names.size() + 1) * 8;
  for (std::size_t i = 0; i < names.size(); ++i) {
    PutU64(payload.data() + i * 8, cursor);
    std::memcpy(blob + cursor, names[i].data(), names[i].size());
    cursor += names[i].size();
  }
  PutU64(payload.data() + names.size() * 8, cursor);
  return payload;
}

std::vector<std::string> DecodeNameTable(const std::byte* payload,
                                         std::size_t available,
                                         std::uint64_t count,
                                         std::size_t* consumed,
                                         const std::string& context) {
  const auto fail = [&context](const std::string& what) {
    throw IoError(context + ": " + what);
  };
  // Overflow-safe bound before the multiply below.
  if (count > available / 8) fail("name count exceeds available bytes");
  const std::size_t table_bytes = (static_cast<std::size_t>(count) + 1) * 8;
  if (table_bytes > available) fail("name offset table exceeds available bytes");
  const std::size_t blob_available = available - table_bytes;
  const std::byte* blob = payload + table_bytes;

  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(count));
  std::unordered_set<std::string_view> seen;
  seen.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev = GetU64(payload);
  if (prev != 0) fail("name offset table does not start at 0");
  for (std::uint64_t i = 1; i <= count; ++i) {
    const std::uint64_t end = GetU64(payload + i * 8);
    if (end < prev || end > blob_available) {
      fail("name offset table not monotonic within the blob");
    }
    // The views index the (stable) blob, not the growing names vector.
    const std::string_view name(reinterpret_cast<const char*>(blob + prev),
                                static_cast<std::size_t>(end - prev));
    // Uniqueness is required by every in-memory consumer (name -> id
    // maps); enforcing it here keeps the owning and mapped load paths
    // agreeing on which files are valid.
    if (!seen.insert(name).second) fail("duplicate user name");
    names.emplace_back(name);
    prev = end;
  }
  *consumed = table_bytes + static_cast<std::size_t>(prev);
  return names;
}

std::uint64_t Fnv1a64Update(std::uint64_t h, const void* data,
                            std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<std::byte> EncodeTraceTable(
    std::span<const EventStore::TraceRange> traces) {
  std::vector<std::byte> payload(traces.size() * kTraceRecordSize);
  for (std::size_t t = 0; t < traces.size(); ++t) {
    std::byte* rec = payload.data() + t * kTraceRecordSize;
    PutU32(rec, traces[t].user);
    PutU32(rec + 4, 0);
    PutU64(rec + 8, traces[t].begin);
    PutU64(rec + 16, traces[t].end);
  }
  return payload;
}

std::vector<std::byte> BuildColumnarHead(
    std::uint64_t user_count, std::uint64_t trace_count,
    std::uint64_t event_count,
    const std::array<std::size_t, kKnownSections>& section_sizes,
    const std::array<std::uint64_t, kKnownSections>& section_checksums,
    ColumnarLayout* layout) {
  // Lay the five sections out back to back, each 8-byte aligned; the file
  // ends at the last payload byte (no trailing padding).
  layout->sizes = section_sizes;
  layout->checksums = section_checksums;
  std::size_t cursor = AlignUp8(kHeaderSize + kKnownSections * kDirEntrySize);
  for (std::size_t i = 0; i < kKnownSections; ++i) {
    layout->offsets[i] = cursor;
    cursor = AlignUp8(cursor + section_sizes[i]);
  }
  layout->file_size =
      layout->offsets[kKnownSections - 1] + section_sizes[kKnownSections - 1];

  // Header + directory, checksummed over their exact byte images.
  std::vector<std::byte> head(kHeaderSize + kKnownSections * kDirEntrySize,
                              std::byte{0});
  std::memcpy(head.data(), kColumnarMagic.data(), kColumnarMagic.size());
  PutU32(head.data() + 8, kColumnarFormatVersion);
  PutU32(head.data() + 12, kKnownSections);
  PutU64(head.data() + 16, user_count);
  PutU64(head.data() + 24, trace_count);
  PutU64(head.data() + 32, event_count);
  PutU64(head.data() + 40, layout->file_size);
  for (std::size_t i = 0; i < kKnownSections; ++i) {
    std::byte* entry = head.data() + kHeaderSize + i * kDirEntrySize;
    PutU32(entry, static_cast<std::uint32_t>(i + 1));  // ids 1..5 in order
    PutU32(entry + 4, 0);
    PutU64(entry + 8, layout->offsets[i]);
    PutU64(entry + 16, layout->sizes[i]);
    PutU64(entry + 24, layout->checksums[i]);
  }
  PutU64(head.data() + 48, Fnv1a64(head.data(), 48));
  PutU64(head.data() + 56,
         Fnv1a64(head.data() + kHeaderSize, kKnownSections * kDirEntrySize));
  return head;
}

}  // namespace detail

void WriteColumnar(const EventStore& store, const std::string& path) {
  // NAME payload: (user_count + 1) u64 offsets into the blob, then the
  // UTF-8 blob itself. TRACE payload: fixed 24-byte records.
  const std::vector<std::byte> name_payload =
      detail::EncodeNameTable(store.names());
  const std::vector<std::byte> trace_payload =
      detail::EncodeTraceTable(store.trace_table());

  const void* payloads[kKnownSections] = {
      name_payload.data(), trace_payload.data(), store.lat().data(),
      store.lng().data(), store.time().data()};
  std::array<std::size_t, kKnownSections> sizes = {
      name_payload.size(), trace_payload.size(), store.lat().size_bytes(),
      store.lng().size_bytes(), store.time().size_bytes()};
  std::array<std::uint64_t, kKnownSections> checksums{};
  for (std::size_t i = 0; i < kKnownSections; ++i) {
    checksums[i] = Fnv1a64(payloads[i], sizes[i]);
  }
  detail::ColumnarLayout layout;
  const std::vector<std::byte> head = detail::BuildColumnarHead(
      store.UserCount(), store.TraceCount(), store.EventCount(), sizes,
      checksums, &layout);

  // Gather-list of the exact on-disk byte image (header+directory, then
  // each section with its alignment padding), published through the
  // crash-safe temp-file -> fsync -> rename protocol: a crash or injected
  // fault at ANY step leaves `path` untouched — no torn `.mpc` file ever
  // carries the final name (docs/ROBUSTNESS.md).
  static constexpr std::byte kPad[8] = {};
  std::vector<std::span<const std::byte>> parts;
  parts.reserve(1 + 2 * kKnownSections);
  parts.emplace_back(head.data(), head.size());
  std::size_t written = head.size();
  for (std::size_t i = 0; i < kKnownSections; ++i) {
    if (layout.offsets[i] > written) {
      parts.emplace_back(kPad, layout.offsets[i] - written);
    }
    parts.emplace_back(static_cast<const std::byte*>(payloads[i]), sizes[i]);
    written = layout.offsets[i] + sizes[i];
  }
  WriteFileAtomic(path, parts,
                  {.open = util::fault::points::kColumnarWriteOpen,
                   .write = util::fault::points::kColumnarWriteShort,
                   .commit = util::fault::points::kColumnarWriteCommit});
}

EventStore ReadColumnar(const std::string& path) {
  const std::vector<std::byte> bytes = SlurpFile(path);
  const ParsedLayout layout =
      ParseAndValidate(bytes.data(), bytes.size(), path,
                       /*verify_columns=*/true);
  std::vector<std::string> names = DecodeNames(bytes.data(), layout, path);
  std::vector<EventStore::TraceRange> traces =
      DecodeTraces(bytes.data(), layout, path);

  const std::size_t n = static_cast<std::size_t>(layout.event_count);
  std::vector<double> lat(n);
  std::vector<double> lng(n);
  std::vector<util::Timestamp> time(n);
  if (n > 0) {
    std::memcpy(lat.data(), bytes.data() + layout.section(kSectionLat).offset,
                n * 8);
    std::memcpy(lng.data(), bytes.data() + layout.section(kSectionLng).offset,
                n * 8);
    std::memcpy(time.data(),
                bytes.data() + layout.section(kSectionTime).offset, n * 8);
  }
  try {
    return EventStore::FromColumns(std::move(names), std::move(traces),
                                   std::move(lat), std::move(lng),
                                   std::move(time));
  } catch (const std::invalid_argument& e) {
    Corrupt(path, e.what());
  }
}

// ---- MappedColumnar ---------------------------------------------------------

void MappedColumnar::Reset() noexcept {
#if MOBIPRIV_HAS_MMAP
  if (is_mmap_ && base_ != nullptr) {
    ::munmap(const_cast<std::byte*>(base_), size_);
  }
#endif
  base_ = nullptr;
  size_ = 0;
  is_mmap_ = false;
  owned_.clear();
  lat_ = nullptr;
  lng_ = nullptr;
  time_ = nullptr;
  events_ = 0;
  traces_.clear();
  names_.clear();
}

MappedColumnar::~MappedColumnar() { Reset(); }

MappedColumnar::MappedColumnar(MappedColumnar&& other) noexcept {
  *this = std::move(other);
}

MappedColumnar& MappedColumnar::operator=(MappedColumnar&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  base_ = std::exchange(other.base_, nullptr);
  size_ = std::exchange(other.size_, 0);
  is_mmap_ = std::exchange(other.is_mmap_, false);
  owned_ = std::move(other.owned_);
  lat_ = std::exchange(other.lat_, nullptr);
  lng_ = std::exchange(other.lng_, nullptr);
  time_ = std::exchange(other.time_, nullptr);
  events_ = std::exchange(other.events_, 0);
  traces_ = std::move(other.traces_);
  names_ = std::move(other.names_);
  other.owned_.clear();
  other.traces_.clear();
  other.names_.clear();
  return *this;
}

MappedColumnar MappedColumnar::Open(const std::string& path,
                                    ColumnarMapOptions options) {
  if (MOBIPRIV_FAULT_POINT(fault::points::kColumnarMapOpen)) {
    throw IoError("injected fault (" +
                  std::string(fault::points::kColumnarMapOpen) +
                  "): cannot mmap " + path);
  }
  MappedColumnar mapped;
#if MOBIPRIV_HAS_MMAP
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open " + path + ErrnoSuffix());
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string detail = ErrnoSuffix();
    ::close(fd);
    throw IoError("cannot stat " + path + detail);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    const std::string detail = addr == MAP_FAILED ? ErrnoSuffix() : "";
    ::close(fd);
    if (addr == MAP_FAILED) throw IoError("cannot mmap " + path + detail);
    mapped.base_ = static_cast<const std::byte*>(addr);
    mapped.size_ = size;
    mapped.is_mmap_ = true;
  } else {
    ::close(fd);
  }
#else
  mapped.owned_ = SlurpFile(path);
  mapped.base_ = mapped.owned_.data();
  mapped.size_ = mapped.owned_.size();
#endif

  try {
    // ParseAndValidate checks the recorded file size against the actual
    // mapped length and every section's bounds BEFORE any column pointer
    // below is formed — a truncated file is a clean IoError here, never a
    // SIGBUS on first page touch past EOF.
    const ParsedLayout layout = ParseAndValidate(
        mapped.base_, mapped.size_, path, options.verify_checksums);
    mapped.names_ = DecodeNames(mapped.base_, layout, path);
    mapped.traces_ = DecodeTraces(mapped.base_, layout, path);
    mapped.events_ = static_cast<std::size_t>(layout.event_count);
    if (mapped.events_ > 0) {
      mapped.lat_ = reinterpret_cast<const double*>(
          mapped.base_ + layout.section(kSectionLat).offset);
      mapped.lng_ = reinterpret_cast<const double*>(
          mapped.base_ + layout.section(kSectionLng).offset);
      mapped.time_ = reinterpret_cast<const util::Timestamp*>(
          mapped.base_ + layout.section(kSectionTime).offset);
    }
  } catch (...) {
    mapped.Reset();
    throw;
  }
  return mapped;
}

std::string MappedColumnar::UserName(UserId id) const {
  if (id < names_.size()) return names_[id];
  return "user" + std::to_string(id);
}

TraceView MappedColumnar::View(std::size_t trace) const {
  const EventStore::TraceRange& range = traces_[trace];
  const std::size_t n = range.end - range.begin;
  return TraceView(
      range.user,
      StridedSpan<double>(n ? lat_ + range.begin : nullptr, n,
                          sizeof(double)),
      StridedSpan<double>(n ? lng_ + range.begin : nullptr, n,
                          sizeof(double)),
      StridedSpan<util::Timestamp>(n ? time_ + range.begin : nullptr, n,
                                   sizeof(util::Timestamp)));
}

DatasetView MappedColumnar::View() const {
  std::vector<TraceView> traces;
  traces.reserve(traces_.size());
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    traces.push_back(View(t));
  }
  return DatasetView(std::move(traces), names_.size(), names_);
}

Dataset MappedColumnar::ToDataset() const { return View().Materialize(); }

MappedColumnar MapColumnar(const std::string& path,
                           ColumnarMapOptions options) {
  return MappedColumnar::Open(path, options);
}

// ---- Extension-dispatched convenience entry points --------------------------

bool IsColumnarPath(const std::string& path) {
  const std::string_view ext = kColumnarExtension;
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

Dataset LoadDataset(const std::string& path) {
  if (IsColumnarPath(path)) return ReadColumnar(path).ToDataset();
  return ReadCsvFile(path);
}

void SaveDataset(const Dataset& dataset, const std::string& path) {
  if (IsColumnarPath(path)) {
    WriteColumnar(EventStore::FromDataset(dataset), path);
  } else {
    WriteCsvFile(dataset, path);
  }
}

}  // namespace mobipriv::model
