#include "snapshot/format.h"

#include <algorithm>
#include <array>

namespace entrace::snapshot {

const char* to_string(SectionType type) {
  switch (type) {
    case SectionType::kDatasetMeta: return "dataset-meta";
    case SectionType::kTraceHeader: return "trace-header";
    case SectionType::kIpProtoCounts: return "ip-proto-counts";
    case SectionType::kHostSets: return "host-sets";
    case SectionType::kScannerState: return "scanner-state";
    case SectionType::kDynamicEndpoints: return "dynamic-endpoints";
    case SectionType::kConnections: return "connections";
    case SectionType::kAppEvents: return "app-events";
    case SectionType::kTraceLoad: return "trace-load";
    case SectionType::kCaptureQuality: return "capture-quality";
    case SectionType::kTraceMetrics: return "trace-metrics";
    case SectionType::kEnd: return "end";
  }
  return "unknown";
}

void ByteWriter::expand(std::size_t n) {
  buf_.resize(std::max({buf_.size() * 2, size_ + n, kMinBuffer}));
}

void ByteReader::throw_truncated(std::size_t n, const char* what) const {
  throw SnapshotError(offset(), std::string("section payload truncated: need ") +
                                    std::to_string(n) + " more bytes for " + what +
                                    ", payload has " + std::to_string(remaining()));
}

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the bytewise table of the reflected
// IEEE polynomial, and kCrcTables[k][b] is the CRC state after byte b
// followed by k zero bytes, so eight table lookups advance the CRC by eight
// bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const auto lo = static_cast<std::uint32_t>(load_le(p, 4)) ^ c;
    const auto hi = static_cast<std::uint32_t>(load_le(p + 4, 4));
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace entrace::snapshot
