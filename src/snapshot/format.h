// The .esnap wire format: framing, versioning, and the byte-level
// encode/decode primitives shared by writer and reader.
//
// A snapshot file persists the per-trace analysis shards (core/analyzer.h
// TraceShard) of a subset of a dataset's traces, so that shard processes on
// different machines can analyze disjoint trace ranges and a merge process
// can fold the snapshots into a DatasetAnalysis bit-identical to a
// single-process run.  Layout:
//
//   file    := magic[8] version:u32 section* end-section
//   section := type:u32 length:u64 payload[length] crc32:u32
//
// All integers are little-endian regardless of host byte order; doubles
// travel as the little-endian bytes of their IEEE-754 bit pattern.  The
// CRC-32 (IEEE/zlib polynomial) covers the payload bytes only, so every
// section is independently verifiable.  Section types form a registry
// (SectionType below); per-trace sections carry their global trace index as
// the first payload field and appear in the fixed order kTraceHeader ..
// kCaptureQuality, one run per trace.
//
// Decode treats files as untrusted input: bad magic, unsupported versions,
// truncation (at the file, section, or field level), CRC mismatches and
// unknown section types are all rejected with a SnapshotError naming the
// absolute byte offset — never undefined behavior.  A version bump is
// required for any change to section layout; readers reject versions they
// do not know (no silent forward parsing).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace entrace::snapshot {

inline constexpr std::size_t kMagicSize = 8;
inline constexpr char kMagic[kMagicSize] = {'E', 'N', 'T', 'R', 'S', 'N', 'A', 'P'};
// v2: kTraceMetrics section added to the per-trace run, and the anomaly
// taxonomy gained kTcpTupleReuse (the kCaptureQuality section embeds the
// kind count, so v1 readers reject v2 files at the version check first).
// v3: each encoded connection carries open_seq (u64, per-trace open order),
// the reassembly key the windowed incremental engine uses to merge
// per-window connection deltas back into exact batch deque order.
inline constexpr std::uint32_t kFormatVersion = 3;
// magic + version: where the first section begins.
inline constexpr std::size_t kHeaderSize = kMagicSize + 4;
// type + length preceding each payload, and the trailing crc.
inline constexpr std::size_t kSectionHeaderSize = 4 + 8;
inline constexpr std::size_t kSectionTrailerSize = 4;

// The section registry.  Dataset-level sections first, then the per-trace
// run (fixed order, one run per trace shard), then the end marker.
enum class SectionType : std::uint32_t {
  kDatasetMeta = 0x01,  // dataset name, scale, total trace count

  kTraceHeader = 0x10,      // trace index, subnet id, headline tallies, L3
  kIpProtoCounts = 0x11,    // 256 per-protocol packet counters
  kHostSets = 0x12,         // monitored / lbnl / remote host sets
  kScannerState = 0x13,     // per-source first-contact observations
  kDynamicEndpoints = 0x14, // DCE/RPC endpoints learned from EPM traffic
  kConnections = 0x15,      // flow-table connection summaries
  kAppEvents = 0x16,        // application events (conns by index)
  kTraceLoad = 0x17,        // §6 utilization series + retransmission tallies
  kCaptureQuality = 0x18,   // packet accounting + anomaly counters
  kTraceMetrics = 0x19,     // semantic-class telemetry (obs::Registry), v2+

  kEnd = 0x7F,  // zero-length terminator; absence means truncation
};

// Stable name for error messages and tests.
const char* to_string(SectionType type);

// CRC-32 (IEEE 802.3 polynomial, reflected — the zlib crc32) over bytes,
// computed slicing-by-8 (eight bytes per step).
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

// Decode failure; `offset` is the absolute file offset the failure was
// detected at, and what() always names it.  `kind` separates the two ways
// a snapshot can be bad — cut short (a worker died mid-write; the bytes
// that exist may be fine) versus malformed (framing/CRC/enum damage in
// bytes that are all present) — because a supervisor retries and accounts
// for them as different worker faults (src/orchestrate).
class SnapshotError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kMalformed,  // structural damage: bad magic/version/CRC/enums/framing
    kTruncated,  // the file ends before the declared content does
  };

  SnapshotError(std::size_t offset, const std::string& message, Kind kind = Kind::kMalformed)
      : std::runtime_error("snapshot error at byte offset " + std::to_string(offset) + ": " +
                           message),
        offset_(offset),
        kind_(kind) {}

  std::size_t offset() const { return offset_; }
  Kind kind() const { return kind_; }

 private:
  std::size_t offset_;
  Kind kind_;
};

// ---- little-endian encode ---------------------------------------------------

// Store the low `n` bytes of v at out, least significant byte first.
inline void store_le(std::uint8_t* out, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) { append<2>(v); }
  void u32(std::uint32_t v) { append<4>(v); }
  void u64(std::uint64_t v) { append<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  // Bytes copied as they are, with no length prefix.
  void raw(std::span<const std::uint8_t> b) {
    if (!b.empty()) std::memcpy(grow(b.size()), b.data(), b.size());
  }

  // The bytes written so far; invalidated by the next write.
  std::span<const std::uint8_t> bytes() const { return {buf_.data(), size_}; }

 private:
  template <std::size_t N>
  void append(std::uint64_t v) {
    store_le(grow(N), v, N);
  }

  // Reserve the next n bytes and return where they start.  buf_ is kept
  // as long as its capacity and size_ counts the bytes in use, so a field
  // costs one compare and an add: no per-byte push_back, no resize call.
  std::uint8_t* grow(std::size_t n) {
    if (buf_.size() - size_ < n) [[unlikely]] expand(n);
    std::uint8_t* out = buf_.data() + size_;
    size_ += n;
    return out;
  }
  void expand(std::size_t n);  // out of line: keeps grow() small enough to inline

  static constexpr std::size_t kMinBuffer = 256;
  std::vector<std::uint8_t> buf_;
  std::size_t size_ = 0;
};

// ---- little-endian decode ---------------------------------------------------

// Load `n` <= 8 bytes at p as a little-endian integer.
inline std::uint64_t load_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Reads a section payload; `base_offset` is the payload's absolute file
// offset so every underflow error names the exact byte it happened at.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, std::size_t base_offset)
      : bytes_(bytes), base_(base_offset) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take<1>()); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take<4>()); }
  std::uint64_t u64() { return take<8>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n, "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t offset() const { return base_ + pos_; }

  // Every payload must be consumed exactly; trailing bytes mean the
  // section layout and the format version disagree.
  void expect_end(const char* section_name) {
    if (pos_ != bytes_.size()) {
      throw SnapshotError(offset(), std::string(section_name) + " section has " +
                                        std::to_string(remaining()) +
                                        " undecoded trailing bytes");
    }
  }

 private:
  template <std::size_t N>
  std::uint64_t take() {
    need(N, "field");
    const std::uint64_t v = load_le(bytes_.data() + pos_, N);
    pos_ += N;
    return v;
  }
  // The bounds check stays inline on every field read; building the error
  // is kept out of line so it does not stop the check from inlining.
  void need(std::size_t n, const char* what) const {
    if (bytes_.size() - pos_ < n) [[unlikely]] throw_truncated(n, what);
  }
  [[noreturn]] void throw_truncated(std::size_t n, const char* what) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t base_;
  std::size_t pos_ = 0;
};

// Dataset-level metadata: enough for entrace_merge to rebuild the
// DatasetSpec (report headers need it) and to check shard compatibility.
struct SnapshotMeta {
  std::string dataset;           // "D0".."D4" (dataset_by_name key)
  double scale = 0.0;            // generation scale, bit-exact
  std::uint32_t trace_count = 0; // traces in the FULL dataset, not this file

  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

}  // namespace entrace::snapshot
