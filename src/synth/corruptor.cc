#include "synth/corruptor.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "net/encoder.h"

namespace entrace {
namespace {

constexpr std::size_t kEthSize = 14;
constexpr std::size_t kIpEnd = kEthSize + 20;   // minimal IPv4 header end
constexpr std::size_t kL4End = kIpEnd + 20;     // TCP header end (UDP is shorter)

// XOR a byte with a guaranteed-nonzero mask so the fault always changes it.
void flip_byte(std::vector<std::uint8_t>& data, std::size_t at, Rng& rng) {
  data[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
}

// Is this a full Ethernet+IPv4 frame we can locate header fields in?
bool is_ipv4_frame(const std::vector<std::uint8_t>& data) {
  return data.size() >= kIpEnd && data[12] == 0x08 && data[13] == 0x00 &&
         (data[kEthSize] >> 4) == 4;
}

std::size_t ip_header_len(const std::vector<std::uint8_t>& data) {
  return static_cast<std::size_t>(data[kEthSize] & 0x0F) * 4;
}

// Apply one fault to the packet at `i` of `out`.  Returns the fault actually
// applied: faults that need structure the packet lacks (e.g. kBadL4Checksum
// on a non-IP frame) degrade to a plain byte flip so a drawn fault never
// becomes a silent no-op.
FaultKind apply_fault(std::vector<RawPacket>& out, std::size_t i, FaultKind kind, Rng& rng) {
  RawPacket& pkt = out[i];
  std::vector<std::uint8_t>& data = pkt.data;

  // Degrade structure-dependent faults on packets that lack the structure.
  const bool ipv4 = is_ipv4_frame(data);
  switch (kind) {
    case FaultKind::kBadIpChecksum:
    case FaultKind::kGarbageIpOptions:
      if (!ipv4) kind = FaultKind::kFlipL2;
      break;
    case FaultKind::kBadL4Checksum:
    case FaultKind::kGarbageTcpOptions:
    case FaultKind::kPortZero: {
      const bool has_l4 =
          ipv4 && data.size() >= kEthSize + ip_header_len(data) + 8 &&
          (data[kEthSize + 9] == 6 || data[kEthSize + 9] == 17);
      if (!has_l4) kind = FaultKind::kFlipL3;
      break;
    }
    default:
      break;
  }
  if (data.empty()) {
    switch (kind) {
      case FaultKind::kDuplicate:
      case FaultKind::kReorder:
      case FaultKind::kDrop:
      case FaultKind::kZeroCapture:
        break;  // still meaningful on an empty capture
      default:
        kind = FaultKind::kZeroCapture;
        break;
    }
  }

  switch (kind) {
    case FaultKind::kTruncateCapture:
      // Keep wire_len: models snaplen clipping / a truncated pcap record.
      data.resize(rng.uniform_int(0, data.size() - 1));
      break;
    case FaultKind::kZeroCapture:
      data.clear();
      break;
    case FaultKind::kFlipL2:
      flip_byte(data, rng.uniform_int(0, std::min(data.size(), kEthSize) - 1), rng);
      break;
    case FaultKind::kFlipL3:
      if (data.size() <= kEthSize) return apply_fault(out, i, FaultKind::kFlipL2, rng);
      flip_byte(data, rng.uniform_int(kEthSize, std::min(data.size(), kIpEnd) - 1), rng);
      break;
    case FaultKind::kFlipL4:
      if (data.size() <= kIpEnd) return apply_fault(out, i, FaultKind::kFlipL3, rng);
      flip_byte(data, rng.uniform_int(kIpEnd, std::min(data.size(), kL4End) - 1), rng);
      break;
    case FaultKind::kFlipPayload:
      if (data.size() <= kL4End) return apply_fault(out, i, FaultKind::kFlipL4, rng);
      flip_byte(data, rng.uniform_int(kL4End, data.size() - 1), rng);
      break;
    case FaultKind::kBadIpChecksum:
      // The IPv4 header checksum lives at offset 10-11 of the IP header.
      flip_byte(data, kEthSize + 10 + rng.uniform_int(0, 1), rng);
      break;
    case FaultKind::kBadL4Checksum: {
      const std::size_t l4 = kEthSize + ip_header_len(data);
      const std::size_t off = data[kEthSize + 9] == 6 ? l4 + 16 : l4 + 6;
      if (off + 1 >= data.size()) return apply_fault(out, i, FaultKind::kFlipL4, rng);
      flip_byte(data, off + rng.uniform_int(0, 1), rng);
      break;
    }
    case FaultKind::kGarbageIpOptions:
      // Raise the IHL nibble: the header claims options that are really the
      // first transport bytes, so the checksum fails or the header runs past
      // the capture.
      data[kEthSize] = static_cast<std::uint8_t>(
          0x40 | static_cast<std::uint8_t>(rng.uniform_int(6, 15)));
      break;
    case FaultKind::kGarbageTcpOptions: {
      // Rewrite the data-offset nibble: < 5 is malformed outright, > 5
      // claims option bytes that are really payload.
      const std::size_t l4 = kEthSize + ip_header_len(data);
      if (data[kEthSize + 9] != 6 || l4 + 13 > data.size()) {
        return apply_fault(out, i, FaultKind::kFlipL4, rng);
      }
      std::uint64_t nib = rng.uniform_int(0, 14);
      if (nib >= 5) ++nib;  // skip the correct value for a bare header
      data[l4 + 12] = static_cast<std::uint8_t>(
          (nib << 4) | (data[l4 + 12] & 0x0F));
      break;
    }
    case FaultKind::kDuplicate:
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(i) + 1, out[i]);
      break;
    case FaultKind::kReorder:
      if (i == 0) return apply_fault(out, i, FaultKind::kDuplicate, rng);
      std::swap(out[i - 1], out[i]);
      std::swap(out[i - 1].ts, out[i].ts);  // keep timestamps monotonic
      break;
    case FaultKind::kDrop:
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case FaultKind::kPortZero: {
      const std::size_t l4 = kEthSize + ip_header_len(data);
      const std::size_t off = l4 + (rng.bernoulli(0.5) ? 0 : 2);
      if (off + 1 >= data.size()) return apply_fault(out, i, FaultKind::kFlipL4, rng);
      data[off] = 0;
      data[off + 1] = 0;
      // Re-fix the transport checksum: the anomaly is the reserved port
      // itself, not a checksum artifact of rewriting it.
      fix_l4_checksum(data);
      break;
    }
    case FaultKind::kCount:
      break;
  }
  return kind;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTruncateCapture: return "truncate-capture";
    case FaultKind::kZeroCapture: return "zero-capture";
    case FaultKind::kFlipL2: return "flip-l2";
    case FaultKind::kFlipL3: return "flip-l3";
    case FaultKind::kFlipL4: return "flip-l4";
    case FaultKind::kFlipPayload: return "flip-payload";
    case FaultKind::kBadIpChecksum: return "bad-ip-checksum";
    case FaultKind::kBadL4Checksum: return "bad-l4-checksum";
    case FaultKind::kGarbageIpOptions: return "garbage-ip-options";
    case FaultKind::kGarbageTcpOptions: return "garbage-tcp-options";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kPortZero: return "port-zero";
    case FaultKind::kCount: break;
  }
  return "unknown";
}

std::map<std::string, std::uint64_t> CorruptionSummary::as_map() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    if (applied[i] != 0) out.emplace(to_string(static_cast<FaultKind>(i)), applied[i]);
  }
  return out;
}

CorruptionSummary corrupt_trace(Trace& trace, const CorruptionConfig& config, Rng rng) {
  CorruptionSummary summary;
  std::vector<RawPacket> out = std::move(trace.packets);
  // Walk by index: kDuplicate/kDrop change the vector size.  A duplicated
  // packet is skipped (the copy is not corrupted again); after a drop the
  // next packet shifts into the current slot.
  for (std::size_t i = 0; i < out.size();) {
    if (!rng.bernoulli(config.rate)) {
      ++i;
      continue;
    }
    const auto drawn = static_cast<FaultKind>(
        rng.weighted(std::span<const double>(config.weights.data(), config.weights.size())));
    const FaultKind applied = apply_fault(out, i, drawn, rng);
    // apply_fault never returns kCount, but say so: the tally is indexed by
    // the result.
    const auto slot = static_cast<std::size_t>(applied);
    if (slot < kFaultKindCount) ++summary.applied[slot];
    switch (applied) {
      case FaultKind::kDrop:
        break;  // next packet moved into slot i
      case FaultKind::kDuplicate:
        i += 2;
        break;
      default:
        ++i;
        break;
    }
  }
  trace.packets = std::move(out);
  return summary;
}

CorruptionSummary corrupt_dataset(TraceSet& traces, const CorruptionConfig& config) {
  CorruptionSummary summary;
  Rng base(config.seed);
  for (std::size_t i = 0; i < traces.traces.size(); ++i) {
    summary.merge(corrupt_trace(traces.traces[i], config, base.fork(i)));
  }
  return summary;
}

}  // namespace entrace
