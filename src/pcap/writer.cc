#include "pcap/writer.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "net/bytes.h"
#include "pcap/format.h"

namespace entrace {
namespace {

void put_u32le(std::vector<std::uint8_t>& v, std::uint32_t x) {
  ByteWriter w(v);
  w.u32le(x);
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : file_(std::fopen(path.c_str(), "wb")), snaplen_(snaplen) {
  if (!file_) throw std::runtime_error("PcapWriter: cannot open " + path);
  std::vector<std::uint8_t> hdr;
  hdr.reserve(pcapfmt::kGlobalHeaderSize);
  put_u32le(hdr, pcapfmt::kMagicUsec);
  ByteWriter w(hdr);
  w.u16le(pcapfmt::kVersionMajor);
  w.u16le(pcapfmt::kVersionMinor);
  w.u32le(0);  // thiszone
  w.u32le(0);  // sigfigs
  w.u32le(snaplen_);
  w.u32le(pcapfmt::kLinkTypeEthernet);
  if (std::fwrite(hdr.data(), 1, hdr.size(), file_.get()) != hdr.size())
    throw std::runtime_error("PcapWriter: header write failed");
}

PcapWriter::~PcapWriter() = default;

void PcapWriter::write(double ts, std::uint32_t wire_len, std::span<const std::uint8_t> data) {
  const std::uint32_t caplen =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(data.size()), snaplen_);
  // Round to whole microseconds before splitting, so a fraction that rounds
  // up to 1e6 carries into the seconds field.
  ts = ts < 0 ? 0.0 : ts;
  const double whole = std::floor(ts);
  const auto micros = static_cast<std::uint64_t>(whole) * 1000000 +
                      static_cast<std::uint64_t>(std::lround((ts - whole) * 1e6));
  const auto sec = static_cast<std::uint32_t>(micros / 1000000);
  const auto usec = static_cast<std::uint32_t>(micros % 1000000);

  std::vector<std::uint8_t> rec;
  rec.reserve(pcapfmt::kRecordHeaderSize + caplen);
  ByteWriter w(rec);
  w.u32le(sec);
  w.u32le(usec);
  w.u32le(caplen);
  w.u32le(wire_len);
  w.bytes(data.first(caplen));
  if (std::fwrite(rec.data(), 1, rec.size(), file_.get()) != rec.size())
    throw std::runtime_error("PcapWriter: record write failed");
  ++packets_;
}

void PcapWriter::flush() { std::fflush(file_.get()); }

}  // namespace entrace
