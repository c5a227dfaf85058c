// pcap capture-file writer with snaplen enforcement.
//
// The generator writes each monitored subnet's traffic through a Writer
// configured with the dataset's snaplen (68 for D1/D2, 1500 for the rest),
// so downstream analysis sees exactly the truncation the paper saw.
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "net/packet.h"

namespace entrace {

class PcapWriter {
 public:
  // Creates/truncates the file and writes the global header.
  // Throws std::runtime_error if the file cannot be opened.
  PcapWriter(const std::string& path, std::uint32_t snaplen);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  // Writes a record; data beyond the snaplen is truncated.
  void write(double ts, std::uint32_t wire_len, std::span<const std::uint8_t> data);
  void write(const RawPacket& pkt) { write(pkt.ts, pkt.wire_len, pkt.data); }

  std::uint64_t packets_written() const { return packets_; }
  std::uint32_t snaplen() const { return snaplen_; }

  void flush();

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::uint32_t snaplen_;
  std::uint64_t packets_ = 0;
};

}  // namespace entrace
