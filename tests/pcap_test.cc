// Tests for the pcap file format implementation and trace containers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "net/encoder.h"
#include "pcap/format.h"
#include "pcap/packet_source.h"
#include "pcap/reader.h"
#include "pcap/trace.h"
#include "pcap/writer.h"

namespace entrace {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

RawPacket sample_packet(double ts, std::size_t payload) {
  FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                    Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2)};
  RawPacket pkt;
  pkt.ts = ts;
  pkt.data = make_udp_frame(ep, 1000, 2000, filler_payload(payload));
  pkt.wire_len = static_cast<std::uint32_t>(pkt.data.size());
  return pkt;
}

TEST(Pcap, WriteReadRoundTrip) {
  const std::string path = temp_path("entrace_roundtrip.pcap");
  {
    PcapWriter writer(path, 1500);
    writer.write(sample_packet(1.5, 100));
    writer.write(sample_packet(2.25, 300));
    EXPECT_EQ(writer.packets_written(), 2u);
  }
  PcapReader reader(path);
  EXPECT_EQ(reader.snaplen(), 1500u);
  EXPECT_EQ(reader.link_type(), pcapfmt::kLinkTypeEthernet);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_NEAR(p1->ts, 1.5, 1e-6);
  EXPECT_EQ(p1->data.size(), sample_packet(0, 100).data.size());
  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_NEAR(p2->ts, 2.25, 1e-6);
  EXPECT_FALSE(reader.next().has_value());
  std::remove(path.c_str());
}

// A timestamp within half a microsecond below a whole second rounds up to
// that second; it must not lose the carry and land a second early, before
// a packet it followed.
TEST(Pcap, MicrosecondRoundingCarriesIntoSeconds) {
  const std::string path = temp_path("entrace_carry.pcap");
  {
    PcapWriter writer(path, 1500);
    writer.write(sample_packet(5.2, 100));
    writer.write(sample_packet(5.9999996, 100));
  }
  PcapReader reader(path);
  const auto p1 = reader.next();
  const auto p2 = reader.next();
  ASSERT_TRUE(p1.has_value() && p2.has_value());
  EXPECT_NEAR(p1->ts, 5.2, 1e-6);
  EXPECT_NEAR(p2->ts, 6.0, 1e-6);
  EXPECT_LT(p1->ts, p2->ts);
  std::remove(path.c_str());
}

TEST(Pcap, SnaplenTruncatesButKeepsWireLen) {
  const std::string path = temp_path("entrace_snap.pcap");
  {
    PcapWriter writer(path, 68);
    writer.write(sample_packet(0.0, 1000));
  }
  PcapReader reader(path);
  auto p = reader.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->data.size(), 68u);
  EXPECT_EQ(p->wire_len, sample_packet(0, 1000).data.size());
  std::remove(path.c_str());
}

TEST(Pcap, ReaderRejectsBadMagic) {
  const std::string path = temp_path("entrace_bad.pcap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[24] = "not a pcap file at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(PcapReader reader(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ReaderHandlesSwappedByteOrder) {
  const std::string path = temp_path("entrace_swapped.pcap");
  // Hand-build a big-endian pcap file with one 4-byte record.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  auto be32 = [&f](std::uint32_t v) {
    std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
                         static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 4, f);
  };
  auto be16 = [&f](std::uint16_t v) {
    std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 2, f);
  };
  be32(pcapfmt::kMagicUsec);  // written big-endian => appears swapped to LE reader
  be16(2);
  be16(4);
  be32(0);
  be32(0);
  be32(1500);
  be32(1);
  be32(10);  // sec
  be32(500000);  // usec
  be32(4);   // caplen
  be32(4);   // wirelen
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  std::fwrite(payload, 1, 4, f);
  std::fclose(f);

  PcapReader reader(path);
  EXPECT_EQ(reader.snaplen(), 1500u);
  auto p = reader.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->ts, 10.5, 1e-6);
  ASSERT_EQ(p->data.size(), 4u);
  EXPECT_EQ(p->data[2], 3);
  std::remove(path.c_str());
}

TEST(Pcap, EmptyFileErrorIsDistinctFromBadMagic) {
  const std::string path = temp_path("entrace_empty.pcap");
  std::fclose(std::fopen(path.c_str(), "wb"));
  try {
    PcapReader reader(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty"), std::string::npos) << what;
    EXPECT_EQ(what.find("bad magic"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Pcap, ShortGlobalHeaderErrorNamesByteCount) {
  const std::string path = temp_path("entrace_shorthdr.pcap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const std::uint8_t magic[4] = {0xD4, 0xC3, 0xB2, 0xA1};
  std::fwrite(magic, 1, sizeof(magic), f);
  std::fclose(f);
  try {
    PcapReader reader(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("short global header"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Pcap, BadMagicErrorNamesOffsetAndObservedValue) {
  const std::string path = temp_path("entrace_badmagic.pcap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[24] = "not a pcap file at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  try {
    PcapReader reader(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    // 'n','o','t',' ' read little-endian is 0x20746F6E.
    EXPECT_NE(what.find("0x20746F6E"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 0"), std::string::npos) << what;
  }
  // The non-throwing factory reports the same message instead of throwing.
  std::string error;
  EXPECT_EQ(PcapReader::open(path, &error), nullptr);
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

// A capture cut off mid-record (tracer killed, disk full): the throwing
// reader drops the partial trailing record as EOF; the recoverable reader
// salvages the bytes it got.  Both classify the damage.
class PcapTruncationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("entrace_midrec.pcap");
    {
      // Scoped: the writer must flush and close before the file is cut.
      PcapWriter writer(path_, 1500);
      writer.write(sample_packet(1.0, 100));  // frame: 14+20+8+100 = 142 bytes
      writer.write(sample_packet(2.0, 300));  // frame: 342 bytes
    }
    // Global header 24 + (16 + 142) + 16 record header + 100 of 342 body.
    std::filesystem::resize_file(path_, 24 + 16 + 142 + 16 + 100);
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PcapTruncationTest, ThrowingReaderDropsPartialTrailingRecord) {
  PcapReader reader(path_);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->data.size(), 142u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.anomalies()[AnomalyKind::kPcapTruncatedRecord], 1u);
}

TEST_F(PcapTruncationTest, RecoverableReaderSalvagesPartialBody) {
  std::string error;
  auto reader = PcapReader::open(path_, &error);
  ASSERT_NE(reader, nullptr) << error;
  auto p1 = reader->next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->data.size(), 142u);
  auto p2 = reader->next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->data.size(), 100u);   // the bytes that made it to disk
  EXPECT_EQ(p2->wire_len, 342u);      // original length is still known
  EXPECT_FALSE(reader->next().has_value());
  EXPECT_EQ(reader->anomalies()[AnomalyKind::kPcapTruncatedRecord], 1u);
}

TEST_F(PcapTruncationTest, TryLoadSalvagesAndRecordsFileAnomalies) {
  std::string error;
  const auto trace = Trace::try_load(path_, "cut", 7, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  ASSERT_EQ(trace->packets.size(), 2u);
  EXPECT_EQ(trace->packets[1].data.size(), 100u);
  EXPECT_EQ(trace->file_anomalies[AnomalyKind::kPcapTruncatedRecord], 1u);
}

TEST(Pcap, TryLoadReportsUnopenableFile) {
  std::string error;
  const auto trace = Trace::try_load(temp_path("entrace_does_not_exist.pcap"),
                                     "missing", -1, &error);
  EXPECT_FALSE(trace.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Pcap, SwappedByteOrderMultiRecordWithShortTrailer) {
  const std::string path = temp_path("entrace_swapped_multi.pcap");
  // Hand-build a big-endian pcap file: two records plus 8 stray trailing
  // bytes (too short even for a record header).
  std::FILE* f = std::fopen(path.c_str(), "wb");
  auto be32 = [&f](std::uint32_t v) {
    std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
                         static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 4, f);
  };
  auto be16 = [&f](std::uint16_t v) {
    std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 2, f);
  };
  be32(pcapfmt::kMagicUsec);
  be16(2);
  be16(4);
  be32(0);
  be32(0);
  be32(1500);
  be32(1);
  const std::uint8_t payload[6] = {1, 2, 3, 4, 5, 6};
  be32(10); be32(250000); be32(4); be32(4);
  std::fwrite(payload, 1, 4, f);
  be32(11); be32(750000); be32(6); be32(6);
  std::fwrite(payload, 1, 6, f);
  be32(99); be32(0);  // 8 orphan bytes: a record header needs 16
  std::fclose(f);

  PcapReader reader(path);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_NEAR(p1->ts, 10.25, 1e-6);
  ASSERT_EQ(p1->data.size(), 4u);
  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_NEAR(p2->ts, 11.75, 1e-6);
  ASSERT_EQ(p2->data.size(), 6u);
  EXPECT_EQ(p2->data[5], 6);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.anomalies()[AnomalyKind::kPcapShortRecordHeader], 1u);
  std::remove(path.c_str());
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace t;
  t.name = "unit";
  t.snaplen = 1500;
  t.packets.push_back(sample_packet(0.5, 40));
  t.packets.push_back(sample_packet(1.0, 60));
  t.start_ts = 0.5;
  t.duration = 0.5;
  const std::string path = temp_path("entrace_trace.pcap");
  t.save(path);
  const Trace loaded = Trace::load(path, "unit", 3);
  EXPECT_EQ(loaded.packets.size(), 2u);
  EXPECT_EQ(loaded.subnet_id, 3);
  EXPECT_EQ(loaded.snaplen, 1500u);
  EXPECT_EQ(loaded.total_wire_bytes(), t.total_wire_bytes());
  std::remove(path.c_str());
}

TEST(Trace, ApplySnaplen) {
  Trace t;
  t.snaplen = 68;
  t.packets.push_back(sample_packet(0.0, 500));
  t.apply_snaplen();
  EXPECT_EQ(t.packets[0].data.size(), 68u);
  EXPECT_GT(t.packets[0].wire_len, 68u);
}

// What a merged stream delivered, per packet (views die on the next call).
struct Delivered {
  double ts;
  std::size_t bytes;
  std::uint32_t source;
};

// Drains `stream` through next_batch, batch size 3 (the final batch comes up
// short), and checks that the stream stays drained: next_batch keeps
// returning 0.
std::vector<Delivered> drain(MergedPacketStream& stream) {
  std::vector<PacketView> views(3);
  std::vector<Delivered> out;
  while (const std::size_t got = stream.next_batch(views.data(), views.size())) {
    for (std::size_t i = 0; i < got; ++i) {
      out.push_back({views[i].ts, views[i].data.size(), views[i].source});
    }
  }
  EXPECT_EQ(stream.next_batch(views.data(), views.size()), 0u);  // stays drained
  return out;
}

std::vector<double> timestamps(const std::vector<Delivered>& d) {
  std::vector<double> out;
  for (const Delivered& x : d) out.push_back(x.ts);
  return out;
}

// The old TraceSet::merged() materialized a pointer vector over every
// packet of every trace; merged_stream() is its streaming replacement — a
// k-way merge holding one buffered batch per source.
TEST(MergedPacketStream, InterleavesTracesInTimestampOrder) {
  TraceSet set;
  Trace a, b;
  a.packets.push_back(sample_packet(1.0, 10));
  a.packets.push_back(sample_packet(3.0, 10));
  b.packets.push_back(sample_packet(2.0, 10));
  b.packets.push_back(sample_packet(4.0, 10));
  set.traces.push_back(std::move(a));
  set.traces.push_back(std::move(b));
  EXPECT_EQ(set.total_packets(), 4u);

  MergedPacketStream stream = merged_stream(set);
  const std::vector<double> expected{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(timestamps(drain(stream)), expected);
}

TEST(MergedPacketStream, EqualTimestampsKeepSourceOrder) {
  // Ties resolve by source index (the stable order the old merged() kept),
  // and each view is attributed to its sub-source.
  Trace a, b;
  a.packets.push_back(sample_packet(1.0, 16));
  a.packets.push_back(sample_packet(2.0, 16));
  b.packets.push_back(sample_packet(1.0, 48));
  b.packets.push_back(sample_packet(2.0, 48));

  std::vector<std::unique_ptr<PacketSource>> sources;
  sources.push_back(std::make_unique<MemoryTraceSource>(b));  // source 0: the 48s
  sources.push_back(std::make_unique<MemoryTraceSource>(a));  // source 1: the 16s
  MergedPacketStream stream{std::move(sources)};

  std::vector<std::size_t> sizes;
  std::vector<std::uint32_t> origin;
  for (const Delivered& d : drain(stream)) {
    sizes.push_back(d.bytes);
    origin.push_back(d.source);
  }
  const std::size_t s16 = sample_packet(0, 16).data.size();
  const std::size_t s48 = sample_packet(0, 48).data.size();
  const std::vector<std::size_t> expected{s48, s16, s48, s16};
  EXPECT_EQ(sizes, expected);
  const std::vector<std::uint32_t> expected_origin{0, 1, 0, 1};
  EXPECT_EQ(origin, expected_origin);
}

TEST(MergedPacketStream, StreamsPcapFilesWithoutLoadingThem) {
  const std::string p1 = temp_path("entrace_merge1.pcap");
  const std::string p2 = temp_path("entrace_merge2.pcap");
  {
    PcapWriter w1(p1, 1500);
    w1.write(sample_packet(1.0, 10));
    w1.write(sample_packet(5.0, 10));
    PcapWriter w2(p2, 1500);
    w2.write(sample_packet(2.0, 10));
    w2.write(sample_packet(3.0, 10));
  }
  std::vector<std::unique_ptr<PacketSource>> sources;
  sources.push_back(std::make_unique<PcapFileSource>(p1));
  sources.push_back(std::make_unique<PcapFileSource>(p2));
  MergedPacketStream stream{std::move(sources)};
  const std::vector<double> expected{1.0, 2.0, 3.0, 5.0};
  EXPECT_EQ(timestamps(drain(stream)), expected);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

}  // namespace
}  // namespace entrace
