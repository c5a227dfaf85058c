// Snapshot & merge suite (CTest label "snapshot", also run under
// ASan+UBSan via `ctest --preset snapshot-asan`).
//
// The subsystem's contract, pinned down here:
//   1. Round-trip: encode -> decode reproduces every TraceShard field.
//   2. Partition determinism: for ANY split of a dataset's traces into
//      shard files, merging the snapshots folds to a report byte-identical
//      to single-process analyze_dataset.
//   3. Untrusted input: damaged snapshots (bad magic, future version,
//      truncation, flipped bits, missing end marker) are rejected with a
//      SnapshotError naming the byte offset — never misdecoded.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

namespace snap = entrace::snapshot;

class SnapshotTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  // D0: the paper's first dataset, small scale so the partition property
  // test can afford to analyze it several times.
  static DatasetSpec spec() { return dataset_by_name("D0", 0.004); }
  static const SyntheticTraceSourceSet& sources() {
    static const SyntheticTraceSourceSet s(spec(), model());
    return s;
  }
  static AnalyzerConfig config() { return default_config_for_model(model().site()); }

  static snap::SnapshotMeta meta() {
    return {spec().name, 0.004, static_cast<std::uint32_t>(sources().size())};
  }

  // Per-process names: ctest -j runs each test in its own process, and a
  // shared name lets one test remove a file another is still reading.
  static std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / (std::to_string(::getpid()) + "_" + name))
        .string();
  }

  // Analyze traces [lo, hi) and snapshot them to a file, shard-tool style.
  static std::string write_range(const std::string& name, std::size_t lo, std::size_t hi) {
    const std::string path = temp_path(name);
    std::vector<TraceShard> shards = analyze_trace_shards(sources(), config(), lo, hi);
    snap::SnapshotWriter writer(path, meta());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      writer.add_shard(static_cast<std::uint32_t>(lo + i), shards[i]);
    }
    writer.close();
    return path;
  }

  // A valid single-trace snapshot image (trace 0) for the byte-identity
  // and fault-injection tests, encoded through the stream-sink writer
  // without a filesystem round trip.
  static const std::vector<std::uint8_t>& valid_image() {
    static const std::vector<std::uint8_t> bytes = [] {
      const std::vector<TraceShard> shards = analyze_trace_shards(sources(), config(), 0, 1);
      std::ostringstream sink(std::ios::binary);
      snap::SnapshotWriter writer(sink, meta());
      writer.add_shard(0, shards.at(0));
      writer.close();
      const std::string image = sink.str();
      return std::vector<std::uint8_t>(image.begin(), image.end());
    }();
    return bytes;
  }

  static std::string report_of(const DatasetAnalysis& analysis) {
    const DatasetSpec s = spec();
    const report::ReportInput input{&s, &analysis};
    const std::vector<report::ReportInput> inputs{input};
    return report::full_report(inputs);
  }

  // Merge snapshot files exactly like entrace_merge: decode, order by trace
  // index, fold.
  static DatasetAnalysis merge_files(const std::vector<std::string>& paths) {
    std::vector<snap::SnapshotShard> all;
    for (const std::string& p : paths) {
      snap::Snapshot s = snap::read_snapshot(p);
      EXPECT_EQ(s.meta, meta()) << p;
      for (auto& shard : s.shards) all.push_back(std::move(shard));
    }
    std::sort(all.begin(), all.end(),
              [](const snap::SnapshotShard& a, const snap::SnapshotShard& b) {
                return a.trace_index < b.trace_index;
              });
    std::vector<TraceShard> shards;
    shards.reserve(all.size());
    for (auto& s : all) shards.push_back(std::move(s.shard));
    return fold_shards(spec().name, std::move(shards), config());
  }
};

// ---- round trip -------------------------------------------------------------

TEST_F(SnapshotTest, RoundTripReproducesEveryShardField) {
  // Analyze the same trace range twice: shards are move-only, and the
  // pipeline is deterministic, so the second run is the reference.
  const std::size_t n = std::min<std::size_t>(3, sources().size());
  const std::string path = write_range("entrace_snap_roundtrip.esnap", 0, n);
  const snap::Snapshot decoded = snap::read_snapshot(path);
  std::filesystem::remove(path);
  const std::vector<TraceShard> reference = analyze_trace_shards(sources(), config(), 0, n);

  EXPECT_EQ(decoded.meta, meta());
  ASSERT_EQ(decoded.shards.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    SCOPED_TRACE("trace " + std::to_string(t));
    const TraceShard& got = decoded.shards[t].shard;
    const TraceShard& want = reference[t];
    EXPECT_EQ(decoded.shards[t].trace_index, t);

    EXPECT_EQ(got.subnet_id, want.subnet_id);
    EXPECT_EQ(got.total_packets, want.total_packets);
    EXPECT_EQ(got.total_wire_bytes, want.total_wire_bytes);
    EXPECT_EQ(got.l3.total, want.l3.total);
    EXPECT_EQ(got.l3.ip, want.l3.ip);
    EXPECT_EQ(got.l3.arp, want.l3.arp);
    EXPECT_EQ(got.l3.ipx, want.l3.ipx);
    EXPECT_EQ(got.l3.other, want.l3.other);
    EXPECT_EQ(got.ip_proto_packets.as_map(), want.ip_proto_packets.as_map());
    EXPECT_EQ(got.monitored_hosts, want.monitored_hosts);
    EXPECT_EQ(got.lbnl_hosts, want.lbnl_hosts);
    EXPECT_EQ(got.remote_hosts, want.remote_hosts);

    // Scanner observations: same sources, same first-contact order, same
    // overflow set.
    const auto got_obs = got.detector.export_observations();
    const auto want_obs = want.detector.export_observations();
    ASSERT_EQ(got_obs.size(), want_obs.size());
    for (std::size_t i = 0; i < got_obs.size(); ++i) {
      EXPECT_EQ(got_obs[i].source, want_obs[i].source);
      EXPECT_EQ(got_obs[i].order, want_obs[i].order);
      EXPECT_EQ(got_obs[i].extra_seen, want_obs[i].extra_seen);
    }
    EXPECT_EQ(got.registry.dynamic_endpoints(), want.registry.dynamic_endpoints());

    // Connections, in flow-table order, every serialized field.
    ASSERT_TRUE(got.table != nullptr);
    const auto& gc = got.table->connections();
    const auto& wc = want.table->connections();
    ASSERT_EQ(gc.size(), wc.size());
    for (std::size_t i = 0; i < gc.size(); ++i) {
      EXPECT_EQ(gc[i].key, wc[i].key) << "connection " << i;
      EXPECT_EQ(gc[i].start_ts, wc[i].start_ts) << "connection " << i;
      EXPECT_EQ(gc[i].last_ts, wc[i].last_ts) << "connection " << i;
      EXPECT_EQ(gc[i].total_bytes(), wc[i].total_bytes()) << "connection " << i;
      EXPECT_EQ(gc[i].state, wc[i].state) << "connection " << i;
      EXPECT_EQ(gc[i].app_id, wc[i].app_id) << "connection " << i;
      EXPECT_EQ(gc[i].retransmissions, wc[i].retransmissions) << "connection " << i;
    }

    // App events: identical counts, and the conn links resolve to the
    // connection with the same key as the original's.
    EXPECT_EQ(got.events.total(), want.events.total());
    ASSERT_EQ(got.events.http.size(), want.events.http.size());
    for (std::size_t i = 0; i < got.events.http.size(); ++i) {
      EXPECT_EQ(got.events.http[i].host, want.events.http[i].host);
      EXPECT_EQ(got.events.http[i].uri, want.events.http[i].uri);
      EXPECT_EQ(got.events.http[i].resp_body_len, want.events.http[i].resp_body_len);
      ASSERT_EQ(got.events.http[i].conn != nullptr, want.events.http[i].conn != nullptr);
      if (got.events.http[i].conn != nullptr) {
        EXPECT_EQ(got.events.http[i].conn->key, want.events.http[i].conn->key);
      }
    }
    ASSERT_EQ(got.events.dns.size(), want.events.dns.size());
    for (std::size_t i = 0; i < got.events.dns.size(); ++i) {
      EXPECT_EQ(got.events.dns[i].qname, want.events.dns[i].qname);
      EXPECT_EQ(got.events.dns[i].qtype, want.events.dns[i].qtype);
    }
    EXPECT_EQ(got.events.smtp.size(), want.events.smtp.size());
    EXPECT_EQ(got.events.cifs.size(), want.events.cifs.size());
    EXPECT_EQ(got.events.dcerpc.size(), want.events.dcerpc.size());
    EXPECT_EQ(got.events.nfs.size(), want.events.nfs.size());
    EXPECT_EQ(got.events.ncp.size(), want.events.ncp.size());

    // §6 load series, bit-exact bins.
    EXPECT_EQ(got.load.trace_name, want.load.trace_name);
    EXPECT_EQ(got.load.bits_1s.bins(), want.load.bits_1s.bins());
    EXPECT_EQ(got.load.bits_10s.bins(), want.load.bits_10s.bins());
    EXPECT_EQ(got.load.bits_60s.bins(), want.load.bits_60s.bins());
    EXPECT_EQ(got.load.ent_tcp_pkts, want.load.ent_tcp_pkts);
    EXPECT_EQ(got.load.ent_retx, want.load.ent_retx);
    EXPECT_EQ(got.load.wan_tcp_pkts, want.load.wan_tcp_pkts);
    EXPECT_EQ(got.load.wan_retx, want.load.wan_retx);
    EXPECT_EQ(got.load.keepalive_excluded, want.load.keepalive_excluded);

    // Capture quality, including every anomaly counter.
    EXPECT_EQ(got.quality, want.quality);
    EXPECT_EQ(got.quality.anomalies.as_map(), want.quality.anomalies.as_map());
  }
}

// ---- partition determinism --------------------------------------------------

TEST_F(SnapshotTest, AnyPartitionMergesToIdenticalReport) {
  const std::size_t n = sources().size();
  ASSERT_GE(n, 4u);
  const DatasetAnalysis direct = analyze_dataset(sources(), config());
  const std::string want = report_of(direct);

  // Partitions: whole dataset, halves, thirds (uneven), one shard per trace.
  const std::vector<std::vector<std::size_t>> partitions = {
      {0, n},
      {0, n / 2, n},
      {0, n / 3, 2 * n / 3, n},
      [n] {
        std::vector<std::size_t> cuts(n + 1);
        for (std::size_t i = 0; i <= n; ++i) cuts[i] = i;
        return cuts;
      }(),
  };
  for (const auto& cuts : partitions) {
    SCOPED_TRACE(std::to_string(cuts.size() - 1) + " shards");
    std::vector<std::string> paths;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      paths.push_back(write_range("entrace_snap_part" + std::to_string(i) + ".esnap", cuts[i],
                                  cuts[i + 1]));
    }
    const DatasetAnalysis merged = merge_files(paths);
    for (const std::string& p : paths) std::filesystem::remove(p);

    // The accounting invariants, then the byte-identical report.
    EXPECT_EQ(merged.total_packets, merged.quality.packets_ok);
    EXPECT_EQ(merged.l3.total, merged.total_packets);
    EXPECT_EQ(merged.total_packets, direct.total_packets);
    EXPECT_EQ(report_of(merged), want);
  }
}

TEST_F(SnapshotTest, MergeIsIndependentOfShardFileOrder) {
  const std::size_t n = sources().size();
  std::vector<std::string> paths = {
      write_range("entrace_snap_ord0.esnap", 0, n / 2),
      write_range("entrace_snap_ord1.esnap", n / 2, n),
  };
  const std::string forward = report_of(merge_files(paths));
  std::swap(paths[0], paths[1]);
  const std::string reversed = report_of(merge_files(paths));
  for (const std::string& p : paths) std::filesystem::remove(p);
  EXPECT_EQ(forward, reversed);
}

// ---- byte identity ----------------------------------------------------------

// The encoded bytes themselves, not only what they decode to: trace 0 of
// D0@0.004 through the stream-sink writer, pinned by length and CRC-32.  A
// codec change that moves, widens or reframes any byte fails here even when
// it still round-trips.  Change these constants only with a kFormatVersion
// bump.
TEST_F(SnapshotTest, EncodedImageIsPinnedByLengthAndCrc) {
  const std::vector<std::uint8_t>& image = valid_image();
  EXPECT_EQ(image.size(), 38747u);
  EXPECT_EQ(snap::crc32(image), 0x0F51CBE4u);
}

// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the definition the
// table-driven snap::crc32 must agree with.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(SnapshotCrc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(snap::crc32({reinterpret_cast<const std::uint8_t*>(check.data()), check.size()}),
            0xCBF43926u);
  EXPECT_EQ(snap::crc32({}), 0u);
}

// Every start offset 0-7 (so 8-byte strides begin at each alignment) and
// lengths that exercise the tail alone, body plus tail, and long runs.
TEST(SnapshotCrc32, MatchesBitwiseReferenceAtEveryOffsetAndLength) {
  std::mt19937 rng(17);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 80; ++n) lengths.push_back(n);
  std::uniform_int_distribution<std::size_t> pick(81, 4095);
  for (int i = 0; i < 64; ++i) lengths.push_back(pick(rng));
  lengths.push_back(4096);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t n : lengths) {
      const std::span<const std::uint8_t> bytes(buf.data() + offset, n);
      ASSERT_EQ(snap::crc32(bytes), bitwise_crc32(bytes)) << "offset " << offset << " length " << n;
    }
  }
}

// ---- untrusted input --------------------------------------------------------

using snap::SnapshotError;

TEST_F(SnapshotTest, RejectsWrongMagic) {
  std::vector<std::uint8_t> bytes = valid_image();
  ASSERT_GT(bytes.size(), snap::kHeaderSize);
  bytes[3] ^= 0xFF;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with corrupted magic";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset 0"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotTest, RejectsFutureFormatVersion) {
  std::vector<std::uint8_t> bytes = valid_image();
  ASSERT_GT(bytes.size(), snap::kHeaderSize);
  bytes[snap::kMagicSize] = 99;  // version u32 LE low byte
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with a future format version";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), snap::kMagicSize);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotTest, RejectsTruncationAtEveryLevel) {
  const std::vector<std::uint8_t>& whole = valid_image();
  // Header-level: too short for magic + version.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{5}, snap::kHeaderSize - 1}) {
    std::vector<std::uint8_t> bytes(whole.begin(), whole.begin() + static_cast<long>(cut));
    EXPECT_THROW(snap::decode_snapshot(bytes), SnapshotError) << "cut at " << cut;
  }
  // Section-level: cut inside a section header, a payload, and the crc; and
  // drop the end marker.  Every prefix must be rejected — a snapshot is
  // only valid whole.
  for (const std::size_t cut :
       {snap::kHeaderSize + 3,    // inside the dataset-meta section header
        whole.size() / 2,         // inside some per-trace payload
        whole.size() - 2,         // inside the end section
        whole.size() - snap::kSectionHeaderSize - snap::kSectionTrailerSize}) {  // no end marker
    std::vector<std::uint8_t> bytes(whole.begin(), whole.begin() + static_cast<long>(cut));
    try {
      snap::decode_snapshot(bytes);
      FAIL() << "decoded a snapshot truncated at byte " << cut;
    } catch (const SnapshotError& e) {
      EXPECT_LE(e.offset(), cut) << e.what();
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos) << e.what();
    }
  }
}

TEST_F(SnapshotTest, RejectsFlippedPayloadBitViaCrc) {
  std::vector<std::uint8_t> bytes = valid_image();
  // Flip one bit inside the first section's payload (dataset name bytes).
  const std::size_t victim = snap::kHeaderSize + snap::kSectionHeaderSize + 5;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] ^= 0x01;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with a flipped payload bit";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST_F(SnapshotTest, RejectsUnknownSectionType) {
  std::vector<std::uint8_t> bytes = valid_image();
  ASSERT_GT(bytes.size(), snap::kHeaderSize);
  // The first section starts right after the header; overwrite its type
  // with an unassigned id.  (CRC covers the payload only, so the type is
  // validated structurally.)
  bytes[snap::kHeaderSize] = 0x6E;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with an unknown section type";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), snap::kHeaderSize);
    EXPECT_NE(std::string(e.what()).find("section"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotTest, RejectsTrailingGarbageAfterEndMarker) {
  std::vector<std::uint8_t> bytes = valid_image();
  bytes.push_back(0x00);
  EXPECT_THROW(snap::decode_snapshot(bytes), SnapshotError);
}

TEST_F(SnapshotTest, WriterRefusesOutOfOrderShards) {
  std::vector<TraceShard> shards = analyze_trace_shards(sources(), config(), 0, 2);
  const std::string path = temp_path("entrace_snap_order.esnap");
  snap::SnapshotWriter writer(path, meta());
  writer.add_shard(1, shards[1]);
  EXPECT_THROW(writer.add_shard(0, shards[0]), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace entrace
