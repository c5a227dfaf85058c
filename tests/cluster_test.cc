// Cluster suite (CTest label "cluster", also run under sanitizers via
// `ctest --preset cluster-asan` / `ctest --preset cluster-tsan`).
//
// Pins the contracts the cluster layer (src/cluster) is trusted on:
//
//   codec      every message round-trips through FrameDecoder regardless of
//              how the byte stream is fragmented (byte-at-a-time, odd chunk
//              sizes), and structural damage — bad magic, unknown type,
//              hostile length, flipped payload bit, an injected-fault byte
//              the worker cannot act on — is a ProtocolError at a named
//              offset, never undefined behavior.  A seeded byte-flip
//              fuzz asserts no single-byte corruption ever yields the
//              original frame sequence silently.
//
//   dispatch   run_cluster (the job scheduler over the TCP transport) on
//              loopback workers produces a report byte-identical to a
//              direct single-process run: clean, per injected network-fault
//              kind (refuse / disconnect / corrupt frame / hang), and under
//              a mixed fault schedule — while an exhausted retry budget
//              degrades to the CoverageManifest + PARTIAL banner, never a
//              crash or a torn fold, and a process-only fault kind is a
//              configuration error.
//
//   http       the observability server survives hostile clients: oversized
//              request lines answer 400, empty connections and mid-request
//              hangups are shrugged off, and an honest request still works
//              afterwards.
//
//   /report    render_windowed_report over the daemon's retained window
//              checkpoints equals the one-shot batch report.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/protocol.h"
#include "cluster/worker.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "orchestrate/fault.h"
#include "pcap/replay.h"
#include "snapshot/reader.h"
#include "snapshot/window.h"
#include "snapshot/writer.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/net_io.h"
#include "util/subprocess.h"

namespace entrace {
namespace {

namespace fs = std::filesystem;
using cluster::Frame;
using cluster::FrameDecoder;
using cluster::MsgType;
using cluster::ProtocolError;
using orchestrate::InjectedFault;

// ---- codec: fragmentation invariance ----------------------------------------

cluster::JobMsg sample_job() {
  cluster::JobMsg job;
  job.job_id = 42;
  job.attempt = 3;
  job.dataset = "D0";
  job.scale = 0.004;
  job.trace_count = 22;
  job.lo = 7;
  job.hi = 11;
  job.threads = 2;
  job.heartbeat_interval_ms = 100;
  job.injected_fault = static_cast<std::uint8_t>(InjectedFault::kDisconnectInject);
  return job;
}

// Feed `bytes` to a decoder in pieces of `chunk` bytes, collecting every
// complete frame.
std::vector<Frame> decode_in_chunks(const std::vector<std::uint8_t>& bytes, std::size_t chunk) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    decoder.feed(bytes.data() + i, std::min(chunk, bytes.size() - i));
    while (auto f = decoder.next()) frames.push_back(std::move(*f));
  }
  EXPECT_EQ(decoder.buffered(), 0u);
  return frames;
}

TEST(ClusterCodecTest, EveryMessageRoundTripsByteAtATime) {
  cluster::HelloMsg hello;
  hello.worker_name = "w0";
  cluster::HeartbeatMsg beat;
  beat.job_id = 42;
  cluster::SnapshotChunkMsg chunk;
  chunk.job_id = 42;
  chunk.offset = 128 * 1024;
  for (int i = 0; i < 1000; ++i) chunk.bytes.push_back(static_cast<std::uint8_t>(i * 7));
  cluster::DoneMsg done;
  done.job_id = 42;
  done.total_bytes = 999;
  done.snapshot_crc = 0xdeadbeef;
  cluster::ErrorMsg err;
  err.job_id = 42;
  err.message = "unknown dataset \"D9\"";

  std::vector<std::uint8_t> stream;
  for (const auto& frame_bytes : {hello.encode(), sample_job().encode(), beat.encode(),
                                  chunk.encode(), done.encode(), err.encode()}) {
    stream.insert(stream.end(), frame_bytes.begin(), frame_bytes.end());
  }

  const std::vector<Frame> frames = decode_in_chunks(stream, 1);
  ASSERT_EQ(frames.size(), 6u);

  EXPECT_EQ(cluster::HelloMsg::decode(frames[0]).worker_name, "w0");
  EXPECT_EQ(cluster::HelloMsg::decode(frames[0]).protocol_version, cluster::kProtocolVersion);
  const cluster::JobMsg job = cluster::JobMsg::decode(frames[1]);
  EXPECT_EQ(job.job_id, 42u);
  EXPECT_EQ(job.attempt, 3u);
  EXPECT_EQ(job.dataset, "D0");
  EXPECT_EQ(job.scale, 0.004);
  EXPECT_EQ(job.trace_count, 22u);
  EXPECT_EQ(job.lo, 7u);
  EXPECT_EQ(job.hi, 11u);
  EXPECT_EQ(job.threads, 2u);
  EXPECT_EQ(job.heartbeat_interval_ms, 100u);
  EXPECT_EQ(job.injected_fault, static_cast<std::uint8_t>(InjectedFault::kDisconnectInject));
  EXPECT_EQ(cluster::HeartbeatMsg::decode(frames[2]).job_id, 42u);
  const cluster::SnapshotChunkMsg rt = cluster::SnapshotChunkMsg::decode(frames[3]);
  EXPECT_EQ(rt.offset, chunk.offset);
  EXPECT_EQ(rt.bytes, chunk.bytes);
  EXPECT_EQ(cluster::DoneMsg::decode(frames[4]).snapshot_crc, 0xdeadbeefu);
  EXPECT_EQ(cluster::ErrorMsg::decode(frames[5]).message, err.message);
}

TEST(ClusterCodecTest, FragmentationDoesNotChangeTheFrameSequence) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 8; ++i) {
    cluster::SnapshotChunkMsg chunk;
    chunk.job_id = static_cast<std::uint64_t>(i);
    chunk.offset = static_cast<std::uint64_t>(i) * 100;
    for (int j = 0; j < 50 + i * 37; ++j) chunk.bytes.push_back(static_cast<std::uint8_t>(i + j));
    const auto bytes = chunk.encode();
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  const std::vector<Frame> reference = decode_in_chunks(stream, stream.size());
  ASSERT_EQ(reference.size(), 8u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                  std::size_t{13}, std::size_t{101}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const std::vector<Frame> frames = decode_in_chunks(stream, chunk);
    ASSERT_EQ(frames.size(), reference.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, reference[i].type);
      EXPECT_EQ(frames[i].payload, reference[i].payload);
    }
  }
}

TEST(ClusterCodecTest, IncompleteFrameIsNullopt) {
  const auto bytes = sample_job().encode();
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(bytes.data() + i, 1);
    EXPECT_FALSE(decoder.next().has_value()) << "frame complete after " << (i + 1) << " of "
                                             << bytes.size() << " bytes";
  }
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(ClusterCodecTest, StructuralDamageIsAProtocolErrorAtAnOffset) {
  const auto good = sample_job().encode();

  {  // bad magic
    auto bytes = good;
    bytes[0] ^= 0xff;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // unknown message type
    auto bytes = good;
    bytes[cluster::kFrameMagicSize] = 0x77;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // hostile length: claims more than kMaxFramePayload
    auto bytes = good;
    bytes[cluster::kFrameMagicSize + 4 + 3] = 0xff;  // top byte of length:u32
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // flipped payload bit: the CRC trailer catches it
    auto bytes = good;
    bytes[cluster::kFrameHeaderSize + 5] ^= 0x01;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // an injected-fault byte the worker cannot act on, at its offset
    for (const std::uint8_t fault :
         {static_cast<std::uint8_t>(InjectedFault::kRefuseInject),
          static_cast<std::uint8_t>(InjectedFault::kCrashInject),
          static_cast<std::uint8_t>(InjectedFault::kTruncateInject),
          static_cast<std::uint8_t>(InjectedFault::kCount), std::uint8_t{0xff}}) {
      cluster::JobMsg job = sample_job();
      job.injected_fault = fault;
      const auto bytes = job.encode();
      FrameDecoder d;
      d.feed(bytes.data(), bytes.size());
      const std::optional<Frame> frame = d.next();
      ASSERT_TRUE(frame.has_value()) << "framing is intact; only the payload is wrong";
      try {
        cluster::JobMsg::decode(*frame);
        FAIL() << "JOB with injected_fault " << int{fault} << " decoded";
      } catch (const ProtocolError& e) {
        EXPECT_EQ(e.offset(), frame->payload.size() - 1) << "the byte is the payload's last";
        EXPECT_NE(std::string(e.what()).find("injected_fault"), std::string::npos) << e.what();
      }
    }
  }
  {  // the error names where in the stream the damage sits
    auto bytes = good;
    bytes[cluster::kFrameHeaderSize] ^= 0x01;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    try {
      d.next();
      FAIL() << "corrupt frame decoded";
    } catch (const ProtocolError& e) {
      EXPECT_LE(e.offset(), bytes.size());
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
  }
}

// Seeded single-byte-flip fuzz over a multi-frame stream: no flip may crash
// the decoder, and none may reproduce the original frame sequence without
// either a ProtocolError or an observable difference (changed frame, or a
// starved decoder when the length field grew).
TEST(ClusterCodecTest, ByteFlipFuzzNeverPassesSilently) {
  std::vector<std::uint8_t> stream;
  std::vector<Frame> reference;
  {
    cluster::HelloMsg hello;
    hello.worker_name = "fuzz";
    cluster::HeartbeatMsg beat;
    beat.job_id = 7;
    cluster::DoneMsg done;
    done.job_id = 7;
    done.total_bytes = 123;
    done.snapshot_crc = 456;
    for (const auto& b : {hello.encode(), sample_job().encode(), beat.encode(), done.encode()}) {
      stream.insert(stream.end(), b.begin(), b.end());
    }
    reference = decode_in_chunks(stream, stream.size());
    ASSERT_EQ(reference.size(), 4u);
  }

  // xorshift64: the same cheap deterministic draw the fault harness uses.
  std::uint64_t rng = 0x5eedu;
  const auto next_u64 = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int round = 0; round < 500; ++round) {
    auto bytes = stream;
    const std::size_t pos = static_cast<std::size_t>(next_u64() % bytes.size());
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (next_u64() % 8));
    bytes[pos] ^= mask;

    FrameDecoder decoder;
    std::vector<Frame> frames;
    bool threw = false;
    try {
      decoder.feed(bytes.data(), bytes.size());
      while (auto f = decoder.next()) frames.push_back(std::move(*f));
    } catch (const ProtocolError&) {
      threw = true;
    }
    if (threw) continue;  // damage detected structurally: the desired outcome
    const bool identical =
        frames.size() == reference.size() &&
        std::equal(frames.begin(), frames.end(), reference.begin(), [](const Frame& a,
                                                                       const Frame& b) {
          return a.type == b.type && a.payload == b.payload;
        });
    EXPECT_FALSE(identical) << "flip of bit " << int(mask) << " at byte " << pos
                            << " went completely unnoticed";
  }
}

// The coordinator's receive path in miniature: a real .esnap image sliced
// into SNAPSHOT chunks at odd sizes, carried through the frame codec one
// byte at a time, reassembled, and decoded by the untrusted-input snapshot
// reader.  Any slicing must hand decode_snapshot the identical image.
TEST(ClusterCodecTest, SnapshotSurvivesArbitraryChunkSlicing) {
  std::ostringstream out(std::ios::binary);
  snapshot::SnapshotWriter writer(out, {"D0", 0.004, 22});
  writer.add_shard(3, TraceShard{});
  writer.add_shard(9, TraceShard{});
  writer.close();
  const std::string image = std::move(out).str();
  ASSERT_GT(image.size(), 64u);

  for (const std::size_t slice : {std::size_t{1}, std::size_t{37}, std::size_t{1000},
                                  image.size()}) {
    SCOPED_TRACE("slice=" + std::to_string(slice));
    std::vector<std::uint8_t> stream;
    for (std::size_t off = 0; off < image.size(); off += slice) {
      cluster::SnapshotChunkMsg chunk;
      chunk.job_id = 1;
      chunk.offset = off;
      const std::size_t len = std::min(slice, image.size() - off);
      chunk.bytes.assign(image.begin() + static_cast<long>(off),
                         image.begin() + static_cast<long>(off + len));
      const auto bytes = chunk.encode();
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }

    std::vector<std::uint8_t> assembled;
    for (const Frame& f : decode_in_chunks(stream, 1)) {
      const auto chunk = cluster::SnapshotChunkMsg::decode(f);
      ASSERT_EQ(chunk.offset, assembled.size()) << "chunks must arrive contiguously";
      assembled.insert(assembled.end(), chunk.bytes.begin(), chunk.bytes.end());
    }
    ASSERT_EQ(assembled.size(), image.size());
    EXPECT_EQ(std::memcmp(assembled.data(), image.data(), image.size()), 0);

    const snapshot::Snapshot snap = snapshot::decode_snapshot(assembled);
    ASSERT_EQ(snap.shards.size(), 2u);
    EXPECT_EQ(snap.shards[0].trace_index, 3u);
    EXPECT_EQ(snap.shards[1].trace_index, 9u);
  }
}

// ---- fault harness + endpoint parsing ---------------------------------------

TEST(NetFaultInjectionTest, ParsesSpecStrings) {
  orchestrate::FaultInjection inject;
  std::string error;
  EXPECT_TRUE(orchestrate::parse_inject_spec("refuse=0.1,disconnect=0.2,corrupt=0.05,hang=0.01",
                                             inject, &error));
  EXPECT_EQ(inject.refuse, 0.1);
  EXPECT_EQ(inject.disconnect, 0.2);
  EXPECT_EQ(inject.corrupt, 0.05);
  EXPECT_EQ(inject.hang, 0.01);
  EXPECT_TRUE(inject.any());

  orchestrate::FaultInjection bad;
  EXPECT_FALSE(orchestrate::parse_inject_spec("explode=0.5", bad, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(orchestrate::parse_inject_spec("refuse=1.5", bad, &error));
  EXPECT_FALSE(orchestrate::parse_inject_spec("refuse", bad, &error));
  EXPECT_FALSE(bad.any());
}

TEST(NetFaultInjectionTest, DrawIsSeededPerJobAttemptAndBounded) {
  orchestrate::FaultInjection f;
  f.refuse = 1.0;
  EXPECT_EQ(f.draw(0, 1), InjectedFault::kRefuseInject);
  EXPECT_EQ(f.draw(9, 4), InjectedFault::kRefuseInject);

  f.attempt_limit = 1;  // only the first attempt of each job faults
  EXPECT_EQ(f.draw(0, 1), InjectedFault::kRefuseInject);
  EXPECT_EQ(f.draw(0, 2), InjectedFault::kNoInject);

  orchestrate::FaultInjection mixed;
  mixed.refuse = mixed.disconnect = mixed.corrupt = mixed.hang = 0.25;
  mixed.seed = 42;
  for (std::uint64_t job = 0; job < 16; ++job) {
    EXPECT_EQ(mixed.draw(job, 1), mixed.draw(job, 1)) << "job " << job;
    EXPECT_EQ(mixed.draw(job, 2), mixed.draw(job, 2)) << "job " << job;
  }
}

TEST(NetFaultInjectionTest, ExpectedFaultMapsIntoTheWorkerTaxonomy) {
  using orchestrate::WorkerFault;
  const auto tcp = [](InjectedFault f) {
    return orchestrate::expected_fault(f, orchestrate::TransportKind::kTcp);
  };
  EXPECT_EQ(tcp(InjectedFault::kNoInject), WorkerFault::kNone);
  EXPECT_EQ(tcp(InjectedFault::kRefuseInject), WorkerFault::kConnectRefused);
  EXPECT_EQ(tcp(InjectedFault::kDisconnectInject), WorkerFault::kDisconnect);
  EXPECT_EQ(tcp(InjectedFault::kCorruptInject), WorkerFault::kCorruptFrame);
  EXPECT_EQ(tcp(InjectedFault::kHangInject), WorkerFault::kHeartbeatTimeout);
  // Process faults have no network form: a TCP run rejects them.
  EXPECT_EQ(tcp(InjectedFault::kCrashInject), WorkerFault::kNone);
  EXPECT_EQ(tcp(InjectedFault::kTruncateInject), WorkerFault::kNone);
}

TEST(ClusterConfigTest, ParsesEndpointLists) {
  std::vector<std::string> endpoints;
  std::string error;
  EXPECT_TRUE(cluster::parse_endpoints("127.0.0.1:7461,10.0.0.6:80", endpoints, &error));
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0], "127.0.0.1:7461");
  EXPECT_EQ(endpoints[1], "10.0.0.6:80");

  EXPECT_FALSE(cluster::parse_endpoints("127.0.0.1", endpoints, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(cluster::parse_endpoints("127.0.0.1:notaport", endpoints, &error));
  EXPECT_FALSE(cluster::parse_endpoints("", endpoints, &error));
}

// ---- cluster dispatch over loopback workers ---------------------------------

// In-process worker fleet: each WorkerServer owns a real loopback socket and
// runs serve() on its own thread, so sanitizers see both sides of every
// connection.  The separate WorkerBinaryServesACoordinator test covers the
// actual entrace_worker executable.
class WorkerFleet {
 public:
  explicit WorkerFleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::string name = "w";
      name += std::to_string(i);
      cluster::WorkerConfig config;
      config.name = std::move(name);
      servers_.push_back(std::make_unique<cluster::WorkerServer>(config));
      endpoints_.push_back("127.0.0.1:" + std::to_string(servers_.back()->port()));
    }
    for (auto& server : servers_) {
      threads_.emplace_back([&server] { server->serve(); });
    }
  }

  ~WorkerFleet() {
    for (auto& server : servers_) server->stop();
    for (auto& thread : threads_) thread.join();
  }

  const std::vector<std::string>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<cluster::WorkerServer>> servers_;
  std::vector<std::string> endpoints_;
  std::vector<std::thread> threads_;
};

class ClusterTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  // Small scales, exactly as the orchestrate suite: byte-identity tests
  // analyze the dataset once directly and once per attempt, and hang tests
  // pay the heartbeat deadline per injected hang.
  static constexpr double kScale = 0.004;
  static constexpr double kFaultScale = 0.002;
  static constexpr double kHangDeadline = 2.0;

  static std::size_t trace_count(double scale) {
    return SyntheticTraceSourceSet(dataset_by_name("D0", scale), model()).size();
  }

  static std::string direct_report_at(double scale) {
    const DatasetSpec spec = dataset_by_name("D0", scale);
    const SyntheticTraceSourceSet sources(spec, model());
    const AnalyzerConfig config = default_config_for_model(model().site());
    std::vector<TraceShard> shards = analyze_trace_shards(sources, config, 0, sources.size());
    DatasetAnalysis analysis = fold_shards(spec.name, std::move(shards), config);
    const report::ReportInput input{&spec, &analysis};
    return report::full_report({&input, 1});
  }
  static const std::string& direct_report() {
    static const std::string text = direct_report_at(kScale);
    return text;
  }
  static const std::string& direct_fault_report() {
    static const std::string text = direct_report_at(kFaultScale);
    return text;
  }

  static cluster::ClusterConfig base_config(const WorkerFleet& fleet, double scale = kScale) {
    cluster::ClusterConfig config;
    config.dataset = "D0";
    config.scale = scale;
    config.endpoints = fleet.endpoints();
    config.heartbeat_interval = 0.05;
    config.heartbeat_deadline = 10.0;  // generous: only hang tests shorten it
    return config;
  }
};

TEST_F(ClusterTest, CleanRunMatchesDirectReport) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    WorkerFleet fleet(workers);
    const cluster::ClusterConfig config = base_config(fleet);
    const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.manifest.missing.empty());
    EXPECT_EQ(result.attempts, workers);  // jobs default to one per endpoint
    EXPECT_EQ(orchestrate::render_report(result), direct_report());
  }
}

TEST_F(ClusterTest, EveryNetworkFaultKindIsRecoveredByRetry) {
  struct Case {
    const char* name;
    void (*arm)(orchestrate::FaultInjection&);
    orchestrate::WorkerFault expected;
  };
  const Case cases[] = {
      {"refuse", [](orchestrate::FaultInjection& f) { f.refuse = 1.0; },
       orchestrate::WorkerFault::kConnectRefused},
      {"disconnect", [](orchestrate::FaultInjection& f) { f.disconnect = 1.0; },
       orchestrate::WorkerFault::kDisconnect},
      {"corrupt", [](orchestrate::FaultInjection& f) { f.corrupt = 1.0; },
       orchestrate::WorkerFault::kCorruptFrame},
      {"hang", [](orchestrate::FaultInjection& f) { f.hang = 1.0; },
       orchestrate::WorkerFault::kHeartbeatTimeout},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WorkerFleet fleet(2);
    cluster::ClusterConfig config = base_config(fleet, kFaultScale);
    c.arm(config.inject);
    config.inject.attempt_limit = 1;  // fault every first attempt, then heal
    config.heartbeat_deadline = kHangDeadline;
    config.retry.max_attempts = 3;
    config.retry.base_delay = 0.01;
    config.retry.max_delay = 0.05;

    obs::Registry metrics;
    config.metrics = &metrics;
    const orchestrate::OrchestrateResult result = cluster::run_cluster(config);

    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.fault_counts[c.expected], 2u) << "one injected fault per job";
    EXPECT_EQ(result.retries, 2u);
    EXPECT_EQ(orchestrate::render_report(result), direct_fault_report());

    std::string metric_name = std::string("cluster.fault.") + orchestrate::to_string(c.expected);
    std::replace(metric_name.begin(), metric_name.end(), '-', '_');
    const obs::Metric* counter = metrics.find(metric_name);
    ASSERT_NE(counter, nullptr) << metric_name;
    EXPECT_EQ(counter->counter.value(), 2u);
  }
}

TEST_F(ClusterTest, MixedFaultScheduleIsByteIdenticalAcrossWorkerCounts) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    WorkerFleet fleet(workers);
    cluster::ClusterConfig config = base_config(fleet, kFaultScale);
    config.jobs = 4;
    config.inject.refuse = config.inject.disconnect = config.inject.corrupt = 0.2;
    config.inject.hang = 0.1;  // hangs pay the deadline; keep them rarer
    config.inject.seed = 3;
    config.heartbeat_deadline = kHangDeadline;
    config.retry.max_attempts = 8;
    config.retry.base_delay = 0.01;
    config.retry.max_delay = 0.05;

    const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(orchestrate::render_report(result), direct_fault_report())
        << workers << " workers, " << result.retries << " retries, "
        << result.fault_counts.total_faults() << " faults";
  }
}

TEST_F(ClusterTest, ExhaustedBudgetDegradesToAccurateManifest) {
  WorkerFleet fleet(2);
  cluster::ClusterConfig config = base_config(fleet, kFaultScale);
  config.inject.refuse = 1.0;  // every attempt of every job refused, forever
  config.retry.max_attempts = 2;
  config.retry.base_delay = 0.01;
  config.retry.max_delay = 0.02;

  const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.manifest.missing.size(), trace_count(kFaultScale));
  EXPECT_EQ(result.attempts, 4u);  // 2 jobs x max_attempts
  EXPECT_EQ(result.fault_counts[orchestrate::WorkerFault::kConnectRefused], 4u);

  const std::string report = orchestrate::render_report(result);
  EXPECT_NE(report.find("PARTIAL RESULTS"), std::string::npos);
  EXPECT_NE(report.find("Coverage manifest"), std::string::npos);
}

TEST_F(ClusterTest, ProcessFaultKindsAreAConfigError) {
  for (const char* spec : {"crash=0.2", "truncate=0.2"}) {
    SCOPED_TRACE(spec);
    cluster::ClusterConfig config;
    config.dataset = "D0";
    config.scale = kFaultScale;
    config.endpoints = {"127.0.0.1:1"};  // never dialed: rejected first
    std::string error;
    ASSERT_TRUE(orchestrate::parse_inject_spec(spec, config.inject, &error)) << error;
    EXPECT_THROW(cluster::run_cluster(config), std::runtime_error);
  }
}

TEST_F(ClusterTest, WorkerBinaryServesACoordinator) {
  const fs::path port_file = fs::temp_directory_path() / "entrace_cluster_test_w0.port";
  fs::remove(port_file);
  util::Subprocess worker = util::Subprocess::spawn(
      {ENTRACE_WORKER_BIN, "--port-file", port_file.string(), "--name", "wbin"});

  std::uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {  // rename makes the file appear complete
    if (fs::exists(port_file)) {
      std::ifstream in(port_file);
      unsigned p = 0;
      in >> p;
      port = static_cast<std::uint16_t>(p);
      break;
    }
    ASSERT_TRUE(worker.running()) << "worker binary exited before publishing its port";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(port, 0u) << "worker never published a port";

  cluster::ClusterConfig config;
  config.dataset = "D0";
  config.scale = kFaultScale;
  config.endpoints = {"127.0.0.1:" + std::to_string(port)};
  const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(orchestrate::render_report(result), direct_fault_report());

  worker.kill_and_wait();
  fs::remove(port_file);
}

// ---- http server robustness -------------------------------------------------

class HttpRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<obs::HttpServer>(
        0, [](const std::string& path) -> obs::HttpResponse {
          if (path == "/ok") return {200, "text/plain; charset=utf-8", "fine\n"};
          return {404, "text/plain; charset=utf-8", "nope\n"};
        });
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  util::ScopedFd connect() {
    std::string error;
    util::ScopedFd fd = util::tcp_connect("127.0.0.1", server_->port(), 2.0, &error);
    EXPECT_TRUE(fd.valid()) << error;
    return fd;
  }

  // Send `request` and read until the server closes; empty on no response.
  std::string roundtrip(const std::string& request) {
    util::ScopedFd fd = connect();
    if (!fd.valid()) return {};
    EXPECT_TRUE(util::send_all(fd.get(), request.data(), request.size()));
    ::shutdown(fd.get(), SHUT_WR);
    std::string response;
    char buf[4096];
    while (util::poll_in(fd.get(), 3000) == 1) {
      const long n = util::recv_some(fd.get(), buf, sizeof(buf));
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  }

  std::unique_ptr<obs::HttpServer> server_;
};

TEST_F(HttpRobustnessTest, OversizedRequestLineAnswers400) {
  const std::string request = "GET /" + std::string(20000, 'a') + " HTTP/1.0\r\n\r\n";
  const std::string response = roundtrip(request);
  EXPECT_NE(response.find("400"), std::string::npos) << response.substr(0, 80);
  // The server survives and serves the next honest client.
  EXPECT_NE(roundtrip("GET /ok HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
}

// The query-string 404 regression: "GET /ok?probe=1" must dispatch to the
// /ok handler (the target is stripped of ?query/#fragment before matching),
// while a genuinely unknown path keeps 404ing with or without a query.
TEST_F(HttpRobustnessTest, QueryStringsAndFragmentsAreStrippedBeforeDispatch) {
  EXPECT_NE(roundtrip("GET /ok?probe=1 HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
  EXPECT_NE(roundtrip("GET /ok?a=1&b=2 HTTP/1.0\r\n\r\n").find("fine"), std::string::npos);
  EXPECT_NE(roundtrip("GET /ok#frag HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
  EXPECT_NE(roundtrip("GET /ok? HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
  EXPECT_NE(roundtrip("GET /nope?probe=1 HTTP/1.0\r\n\r\n").find("404"), std::string::npos);
}

TEST_F(HttpRobustnessTest, EmptyAndHalfRequestsAreShruggedOff) {
  {  // connect-and-close probe (a port scanner, a load balancer health check)
    util::ScopedFd fd = connect();
    ASSERT_TRUE(fd.valid());
  }
  {  // client hangs up mid-request-line
    util::ScopedFd fd = connect();
    ASSERT_TRUE(fd.valid());
    const char partial[] = "GET /ok HT";
    EXPECT_TRUE(util::send_all(fd.get(), partial, sizeof(partial) - 1));
  }
  EXPECT_NE(roundtrip("GET /ok HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
}

// ---- daemon /report: windowed fold == batch report --------------------------

TEST(WindowedReportTest, RenderWindowedReportMatchesBatchRun) {
  const EnterpriseModel model;
  DatasetSpec spec = dataset_d3(0.004);
  spec.monitored_subnets = {4, 15, 20};
  const TraceSet traces = generate_dataset(spec, model);
  const AnalyzerConfig config = default_config_for_model(model.site());
  const std::string batch = [&] {
    DatasetAnalysis analysis = analyze_dataset(traces, config);
    const report::ReportInput input{&spec, &analysis};
    return report::full_report({&input, 1});
  }();

  // A windowed replay checkpointing every rotation, exactly as the daemon
  // does (exact mode: /report equality requires no eviction).
  MergedPacketStream stream = merged_stream(traces);
  std::vector<TraceMeta> metas;
  for (std::size_t i = 0; i < stream.source_count(); ++i) {
    metas.push_back(stream.source(i).meta());
  }
  double lo = 1e300, hi = -1e300;
  for (const TraceMeta& m : metas) {
    lo = std::min(lo, m.start_ts);
    hi = std::max(hi, m.start_ts + m.duration);
  }
  IncrementalOptions opts;
  opts.window_seconds = (hi - lo) / 7.3;
  IncrementalAnalyzer analyzer(std::move(metas), config, opts);

  const fs::path dir = fs::temp_directory_path() / "entrace_cluster_report_windows";
  fs::create_directories(dir);
  const snapshot::SnapshotMeta meta{spec.name, 0.004,
                                    static_cast<std::uint32_t>(stream.source_count())};
  std::vector<std::string> paths;
  const auto checkpoint = [&](const WindowShard& w) {
    const std::string path = (dir / snapshot::window_file_name(paths.size())).string();
    ASSERT_GT(snapshot::write_window_snapshot(path, meta, w), 0u);
    paths.push_back(path);
  };

  std::vector<PacketView> views(256);
  for (;;) {
    const std::size_t got = stream.next_batch(views.data(), views.size());
    if (got == 0) break;
    analyzer.feed(views.data(), got);
    while (analyzer.window_complete()) checkpoint(analyzer.rotate());
  }
  checkpoint(analyzer.finish(&stream));
  ASSERT_GE(paths.size(), 2u);

  EXPECT_EQ(snapshot::render_windowed_report(paths, spec, config), batch);
  EXPECT_THROW(snapshot::render_windowed_report({(dir / "window-gone.esnap").string()}, spec,
                                                config),
               std::exception);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace entrace
