#include "cluster/coordinator.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "cluster/protocol.h"
#include "util/cli.h"
#include "util/net_io.h"
#include "util/strings.h"

namespace entrace::cluster {

namespace {

using orchestrate::Attempt;
using orchestrate::Delivery;
using orchestrate::InjectedFault;
using orchestrate::WorkerFault;

// recv chunk granularity; also the poll cap so stop conditions and
// deadlines are rechecked at least this often.
constexpr int kPollCapMs = 100;

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

// "host:port" -> Endpoint; false with *error set when there is no port or
// it does not parse.
bool parse_endpoint(std::string_view text, Endpoint& out, std::string* error) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 >= text.size()) {
    if (error != nullptr) *error = "endpoint '" + std::string(text) + "' is not host:port";
    return false;
  }
  std::uint64_t port = 0;
  if (!cli::parse_uint(std::string(text.substr(colon + 1)), port) || port < 1 || port > 65535) {
    if (error != nullptr) *error = "endpoint '" + std::string(text) + "' has a bad port";
    return false;
  }
  out.host = std::string(text.substr(0, colon));
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

// The transport's own cluster.* counters, tallied per attempt.
enum Tally { kConnects, kBytesRx, kFramesRx, kHeartbeatsRx, kChunksRx, kTallyCount };

constexpr std::pair<const char*, const char*> kTallyMetrics[kTallyCount] = {
    {"cluster.connects", "TCP connections established to workers"},
    {"cluster.bytes.rx", "bytes received from workers"},
    {"cluster.frames.rx", "protocol frames received from workers"},
    {"cluster.heartbeats.rx", "heartbeat frames received from workers"},
    {"cluster.chunks.rx", "snapshot chunks received from workers"},
};

using Tallies = std::array<std::uint64_t, kTallyCount>;

class TcpTransport final : public orchestrate::Transport {
 public:
  explicit TcpTransport(const ClusterConfig& config) : config_(config) {
    if (config.metrics != nullptr) {
      for (std::size_t t = 0; t < kTallyCount; ++t) {
        counters_[t] = config.metrics->counter(kTallyMetrics[t].first, obs::MetricClass::kTiming,
                                               kTallyMetrics[t].second);
      }
    }
    if (config.endpoints.empty()) {
      throw std::runtime_error("cluster: no worker endpoints configured");
    }
    for (const std::string& spec : config.endpoints) {
      Endpoint endpoint;
      std::string error;
      if (!parse_endpoint(spec, endpoint, &error)) throw std::runtime_error("cluster: " + error);
      endpoints_.push_back(std::move(endpoint));
    }
  }

  orchestrate::TransportKind kind() const override { return orchestrate::TransportKind::kTcp; }
  std::size_t slots() const override { return endpoints_.size(); }

  void prepare(const snapshot::SnapshotMeta& meta, std::size_t /*jobs*/) override {
    meta_ = meta;
    // A port that is bound once and immediately released: connecting to it
    // later gets a real ECONNREFUSED, which is how refuse-injection
    // exercises the genuine dead-endpoint code path.
    if (config_.inject.refuse > 0) {
      std::string error;
      util::ScopedFd probe = util::tcp_listen(0, &dead_port_, &error);
      if (!probe.valid()) throw std::runtime_error("cluster: " + error);
    }
  }

  Delivery run(std::size_t slot, const Attempt& attempt) override {
    const Endpoint& endpoint = endpoints_[slot];
    Delivery delivery;
    Tallies tally{};
    delivery.fault = exchange(endpoint, attempt, delivery, tally);
    if (delivery.fault != WorkerFault::kNone) {
      delivery.detail = endpoint.host + ":" + std::to_string(endpoint.port) + ": " + delivery.detail;
    }
    for (std::size_t t = 0; t < kTallyCount; ++t) {
      if (counters_[t] != nullptr) delivery.counts.emplace_back(counters_[t], tally[t]);
    }
    return delivery;
  }

 private:
  JobMsg job_message(const Attempt& attempt) const {
    JobMsg msg;
    msg.job_id = attempt.job;
    msg.attempt = static_cast<std::uint32_t>(attempt.number);
    msg.dataset = meta_.dataset;
    msg.scale = config_.scale;
    msg.trace_count = meta_.trace_count;
    msg.lo = static_cast<std::uint32_t>(attempt.lo);
    msg.hi = static_cast<std::uint32_t>(attempt.hi);
    msg.threads = static_cast<std::uint32_t>(config_.shard_threads);
    msg.heartbeat_interval_ms = static_cast<std::uint32_t>(config_.heartbeat_interval * 1000.0);
    // Refuse is acted out here, never by the worker.
    msg.injected_fault = static_cast<std::uint8_t>(
        attempt.injected == InjectedFault::kRefuseInject ? InjectedFault::kNoInject
                                                         : attempt.injected);
    return msg;
  }

  // One network attempt: connect, handshake, dispatch, gather, and check
  // the stream against DONE.  On success the snapshot bytes are in
  // `delivery.snapshot`; otherwise `delivery.detail` says what went wrong.
  WorkerFault exchange(const Endpoint& endpoint, const Attempt& attempt, Delivery& delivery,
                       Tallies& tally) const {
    std::string& detail = delivery.detail;
    std::vector<std::uint8_t>& snapshot_bytes = delivery.snapshot;
    const bool refuse = attempt.injected == InjectedFault::kRefuseInject;
    std::string error;
    util::ScopedFd fd = util::tcp_connect(refuse ? "127.0.0.1" : endpoint.host,
                                          refuse ? dead_port_ : endpoint.port,
                                          config_.connect_timeout, &error);
    if (!fd.valid()) {
      detail = error;
      return WorkerFault::kConnectRefused;
    }
    ++tally[kConnects];

    FrameDecoder decoder;
    std::optional<DoneMsg> done;
    bool got_hello = false;
    char buf[16384];
    auto last_frame = std::chrono::steady_clock::now();
    const auto deadline =
        std::chrono::milliseconds(static_cast<long>(config_.heartbeat_deadline * 1000.0));

    while (!done.has_value()) {
      // Drain every complete frame before blocking again.  Damage in the
      // framing or in a payload is a corrupt frame either way.
      try {
        if (const std::optional<Frame> frame = decoder.next()) {
          last_frame = std::chrono::steady_clock::now();
          ++tally[kFramesRx];
          switch (frame->type) {
            case MsgType::kHello: {
              const HelloMsg hello = HelloMsg::decode(*frame);
              if (got_hello) {
                detail = "duplicate HELLO";
                return WorkerFault::kCorruptFrame;
              }
              if (hello.protocol_version != kProtocolVersion) {
                detail = "worker '" + hello.worker_name + "' speaks protocol version " +
                         std::to_string(hello.protocol_version) + ", want " +
                         std::to_string(kProtocolVersion);
                return WorkerFault::kCorruptFrame;
              }
              got_hello = true;
              const std::vector<std::uint8_t> job_frame = job_message(attempt).encode();
              if (!util::send_all(fd.get(), job_frame.data(), job_frame.size())) {
                detail = "connection lost sending JOB";
                return WorkerFault::kDisconnect;
              }
              break;
            }
            case MsgType::kHeartbeat: {
              HeartbeatMsg::decode(*frame);
              ++tally[kHeartbeatsRx];
              break;
            }
            case MsgType::kSnapshotChunk: {
              SnapshotChunkMsg chunk = SnapshotChunkMsg::decode(*frame);
              if (chunk.job_id != attempt.job) {
                detail = "chunk for job " + std::to_string(chunk.job_id) + " on job " +
                         std::to_string(attempt.job) + "'s connection";
                return WorkerFault::kCorruptFrame;
              }
              if (chunk.offset != snapshot_bytes.size()) {
                detail = "chunk offset " + std::to_string(chunk.offset) +
                         " leaves a gap (have " + std::to_string(snapshot_bytes.size()) +
                         " bytes)";
                return WorkerFault::kCorruptFrame;
              }
              snapshot_bytes.insert(snapshot_bytes.end(), chunk.bytes.begin(),
                                    chunk.bytes.end());
              ++tally[kChunksRx];
              break;
            }
            case MsgType::kDone: {
              done = DoneMsg::decode(*frame);
              break;
            }
            case MsgType::kError: {
              const ErrorMsg err = ErrorMsg::decode(*frame);
              // The worker's analysis died on this job; the taxonomy's
              // closest kin to "the attempt reported its own death".
              detail = "worker error: " + err.message;
              return WorkerFault::kCrash;
            }
            case MsgType::kJob: {
              detail = "unexpected JOB frame from a worker";
              return WorkerFault::kCorruptFrame;
            }
          }
          continue;
        }
      } catch (const ProtocolError& e) {
        detail = e.what();
        return WorkerFault::kCorruptFrame;
      }

      // No complete frame buffered: wait for bytes, bounded by the
      // heartbeat deadline measured from the last *frame* (any frame —
      // heartbeat, chunk, DONE — proves liveness).
      const auto since_frame = std::chrono::steady_clock::now() - last_frame;
      if (since_frame >= deadline) {
        detail = "no frame within the " + std::to_string(config_.heartbeat_deadline) +
                 "s heartbeat deadline";
        return WorkerFault::kHeartbeatTimeout;
      }
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - since_frame);
      const int wait_ms = static_cast<int>(std::min<long>(left.count() + 1, kPollCapMs));
      const int ready = util::poll_in(fd.get(), wait_ms);
      if (ready < 0) {
        detail = "poll failed on the worker connection";
        return WorkerFault::kDisconnect;
      }
      if (ready == 0) continue;
      const long n = util::recv_some(fd.get(), buf, sizeof(buf));
      if (n == 0) {
        detail = got_hello ? "worker closed the connection before DONE"
                           : "worker closed the connection before HELLO";
        return WorkerFault::kDisconnect;
      }
      if (n < 0) {
        detail = "connection error while receiving";
        return WorkerFault::kDisconnect;
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
      tally[kBytesRx] += static_cast<std::uint64_t>(n);
    }

    // Transfer complete: the stream must match its commit record before
    // the scheduler gives the bytes the same scrutiny as a shard file.
    if (done->total_bytes != snapshot_bytes.size()) {
      detail = "DONE declares " + std::to_string(done->total_bytes) + " bytes, received " +
               std::to_string(snapshot_bytes.size());
      return WorkerFault::kTruncatedSnapshot;
    }
    if (done->snapshot_crc != snapshot::crc32(snapshot_bytes)) {
      detail = "whole-stream CRC mismatch";
      return WorkerFault::kSnapshotRejected;
    }
    return WorkerFault::kNone;
  }

  const ClusterConfig& config_;
  std::array<obs::Counter*, kTallyCount> counters_{};
  std::vector<Endpoint> endpoints_;
  snapshot::SnapshotMeta meta_;
  std::uint16_t dead_port_ = 1;  // refuse-inject target; rebound in prepare()
};

}  // namespace

bool parse_endpoints(const std::string& spec, std::vector<std::string>& out, std::string* error) {
  out.clear();
  for (const std::string_view part : split(spec, ',')) {
    if (part.empty()) continue;
    Endpoint endpoint;
    if (!parse_endpoint(part, endpoint, error)) return false;
    out.emplace_back(part);
  }
  if (out.empty()) {
    if (error != nullptr) *error = "no endpoints in '" + spec + "'";
    return false;
  }
  return true;
}

orchestrate::OrchestrateResult run_cluster(const ClusterConfig& config) {
  TcpTransport transport(config);
  return orchestrate::run_jobs(config, transport);
}

}  // namespace entrace::cluster
