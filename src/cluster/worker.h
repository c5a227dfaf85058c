// WorkerServer: the worker side of the cluster protocol (protocol.h).
//
// A worker is a TCP server that sells one service: "analyze traces
// [lo, hi) of a dataset and stream back the .esnap bytes".  Per
// connection it speaks the coordinator's dialect:
//
//   accept -> send HELLO -> { recv JOB -> heartbeat while analyzing
//                              -> stream SNAPSHOT chunks -> send DONE }*
//   ... until the peer closes (or a fault injection ends the connection).
//
// The analysis runs on its own thread while the connection thread keeps
// sending HEARTBEAT frames on the JOB's requested interval, so liveness
// signaling is independent of how long the analysis takes — a loaded
// worker is slow, not dead, and the coordinator can tell the difference.
//
// The .esnap bytes are encoded in memory (SnapshotWriter's stream-sink
// mode) and chunked at kSnapshotChunkSize; DONE carries the total length
// and whole-stream CRC as the transfer's commit point, playing the role
// the atomic tmp+rename plays for on-disk snapshots.  A job the worker
// cannot run (unknown dataset, range outside the trace count) answers
// with an ERROR frame — the worker survives and serves the next job.
//
// JOB.injected_fault (orchestrate/fault.h, drawn centrally by the
// coordinator) makes the worker act out its own failures: drop the
// connection mid-stream, flip a bit in an outgoing frame, or go silent
// until the coordinator's heartbeat deadline gives up on us.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/net_io.h"

namespace entrace::cluster {

struct JobMsg;

struct WorkerConfig {
  std::uint16_t port = 0;  // 0 = kernel-assigned; port() reports the result
  std::string name = "worker";
  // Per-event progress lines on stderr.
  bool verbose = false;
};

class WorkerServer {
 public:
  // Binds and listens on 127.0.0.1 immediately (so port() is valid before
  // serve()); throws std::runtime_error when the port cannot be bound.
  explicit WorkerServer(const WorkerConfig& config);

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  std::uint16_t port() const { return port_; }

  // Accept loop, one connection at a time, until stop().  stop() may be
  // called from another thread or a signal handler; serve() notices within
  // one 100 ms poll tick.
  void serve();

  // Accept and fully serve at most one connection; false when none arrived
  // within `timeout_ms`.  Tests and --once use this.
  bool serve_one(int timeout_ms);

  void stop() { stopping_.store(true, std::memory_order_release); }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

 private:
  void handle_connection(int fd);
  // Run one JOB on `fd`; false when the connection should close (peer gone
  // or a fault injection ended it).
  bool handle_job(int fd, const JobMsg& job);

  WorkerConfig config_;
  util::ScopedFd listen_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
};

}  // namespace entrace::cluster
