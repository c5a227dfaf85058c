// The cluster wire protocol: length-prefixed, CRC-framed messages between
// the coordinator (coordinator.h) and workers (worker.h).
//
// Everything that crosses the TCP boundary is a frame:
//
//   frame := magic[4] type:u32 length:u32 payload[length] crc32:u32
//
// with the same little-endian byte discipline and CRC-32 (IEEE/zlib) as the
// .esnap format — the payload codec IS snapshot::ByteWriter/ByteReader, so
// the cluster layer inherits the snapshot layer's untrusted-input posture:
// bad magic, oversized lengths, CRC mismatches, unknown message types, and
// payload over/underruns are all rejected with a ProtocolError naming the
// absolute stream offset, never undefined behavior.  A peer is untrusted
// exactly like a snapshot file is untrusted; a corrupt frame is a
// WorkerFault (kCorruptFrame), not a crash.
//
// The message vocabulary (direction annotated):
//
//   HELLO      worker -> coordinator   version handshake on connect
//   JOB        coordinator -> worker   dataset spec + [lo, hi) trace range
//   HEARTBEAT  worker -> coordinator   liveness while analysis runs
//   SNAPSHOT   worker -> coordinator   one chunk of the .esnap byte stream
//   DONE       worker -> coordinator   total byte count + whole-stream CRC
//   ERROR      worker -> coordinator   job failed; human-readable reason
//
// FrameDecoder is deliberately incremental: feed() accepts bytes in
// whatever fragments the kernel delivers (byte-at-a-time in tests) and
// next() yields complete verified frames; "not enough bytes yet" is a
// nullopt, never an error — only structural damage throws.  TCP guarantees
// ordering, so a decoder per connection is all the reassembly needed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "snapshot/format.h"

namespace entrace::cluster {

inline constexpr std::size_t kFrameMagicSize = 4;
inline constexpr char kFrameMagic[kFrameMagicSize] = {'E', 'N', 'T', 'C'};
// magic + type + length.
inline constexpr std::size_t kFrameHeaderSize = kFrameMagicSize + 4 + 4;
inline constexpr std::size_t kFrameTrailerSize = 4;
// Frames are bounded so a hostile length field cannot make the receiver
// allocate unbounded memory; snapshot bytes above this travel as multiple
// SNAPSHOT chunks.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;
// How the worker slices the .esnap stream (well under kMaxFramePayload so
// the chunk header fits too).
inline constexpr std::size_t kSnapshotChunkSize = 128u * 1024;
// Bumped on any frame or message layout change; HELLO carries it and the
// coordinator rejects mismatches (no silent cross-version parsing).
inline constexpr std::uint32_t kProtocolVersion = 1;

enum class MsgType : std::uint32_t {
  kHello = 1,
  kJob = 2,
  kHeartbeat = 3,
  kSnapshotChunk = 4,
  kDone = 5,
  kError = 6,
};

const char* to_string(MsgType type);

// Structural damage in the byte stream (bad magic, CRC mismatch, unknown
// type, payload layout disagreement).  `offset` is the absolute stream
// offset — bytes since the connection's first byte — where it was detected.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::size_t offset, const std::string& message)
      : std::runtime_error("protocol error at stream offset " + std::to_string(offset) + ": " +
                           message),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

// A complete, CRC-verified frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// Encode one frame (header + payload + CRC trailer), ready for send_all.
std::vector<std::uint8_t> encode_frame(MsgType type, std::span<const std::uint8_t> payload);

// Incremental frame reassembly over an ordered byte stream.
class FrameDecoder {
 public:
  // Append bytes as they arrive; any fragmentation is fine.
  void feed(const void* data, std::size_t len);

  // The next complete frame, or nullopt if more bytes are needed.  Throws
  // ProtocolError on structural damage; the decoder is unusable afterwards
  // (the caller drops the connection — there is no resynchronization).
  std::optional<Frame> next();

  // Bytes fed but not yet consumed as complete frames.
  std::size_t buffered() const { return buf_.size() - head_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;      // consumed prefix of buf_
  std::size_t consumed_ = 0;  // absolute stream offset of buf_[head_]
};

// ---- messages ---------------------------------------------------------------
//
// Each message is a struct with encode() -> complete frame bytes and a
// static decode(frame) that throws ProtocolError when the frame is not that
// message or its payload does not decode exactly.

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string worker_name;

  std::vector<std::uint8_t> encode() const;
  static HelloMsg decode(const Frame& frame);
};

struct JobMsg {
  std::uint64_t job_id = 0;
  std::uint32_t attempt = 1;         // 1-based, for fault-draw reproducibility
  std::string dataset;               // dataset_by_name key
  double scale = 0.0;                // bit-exact via f64
  std::uint32_t trace_count = 0;     // traces in the FULL dataset
  std::uint32_t lo = 0;              // trace range [lo, hi)
  std::uint32_t hi = 0;
  std::uint32_t threads = 1;         // analysis threads on the worker
  std::uint32_t heartbeat_interval_ms = 0;
  std::uint8_t injected_fault = 0;   // orchestrate::InjectedFault the worker acts out

  std::vector<std::uint8_t> encode() const;
  static JobMsg decode(const Frame& frame);
};

struct HeartbeatMsg {
  std::uint64_t job_id = 0;

  std::vector<std::uint8_t> encode() const;
  static HeartbeatMsg decode(const Frame& frame);
};

struct SnapshotChunkMsg {
  std::uint64_t job_id = 0;
  std::uint64_t offset = 0;  // byte offset of this chunk in the .esnap stream
  std::vector<std::uint8_t> bytes;

  std::vector<std::uint8_t> encode() const;
  static SnapshotChunkMsg decode(const Frame& frame);
};

struct DoneMsg {
  std::uint64_t job_id = 0;
  std::uint64_t total_bytes = 0;   // whole .esnap stream length
  std::uint32_t snapshot_crc = 0;  // crc32 over the whole stream

  std::vector<std::uint8_t> encode() const;
  static DoneMsg decode(const Frame& frame);
};

struct ErrorMsg {
  std::uint64_t job_id = 0;
  std::string message;

  std::vector<std::uint8_t> encode() const;
  static ErrorMsg decode(const Frame& frame);
};

}  // namespace entrace::cluster
