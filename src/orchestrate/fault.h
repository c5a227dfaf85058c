// Worker-fault taxonomy and the deterministic fault-injection harness for
// the job scheduler (scheduler.h) and both of its transports.
//
// The scheduler classifies every failed attempt into one WorkerFault,
// mirroring the per-packet anomaly taxonomy (net/anomaly.h) one level up
// the stack: packets get AnomalyKinds, worker attempts get WorkerFaults,
// and both are counted, merged, and reported rather than crashing the run.
//
// FaultInjection makes the failure handling testable the same way
// synth/corruptor.h makes the decode path testable: faults are drawn by
// the scheduler from an Rng stream forked per (job, attempt), so a given
// seed produces the exact same fault schedule on every run, for any worker
// count or dispatch order — and a schedule in which every job eventually
// succeeds must produce a byte-identical merged report.  The transport
// carrying the attempt acts the drawn kind out; expected_fault() is the
// table of which transport performs which kind.
#pragma once

#include <array>
#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/format.h"

namespace entrace::orchestrate {

// What the scheduler observed about a failed worker attempt.
enum class WorkerFault : std::uint8_t {
  kNone = 0,           // attempt succeeded
  kCrash,              // nonzero exit, a signal we did not send, or an ERROR frame
  kTimeoutKill,        // exceeded the attempt deadline; the subprocess was SIGKILLed
  kTruncatedSnapshot,  // the snapshot is missing or cut short
  kSnapshotRejected,   // the snapshot failed CRC/structural validation
  kWrongTraceRange,    // snapshot decodes but covers the wrong dataset slice
  kConnectRefused,     // endpoint unreachable: dial failed or timed out
  kDisconnect,         // connection dropped mid-stream before DONE
  kCorruptFrame,       // frame failed CRC/structural validation
  kHeartbeatTimeout,   // worker stopped sending frames past the deadline
  kCount
};

inline constexpr std::size_t kWorkerFaultCount = static_cast<std::size_t>(WorkerFault::kCount);

const char* to_string(WorkerFault fault);

// Per-attempt fault counters, folded into the run summary like
// AnomalyCounts are folded into CaptureQuality.
struct WorkerFaultCounts {
  std::array<std::uint64_t, kWorkerFaultCount> counts{};

  std::uint64_t& operator[](WorkerFault f) { return counts[static_cast<std::size_t>(f)]; }
  std::uint64_t operator[](WorkerFault f) const { return counts[static_cast<std::size_t>(f)]; }
  std::uint64_t total_faults() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 1; i < kWorkerFaultCount; ++i) sum += counts[i];
    return sum;
  }
};

// What the harness injects into an attempt, in the order draw() evaluates
// the kinds.  The values double as the cluster protocol's
// JobMsg::injected_fault wire byte, so the TCP kinds (1-4) keep their
// numbers.
enum class InjectedFault : std::uint8_t {
  kNoInject = 0,
  kRefuseInject,      // TCP: the coordinator dials a dead port instead of the worker
  kDisconnectInject,  // TCP: the worker closes the connection mid-snapshot-stream
  kCorruptInject,     // TCP: a payload bit flipped in a SNAPSHOT frame;
                      // subprocess: a bit flipped in the delivered file's CRC
  kHangInject,        // the worker goes silent until the deadline fires
  kCrashInject,       // subprocess: entrace_shard _exits mid-write
  kTruncateInject,    // subprocess: the delivered file is cut short
  kCount
};

inline constexpr std::size_t kInjectedFaultCount =
    static_cast<std::size_t>(InjectedFault::kCount);

const char* to_string(InjectedFault fault);

// The two ways an attempt reaches a worker.
enum class TransportKind : std::uint8_t { kSubprocess, kTcp };

// The WorkerFault `transport` classifies an injected `fault` as, or kNone
// when that transport cannot perform the kind (a config error).
WorkerFault expected_fault(InjectedFault fault, TransportKind transport);

struct FaultInjection {
  // Independent per-attempt probabilities; the first kind (in
  // InjectedFault order) that fires wins.
  double refuse = 0.0;
  double disconnect = 0.0;
  double corrupt = 0.0;
  double hang = 0.0;
  double crash = 0.0;
  double truncate = 0.0;
  std::uint64_t seed = 1;
  // Inject only into the first `attempt_limit` attempts of each job.  The
  // default never stops injecting; tests set 1 to mean "first attempt
  // always faults, retry always recovers".
  int attempt_limit = INT32_MAX;

  // The configured probability of `fault` (0 for kNoInject).
  double probability(InjectedFault fault) const;
  bool any() const;

  // The fault (or none) for attempt `attempt` (1-based) of job `job` —
  // a pure function of (seed, job, attempt).
  InjectedFault draw(std::uint64_t job, int attempt) const;
};

// Parse "crash=0.2,hang=0.1,refuse=0.05" (any subset of the six kind
// names, each probability in [0, 1]).  False with *error set on unknown
// keys or out-of-range values; kinds not named keep their probability.
bool parse_inject_spec(const std::string& spec, FaultInjection& out, std::string* error);

// Corrupt snapshot bytes in place for the two subprocess-applied faults.
// Deterministic per (seed, job, attempt); both guarantee the reader
// rejects the result (truncate cuts the file short of its end marker,
// corrupt flips a bit inside the end section's CRC trailer).
void truncate_snapshot_bytes(std::vector<std::uint8_t>& bytes, const FaultInjection& config,
                             std::uint64_t job, int attempt);
void corrupt_snapshot_bytes(std::vector<std::uint8_t>& bytes);

// Map a snapshot decode failure onto the worker-fault taxonomy.
WorkerFault classify_snapshot_error(const snapshot::SnapshotError& error);

}  // namespace entrace::orchestrate
