#include "orchestrate/fault.h"

#include <cstdlib>
#include <string_view>

#include "util/rng.h"
#include "util/strings.h"

namespace entrace::orchestrate {

namespace {

constexpr const char* kWorkerFaultNames[kWorkerFaultCount] = {
    "none", "crash", "timeout-kill", "truncated-snapshot", "snapshot-rejected",
    "wrong-trace-range", "connect-refused", "disconnect", "corrupt-frame", "heartbeat-timeout"};

// The fault table: each injectable kind, the FaultInjection field that
// holds its probability, and what each transport classifies it as (kNone:
// the transport cannot perform it).
struct KindRow {
  const char* name;
  double FaultInjection::*probability;
  WorkerFault subprocess;
  WorkerFault tcp;
};

constexpr KindRow kKinds[kInjectedFaultCount] = {
    {"none", nullptr, WorkerFault::kNone, WorkerFault::kNone},
    {"refuse", &FaultInjection::refuse, WorkerFault::kNone, WorkerFault::kConnectRefused},
    {"disconnect", &FaultInjection::disconnect, WorkerFault::kNone, WorkerFault::kDisconnect},
    {"corrupt", &FaultInjection::corrupt, WorkerFault::kSnapshotRejected,
     WorkerFault::kCorruptFrame},
    {"hang", &FaultInjection::hang, WorkerFault::kTimeoutKill, WorkerFault::kHeartbeatTimeout},
    {"crash", &FaultInjection::crash, WorkerFault::kCrash, WorkerFault::kNone},
    {"truncate", &FaultInjection::truncate, WorkerFault::kTruncatedSnapshot, WorkerFault::kNone},
};

const KindRow* row(InjectedFault fault) {
  const auto i = static_cast<std::size_t>(fault);
  return i < kInjectedFaultCount ? &kKinds[i] : nullptr;
}

}  // namespace

const char* to_string(WorkerFault fault) {
  const auto i = static_cast<std::size_t>(fault);
  return i < kWorkerFaultCount ? kWorkerFaultNames[i] : "?";
}

const char* to_string(InjectedFault fault) {
  const KindRow* r = row(fault);
  return r != nullptr ? r->name : "?";
}

WorkerFault expected_fault(InjectedFault fault, TransportKind transport) {
  const KindRow* r = row(fault);
  if (r == nullptr) return WorkerFault::kNone;
  return transport == TransportKind::kTcp ? r->tcp : r->subprocess;
}

double FaultInjection::probability(InjectedFault fault) const {
  const KindRow* r = row(fault);
  return r != nullptr && r->probability != nullptr ? this->*(r->probability) : 0.0;
}

bool FaultInjection::any() const {
  for (const KindRow& r : kKinds) {
    if (r.probability != nullptr && this->*(r.probability) > 0) return true;
  }
  return false;
}

InjectedFault FaultInjection::draw(std::uint64_t job, int attempt) const {
  if (!any() || attempt > attempt_limit) return InjectedFault::kNoInject;
  // One independent stream per (job, attempt), exactly the corruptor's
  // fork-per-trace idiom: the schedule does not depend on dispatch order,
  // worker count, or how many other jobs retried first.
  Rng rng = Rng(seed).fork(job).fork(static_cast<std::uint64_t>(attempt));
  for (std::size_t k = 1; k < kInjectedFaultCount; ++k) {
    if (rng.bernoulli(this->*(kKinds[k].probability))) return static_cast<InjectedFault>(k);
  }
  return InjectedFault::kNoInject;
}

bool parse_inject_spec(const std::string& spec, FaultInjection& out, std::string* error) {
  for (const std::string_view part : split(spec, ',')) {
    if (part.empty()) continue;
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "--inject entry '" + std::string(part) + "' is not key=probability";
      }
      return false;
    }
    const std::string key(part.substr(0, eq));
    const std::string value(part.substr(eq + 1));
    char* end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
      if (error != nullptr) {
        *error = "--inject " + key + "=" + value + " is not a probability in [0, 1]";
      }
      return false;
    }
    const KindRow* match = nullptr;
    for (const KindRow& r : kKinds) {
      if (r.probability != nullptr && key == r.name) match = &r;
    }
    if (match == nullptr) {
      if (error != nullptr) {
        *error = "--inject key '" + key +
                 "' unknown (want refuse|disconnect|corrupt|hang|crash|truncate)";
      }
      return false;
    }
    out.*(match->probability) = p;
  }
  return true;
}

void truncate_snapshot_bytes(std::vector<std::uint8_t>& bytes, const FaultInjection& config,
                             std::uint64_t job, int attempt) {
  if (bytes.size() <= snapshot::kHeaderSize + 1) {
    bytes.clear();
    return;
  }
  // Cut anywhere strictly inside the section stream.  Wherever the cut
  // lands — mid-payload, mid-frame, or exactly on a section boundary (which
  // removes the end marker) — the reader reports a Kind::kTruncated error.
  // Separate stream id (1) from the draw stream so the cut offset is
  // independent of which fault was drawn.
  Rng rng = Rng(config.seed).fork(job).fork(static_cast<std::uint64_t>(attempt)).fork(1);
  const std::uint64_t lo = snapshot::kHeaderSize + 1;
  const std::uint64_t hi = bytes.size() - 1;
  bytes.resize(static_cast<std::size_t>(rng.uniform_int(lo, hi)));
}

void corrupt_snapshot_bytes(std::vector<std::uint8_t>& bytes) {
  // Flip one bit of the file's final byte: the end section's CRC trailer.
  // Every byte of the file is still present, so the reader fails the end
  // section's CRC check — a clean Kind::kMalformed rejection, never
  // mistaken for truncation.
  if (bytes.empty()) return;
  bytes.back() ^= 0x01;
}

WorkerFault classify_snapshot_error(const snapshot::SnapshotError& error) {
  return error.kind() == snapshot::SnapshotError::Kind::kTruncated
             ? WorkerFault::kTruncatedSnapshot
             : WorkerFault::kSnapshotRejected;
}

}  // namespace entrace::orchestrate
