// The job scheduler: partition a dataset's traces into M jobs, carry each
// attempt to a worker through a Transport, and fold the validated .esnap
// results into a DatasetAnalysis — with real failure handling end to end.
// Both dispatch modes run on it: entrace_shard subprocesses
// (orchestrate/supervisor.h) and entrace_worker TCP endpoints
// (cluster/coordinator.h).
//
// Job state machine:
//
//   pending ──dispatch──> running ──validated snapshot──> done
//      ^                     │
//      │                     ├─ any classified WorkerFault (fault.h)
//      │                     v
//      └──backoff────── retrying ──budget exhausted──> failed
//
// One dispatch thread per slot (slots = min(transport slots, jobs)) pulls
// the lowest-numbered eligible job, so a failed range is picked up by
// whichever slot frees up first — reassignment away from a dead worker
// falls out of the queue discipline.  Faults are drawn centrally
// (FaultInjection::draw) and acted out by the transport; retries wait out
// a seeded-jitter exponential backoff (util/retry.h).
//
// A worker's output is never trusted: a delivery means nothing until the
// snapshot decodes, CRC-checks, and covers the exact trace range the job
// asked for.  The final fold runs in trace-index order, so for any fault
// schedule, slot count, and arrival order in which every job eventually
// succeeds the report is byte-identical to a direct single-process run.
// A job that exhausts its attempt budget is marked failed and the run
// still completes: the result's coverage manifest names exactly the
// missing trace indices, and render_report() brands the output PARTIAL.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "obs/metrics.h"
#include "orchestrate/coverage.h"
#include "orchestrate/fault.h"
#include "synth/dataset_spec.h"
#include "util/retry.h"

namespace entrace::orchestrate {

enum class JobState : std::uint8_t { kPending, kRunning, kRetrying, kDone, kFailed };

// The fields both dispatch modes share; OrchestratorConfig and
// cluster::ClusterConfig add their transport's settings.
struct DispatchConfig {
  std::string dataset = "D0";
  double scale = 0.01;
  // Trace-range partitions.  0 = one job per slot.  Clamped to the trace
  // count (a job always covers at least one trace).
  std::size_t jobs = 0;
  // Analysis threads per worker job (0 = the worker's auto default).
  std::size_t shard_threads = 1;
  // Per-job attempt budget + backoff schedule (seeded, deterministic).
  util::RetryPolicy retry;
  // Deterministic fault injection (off by default).  A kind the transport
  // cannot perform is a configuration error.
  FaultInjection inject;
  // Timing-class telemetry under "orchestrate." (subprocess) or
  // "cluster." (TCP): attempts, retries, backoff.seconds, jobs.done,
  // jobs.failed, fault.<kind>, plus the transport's own counters.
  // Optional.
  obs::Registry* metrics = nullptr;
  // Per-event progress lines on stderr.
  bool verbose = false;
};

// Terminal record of one job.
struct JobOutcome {
  std::size_t index = 0;
  std::size_t lo = 0, hi = 0;  // trace range [lo, hi)
  JobState state = JobState::kPending;
  int attempts = 0;                 // launches, including the successful one
  std::vector<WorkerFault> faults;  // one entry per failed attempt
};

struct OrchestrateResult {
  // True iff every job reached kDone (the manifest is then empty).
  bool complete = false;
  CoverageManifest manifest;
  std::vector<JobOutcome> jobs;
  WorkerFaultCounts fault_counts;  // across all attempts of all jobs
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  // Folded from every shard that was delivered and validated; covers only
  // the manifest's non-missing traces when the run is partial.
  DatasetAnalysis analysis;
  std::size_t shards_folded = 0;
  DatasetSpec spec;  // report rendering needs the spec the run used
};

// One attempt at one job, as the scheduler hands it to a transport.
struct Attempt {
  std::size_t job = 0;
  std::size_t lo = 0, hi = 0;  // trace range [lo, hi)
  int number = 0;              // 1-based attempt of this job
  InjectedFault injected = InjectedFault::kNoInject;
};

// What a transport brings back from an attempt.
struct Delivery {
  // kNone: `snapshot` holds the worker's .esnap bytes, still untrusted.
  WorkerFault fault = WorkerFault::kNone;
  std::string detail;
  std::vector<std::uint8_t> snapshot;
  // Transport counter increments, applied under the scheduler's lock with
  // every other metric write (obs::Counter is not atomic).
  std::vector<std::pair<obs::Counter*, std::uint64_t>> counts;
};

// How attempts reach workers.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  virtual TransportKind kind() const = 0;
  // Attempts the transport can carry at once (workers, endpoints); >= 1.
  virtual std::size_t slots() const = 0;
  // Called once the partition is known, before the first attempt.
  virtual void prepare(const snapshot::SnapshotMeta& meta, std::size_t jobs) = 0;
  // Carry one attempt on `slot`.  Each slot has its own thread.
  virtual Delivery run(std::size_t slot, const Attempt& attempt) = 0;
};

// Run every job to a terminal state and fold the results.  Throws
// std::runtime_error only for configuration errors (an injected kind the
// transport cannot perform, an empty dataset, or whatever the transport's
// prepare() rejects); worker failures never throw — they end in the
// manifest.
OrchestrateResult run_jobs(const DispatchConfig& config, Transport& transport);

// The run's report: byte-identical to enterprise_report / entrace_merge
// output when complete; prefixed with the PARTIAL banner and the coverage
// manifest when not.
std::string render_report(const OrchestrateResult& result);

}  // namespace entrace::orchestrate
