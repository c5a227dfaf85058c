// Subprocess dispatch: the job scheduler (scheduler.h) carrying each
// attempt to an entrace_shard worker process.
//
// An attempt spawns `entrace_shard <work_dir>/job_<i>.esnap <dataset>
// <scale> --traces lo:hi --threads N --resume`, waits up to the attempt
// deadline, and SIGKILLs a worker still running past it (timeout-kill).
// A nonzero exit or an unexpected signal is a crash; an exit 0 delivers
// the snapshot file, which the scheduler then validates like any other
// untrusted input.
//
// Injected faults this transport performs: crash and hang are handed to
// the worker as `entrace_shard --inject-fault` (die mid-write / stall until
// the deadline); truncate and corrupt are byte surgery on the delivered
// file after a clean exit.  refuse and disconnect are network faults and a
// configuration error here.
#pragma once

#include <string>

#include "orchestrate/scheduler.h"

namespace entrace::orchestrate {

struct OrchestratorConfig : DispatchConfig {
  // Concurrent worker subprocesses.
  std::size_t workers = 2;
  // Wall-clock deadline per attempt; a worker still running past it is
  // SIGKILLed and the attempt classified kTimeoutKill.
  double attempt_deadline = 120.0;
  // Path to the entrace_shard binary (required).
  std::string shard_binary;
  // Directory for the per-job .esnap files (required; created if absent).
  std::string work_dir;
  // Keep the per-job .esnap files after the fold (default: delete them).
  bool keep_files = false;
};

// Run every job to completion over worker subprocesses.  Throws
// std::runtime_error only for configuration errors (missing worker binary,
// uncreatable work dir, empty dataset, a network fault kind in `inject`);
// worker failures never throw — they end in the manifest.  The
// orchestrate.* metrics add `orchestrate.kills` (workers SIGKILLed at the
// deadline).
OrchestrateResult orchestrate(const OrchestratorConfig& config);

}  // namespace entrace::orchestrate
