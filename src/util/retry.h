// Retry scheduling for supervised workers: a seeded-jitter exponential
// backoff policy with a per-job attempt budget.
//
// The policy is a pure function of (seed, job, attempt): the delay before
// retrying job J after its A-th failed attempt is the same on every run and
// on every machine, which keeps orchestrated runs reproducible — a property
// the rest of the pipeline (dataset generation, fault injection, shard
// folds) already guarantees, and which the scheduler's determinism
// contract depends on.  Jitter is still real jitter *across jobs*: each
// (job, attempt) pair draws from its own forked Rng stream, so a fleet of
// failed workers does not retry in lockstep.
#pragma once

#include <cstdint>

namespace entrace::util {

// Exponential backoff with bounded multiplicative jitter and a per-job
// attempt budget.  `max_attempts` counts every launch of the job including
// the first, so max_attempts = 1 means "no retries".
struct RetryPolicy {
  int max_attempts = 3;
  double base_delay = 0.05;  // seconds before the first retry (pre-jitter)
  double multiplier = 2.0;   // growth per additional failed attempt
  double max_delay = 5.0;    // pre-jitter ceiling
  double jitter = 0.5;       // delay *= uniform[1 - jitter/2, 1 + jitter/2)
  std::uint64_t seed = 0x5eed;

  // True when a job that has failed `failed_attempts` times may launch again.
  bool should_retry(int failed_attempts) const { return failed_attempts < max_attempts; }

  // Seconds to wait before retrying `job` after its `failed_attempts`-th
  // consecutive failure (failed_attempts >= 1).  Deterministic per
  // (seed, job, failed_attempts); never negative.
  double backoff_seconds(std::uint64_t job, int failed_attempts) const;
};

}  // namespace entrace::util
