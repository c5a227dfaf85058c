#include "orchestrate/scheduler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "core/report.h"
#include "obs/stage_timer.h"
#include "snapshot/reader.h"
#include "synth/model.h"
#include "synth/synth_source.h"

namespace entrace::orchestrate {

namespace {

// A job is its outcome record in the making, plus its backoff deadline.
struct Job : JobOutcome {
  double eligible_at = 0.0;  // when a retrying job may relaunch (now_seconds)
};

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void add(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->add(n);
}

// Handles into the run telemetry (all timing class: these describe the
// run, never the dataset, and must not perturb the semantic determinism
// contract).
struct Metrics {
  obs::Counter* attempts = nullptr;
  obs::Counter* retries = nullptr;
  obs::Gauge* backoff_seconds = nullptr;
  obs::Counter* jobs_done = nullptr;
  obs::Counter* jobs_failed = nullptr;
  std::array<obs::Counter*, kWorkerFaultCount> faults{};

  Metrics(obs::Registry* reg, const std::string& prefix) {
    if (reg == nullptr) return;
    const auto counter = [&](const std::string& name, const char* help) {
      return reg->counter(prefix + "." + name, obs::MetricClass::kTiming, help);
    };
    attempts = counter("attempts", "job attempts dispatched to workers");
    retries = counter("retries", "redispatches after a classified worker fault");
    jobs_done = counter("jobs.done", "jobs that delivered a validated snapshot");
    jobs_failed = counter("jobs.failed", "jobs that exhausted their attempt budget");
    backoff_seconds = reg->gauge(prefix + ".backoff.seconds", obs::MetricClass::kTiming,
                                 "total backoff delay scheduled before retries");
    for (std::size_t f = 1; f < kWorkerFaultCount; ++f) {
      std::string name = std::string("fault.") + to_string(static_cast<WorkerFault>(f));
      std::replace(name.begin(), name.end(), '-', '_');
      faults[f] = counter(name, "attempts that ended in this worker fault");
    }
  }
};

// The untrusted-input check every delivery passes: the bytes decode, and
// they cover exactly the job's slice of the dataset.
WorkerFault validate_snapshot(const std::vector<std::uint8_t>& bytes,
                              const snapshot::SnapshotMeta& meta, const Attempt& attempt,
                              snapshot::Snapshot& out, std::string& detail) {
  try {
    out = snapshot::decode_snapshot(bytes);
  } catch (const snapshot::SnapshotError& e) {
    detail = e.what();
    return classify_snapshot_error(e);
  } catch (const std::exception& e) {
    // Untrusted bytes must never end a dispatch thread.
    detail = e.what();
    return WorkerFault::kSnapshotRejected;
  }
  detail = snapshot::describe_range_mismatch(out, meta, attempt.lo, attempt.hi);
  return detail.empty() ? WorkerFault::kNone : WorkerFault::kWrongTraceRange;
}

class Scheduler {
 public:
  Scheduler(const DispatchConfig& config, Transport& transport)
      : config_(config),
        transport_(transport),
        prefix_(transport.kind() == TransportKind::kTcp ? "cluster" : "orchestrate"),
        metrics_(config.metrics, prefix_) {}

  OrchestrateResult run() {
    const double start = now_seconds();
    plan();
    transport_.prepare(meta_, jobs_.size());
    std::vector<std::thread> threads;
    try {
      for (std::size_t slot = 0; slot < std::min(transport_.slots(), jobs_.size()); ++slot) {
        threads.emplace_back([this, slot] { slot_loop(slot); });
      }
    } catch (const std::system_error&) {
      // Out of threads: the slots already running carry every job.
      if (threads.empty()) throw;
    }
    for (std::thread& t : threads) t.join();
    OrchestrateResult result = finish();
    if (config_.metrics != nullptr) {
      obs::record_stage(config_.metrics, prefix_, now_seconds() - start, jobs_.size());
    }
    return result;
  }

 private:
  void log(const char* fmt, ...) const __attribute__((format(printf, 2, 3))) {
    if (!config_.verbose) return;
    va_list args;
    va_start(args, fmt);
    std::fprintf(stderr, "[%s] ", prefix_.c_str());
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    va_end(args);
  }

  void plan() {
    for (std::size_t k = 1; k < kInjectedFaultCount; ++k) {
      const auto fault = static_cast<InjectedFault>(k);
      if (config_.inject.probability(fault) > 0 &&
          expected_fault(fault, transport_.kind()) == WorkerFault::kNone) {
        throw std::runtime_error(prefix_ + ": this transport cannot inject '" +
                                 to_string(fault) + "'");
      }
    }
    spec_ = dataset_by_name(config_.dataset, config_.scale);
    const std::size_t traces = SyntheticTraceSourceSet(spec_, EnterpriseModel()).size();
    if (traces == 0) {
      throw std::runtime_error(prefix_ + ": dataset " + config_.dataset + " has no traces");
    }
    meta_ = snapshot::SnapshotMeta{spec_.name, config_.scale, static_cast<std::uint32_t>(traces)};

    std::size_t m = config_.jobs == 0 ? transport_.slots() : config_.jobs;
    m = std::min(std::max<std::size_t>(1, m), traces);
    jobs_.resize(m);
    unfinished_ = m;
    for (std::size_t i = 0; i < m; ++i) {
      jobs_[i].index = i;
      jobs_[i].lo = traces * i / m;
      jobs_[i].hi = traces * (i + 1) / m;
    }
    log("%zu traces of %s in %zu jobs on %zu slots (budget %d attempts/job)", traces,
        spec_.name.c_str(), m, std::min(transport_.slots(), m), config_.retry.max_attempts);
  }

  // The lowest-numbered eligible job; otherwise sleeps until the earliest
  // backoff expires or another slot settles an attempt, and returns null.
  Job* next_job_locked(std::unique_lock<std::mutex>& lock) {
    const double now = now_seconds();
    double wake = -1.0;
    for (Job& job : jobs_) {
      if (job.state == JobState::kPending) return &job;
      if (job.state != JobState::kRetrying) continue;
      if (now >= job.eligible_at) return &job;
      wake = wake < 0 ? job.eligible_at : std::min(wake, job.eligible_at);
    }
    if (wake < 0) {
      settled_.wait(lock);
    } else {
      settled_.wait_for(lock, std::chrono::duration<double>(wake - now));
    }
    return nullptr;
  }

  void slot_loop(std::size_t slot) {
    std::unique_lock<std::mutex> lock(mu_);
    while (unfinished_ > 0) {
      Job* job = next_job_locked(lock);
      if (job == nullptr) continue;
      job->state = JobState::kRunning;
      const int number = ++job->attempts;
      const Attempt attempt{job->index, job->lo, job->hi, number,
                            config_.inject.draw(job->index, number)};
      add(metrics_.attempts);
      log("job %zu attempt %d on slot %zu: traces [%zu, %zu)%s%s", job->index, number, slot,
          job->lo, job->hi, attempt.injected == InjectedFault::kNoInject ? "" : ", injecting ",
          attempt.injected == InjectedFault::kNoInject ? "" : to_string(attempt.injected));
      lock.unlock();

      Delivery delivery;
      try {
        delivery = transport_.run(slot, attempt);
      } catch (const std::exception& e) {
        // The attempt could not even start (fork failure, out of memory):
        // the taxonomy's closest kin is a worker that died at once.
        delivery = Delivery{WorkerFault::kCrash, e.what(), {}, {}};
      }
      snapshot::Snapshot snap;
      if (delivery.fault == WorkerFault::kNone) {
        delivery.fault = validate_snapshot(delivery.snapshot, meta_, attempt, snap, delivery.detail);
      }

      lock.lock();
      settle_locked(*job, number, delivery, snap);
      settled_.notify_all();
    }
  }

  // Count a finished attempt and advance the job's state machine.
  void settle_locked(Job& job, int number, const Delivery& delivery, snapshot::Snapshot& snap) {
    for (const auto& [counter, n] : delivery.counts) add(counter, n);
    const WorkerFault fault = delivery.fault;
    if (fault == WorkerFault::kNone) {
      for (snapshot::SnapshotShard& shard : snap.shards) {
        shards_[shard.trace_index] = std::move(shard.shard);
      }
      job.state = JobState::kDone;
      --unfinished_;
      add(metrics_.jobs_done);
      log("job %zu done after %d attempt%s", job.index, number, number == 1 ? "" : "s");
      return;
    }

    job.faults.push_back(fault);
    fault_counts_[fault] += 1;
    add(metrics_.faults[static_cast<std::size_t>(fault)]);
    if (config_.retry.should_retry(number)) {
      const double backoff = config_.retry.backoff_seconds(job.index, number);
      job.state = JobState::kRetrying;
      job.eligible_at = now_seconds() + backoff;
      add(metrics_.retries);
      if (metrics_.backoff_seconds != nullptr) metrics_.backoff_seconds->add(backoff);
      log("job %zu attempt %d failed: %s (%s); retrying in %.3fs", job.index, number,
          to_string(fault), delivery.detail.c_str(), backoff);
    } else {
      job.state = JobState::kFailed;
      --unfinished_;
      add(metrics_.jobs_failed);
      log("job %zu FAILED after %d attempts: %s (%s); traces [%zu, %zu) will be missing",
          job.index, number, to_string(fault), delivery.detail.c_str(), job.lo, job.hi);
    }
  }

  OrchestrateResult finish() {
    OrchestrateResult result;
    result.spec = spec_;
    result.fault_counts = fault_counts_;
    std::vector<std::uint32_t> present;
    for (const auto& [index, shard] : shards_) present.push_back(index);
    result.manifest = manifest_for(meta_, present);
    result.complete = result.manifest.complete();
    for (const Job& job : jobs_) {
      result.jobs.push_back(job);
      result.attempts += static_cast<std::uint64_t>(job.attempts);
      result.retries += static_cast<std::uint64_t>(std::max(0, job.attempts - 1));
    }

    // The deterministic fold, in trace-index order (std::map iteration) —
    // the exact code path analyze_dataset and entrace_merge share, which is
    // what makes the merged report byte-identical to a direct run.
    std::vector<TraceShard> shards;
    shards.reserve(shards_.size());
    for (auto& [index, shard] : shards_) shards.push_back(std::move(shard));
    result.shards_folded = shards.size();
    result.analysis = fold_shards(spec_.name, std::move(shards),
                                  default_config_for_model(EnterpriseModel().site()));
    shards_.clear();
    return result;
  }

  const DispatchConfig& config_;
  Transport& transport_;
  const std::string prefix_;
  Metrics metrics_;
  DatasetSpec spec_;
  snapshot::SnapshotMeta meta_;

  std::mutex mu_;  // guards jobs_, shards_, fault_counts_ and every metric write
  std::condition_variable settled_;
  std::vector<Job> jobs_;
  std::size_t unfinished_ = 0;  // jobs not yet done or failed
  std::map<std::uint32_t, TraceShard> shards_;
  WorkerFaultCounts fault_counts_;
};

}  // namespace

OrchestrateResult run_jobs(const DispatchConfig& config, Transport& transport) {
  return Scheduler(config, transport).run();
}

std::string render_report(const OrchestrateResult& result) {
  std::string out;
  if (!result.complete) {
    out += partial_banner(result.manifest);
    out += result.manifest.render();
    out += "\n";
    if (result.shards_folded == 0) {
      out += "(no traces were analyzed; the report body is omitted)\n";
      return out;
    }
  }
  const report::ReportInput input{&result.spec, &result.analysis};
  const std::vector<report::ReportInput> inputs{input};
  out += report::full_report(inputs);
  return out;
}

}  // namespace entrace::orchestrate
