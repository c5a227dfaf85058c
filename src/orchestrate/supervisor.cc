#include "orchestrate/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "util/subprocess.h"

namespace entrace::orchestrate {

namespace {

std::string format_scale(double scale) {
  // Shortest round-trippable spelling (the exposition idiom): the worker
  // re-parses this with strtod and its SnapshotMeta must compare equal
  // bit-for-bit.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", scale);
  if (std::strtod(buf, nullptr) == scale) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", scale);
  return buf;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  bytes.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  return bytes.empty() || static_cast<bool>(in.read(reinterpret_cast<char*>(bytes.data()),
                                                    static_cast<std::streamsize>(bytes.size())));
}

class SubprocessTransport final : public Transport {
 public:
  explicit SubprocessTransport(const OrchestratorConfig& config) : config_(config) {
    std::error_code ec;
    if (config.shard_binary.empty() || !std::filesystem::exists(config.shard_binary, ec)) {
      throw std::runtime_error("orchestrate: worker binary " + config.shard_binary +
                               " does not exist");
    }
    if (config.work_dir.empty()) {
      throw std::runtime_error("orchestrate: work_dir not set");
    }
    std::filesystem::create_directories(config.work_dir, ec);
    if (ec) {
      throw std::runtime_error("orchestrate: cannot create work dir " + config.work_dir + ": " +
                               ec.message());
    }
    if (config.metrics != nullptr) {
      kills_ = config.metrics->counter("orchestrate.kills", obs::MetricClass::kTiming,
                                       "workers SIGKILLed at the attempt deadline");
    }
  }

  ~SubprocessTransport() override {
    if (config_.keep_files) return;
    std::error_code ec;
    for (std::size_t job = 0; job < jobs_; ++job) {
      std::filesystem::remove(job_path(job), ec);
      std::filesystem::remove(job_path(job) + ".tmp", ec);
    }
  }

  TransportKind kind() const override { return TransportKind::kSubprocess; }
  std::size_t slots() const override { return std::max<std::size_t>(1, config_.workers); }

  void prepare(const snapshot::SnapshotMeta& meta, std::size_t jobs) override {
    meta_ = meta;
    jobs_ = jobs;
  }

  Delivery run(std::size_t /*slot*/, const Attempt& attempt) override {
    const std::string path = job_path(attempt.job);
    std::vector<std::string> argv = {config_.shard_binary,
                                     path,
                                     meta_.dataset,
                                     format_scale(config_.scale),
                                     "--traces",
                                     std::to_string(attempt.lo) + ":" + std::to_string(attempt.hi),
                                     "--threads",
                                     std::to_string(config_.shard_threads),
                                     "--resume"};
    if (attempt.injected == InjectedFault::kCrashInject ||
        attempt.injected == InjectedFault::kHangInject) {
      argv.push_back("--inject-fault");
      argv.push_back(to_string(attempt.injected));
    }

    Delivery delivery;
    util::Subprocess proc = util::Subprocess::spawn(argv);
    const std::optional<util::ExitStatus> status = proc.wait_for(config_.attempt_deadline);
    if (!status.has_value()) {
      proc.kill_and_wait();
      if (kills_ != nullptr) delivery.counts.emplace_back(kills_, 1);
      delivery.fault = WorkerFault::kTimeoutKill;
      delivery.detail = "deadline of " + std::to_string(config_.attempt_deadline) + "s exceeded";
      return delivery;
    }
    if (!status->success()) {
      delivery.fault = WorkerFault::kCrash;
      delivery.detail = status->exited ? "exit code " + std::to_string(status->exit_code)
                                       : "killed by signal " + std::to_string(status->term_signal);
      return delivery;
    }
    if (!read_file(path, delivery.snapshot)) {
      // The worker "succeeded" without delivering a file: the byte-level
      // analogue of truncation.
      delivery.fault = WorkerFault::kTruncatedSnapshot;
      delivery.detail = "cannot read " + path;
      return delivery;
    }
    if (attempt.injected == InjectedFault::kTruncateInject) {
      truncate_snapshot_bytes(delivery.snapshot, config_.inject, attempt.job, attempt.number);
    } else if (attempt.injected == InjectedFault::kCorruptInject) {
      corrupt_snapshot_bytes(delivery.snapshot);
    } else {
      return delivery;
    }
    // Damage the file itself, not just the bytes in hand, so that a
    // --resume retry must redo the analysis.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(delivery.snapshot.data()),
              static_cast<std::streamsize>(delivery.snapshot.size()));
    return delivery;
  }

 private:
  std::string job_path(std::size_t job) const {
    return (std::filesystem::path(config_.work_dir) / ("job_" + std::to_string(job) + ".esnap"))
        .string();
  }

  const OrchestratorConfig& config_;
  obs::Counter* kills_ = nullptr;
  snapshot::SnapshotMeta meta_;
  std::size_t jobs_ = 0;
};

}  // namespace

OrchestrateResult orchestrate(const OrchestratorConfig& config) {
  SubprocessTransport transport(config);
  return run_jobs(config, transport);
}

}  // namespace entrace::orchestrate
