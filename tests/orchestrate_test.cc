// Fault-tolerant orchestration suite (CTest label "orchestrate", also run
// under ASan+UBSan via `ctest --preset orchestrate-asan`).
//
// The layer's contract, pinned down here:
//   1. Retry policy: attempt budgets and seeded-jitter exponential backoff
//      are pure functions of (seed, job, attempt).  The job scheduler's
//      state machine, backoff, manifest and slot clamp run against an
//      in-process fake transport — no processes, no sockets.
//   2. Supervision: every injected worker fault kind (crash, hang,
//      truncated snapshot, CRC reject) is classified correctly and
//      recovered by retry; kinds the transport cannot perform are a
//      configuration error, at the API and at the CLI.
//   3. Determinism: for any fault schedule in which every job eventually
//      succeeds, the orchestrated report is byte-identical to a direct
//      single-process run — at 1 worker and at 4.
//   4. Graceful degradation: an exhausted attempt budget yields a coverage
//      manifest naming exactly the missing traces, and the run completes
//      instead of dying.
//   5. Crash safety: .esnap and metrics files appear atomically (tmp +
//      rename); an abandoned writer leaves no final file behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "obs/exposition.h"
#include "orchestrate/fault.h"
#include "orchestrate/scheduler.h"
#include "orchestrate/supervisor.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"
#include "util/clock.h"
#include "util/retry.h"
#include "util/subprocess.h"

namespace entrace {
namespace {

namespace snap = entrace::snapshot;
using orchestrate::FaultInjection;
using orchestrate::InjectedFault;
using orchestrate::WorkerFault;

// ---------------------------------------------------------------- retry --

TEST(RetryPolicyTest, AttemptBudgetSemantics) {
  util::RetryPolicy one;
  one.max_attempts = 1;  // no retries
  EXPECT_FALSE(one.should_retry(1));

  util::RetryPolicy three;
  three.max_attempts = 3;
  EXPECT_TRUE(three.should_retry(1));
  EXPECT_TRUE(three.should_retry(2));
  EXPECT_FALSE(three.should_retry(3));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndClamps) {
  util::RetryPolicy p;
  p.base_delay = 0.1;
  p.multiplier = 2.0;
  p.max_delay = 1.0;
  p.jitter = 0.0;  // exact nominal schedule
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 2), 0.2);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 3), 0.4);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 4), 0.8);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 5), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 9), 1.0);
}

TEST(RetryPolicyTest, JitterIsBoundedDeterministicAndPerJob) {
  util::RetryPolicy p;
  p.base_delay = 0.1;
  p.jitter = 0.5;
  bool jobs_differ = false;
  for (std::uint64_t job = 0; job < 16; ++job) {
    const double d = p.backoff_seconds(job, 1);
    EXPECT_GE(d, 0.1 * 0.75) << "job " << job;
    EXPECT_LT(d, 0.1 * 1.25) << "job " << job;
    EXPECT_DOUBLE_EQ(d, p.backoff_seconds(job, 1)) << "job " << job;
    if (d != p.backoff_seconds(0, 1)) jobs_differ = true;
  }
  EXPECT_TRUE(jobs_differ) << "a fleet of failed jobs must not retry in lockstep";
}

TEST(RetryPolicyTest, FakeClockSleepsWithoutBlocking) {
  util::FakeClock clock(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.sleep(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 12.5);
  clock.sleep(-1.0);  // never goes backwards
  EXPECT_DOUBLE_EQ(clock.now(), 12.5);
}

// ----------------------------------------------------------- subprocess --

TEST(SubprocessTest, CapturesExitCode) {
  auto p = util::Subprocess::spawn({"/bin/sh", "-c", "exit 3"});
  const util::ExitStatus st = p.wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 3);
  EXPECT_FALSE(st.signaled);
  EXPECT_FALSE(st.success());
}

TEST(SubprocessTest, DistinguishesKillFromExit) {
  auto p = util::Subprocess::spawn({"/bin/sleep", "30"});
  EXPECT_TRUE(p.running());
  EXPECT_FALSE(p.poll().has_value());
  const util::ExitStatus st = p.kill_and_wait();
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.term_signal, SIGKILL);
  EXPECT_FALSE(st.exited);
}

TEST(SubprocessTest, ExecFailureSurfacesAs127) {
  auto p = util::Subprocess::spawn({"/no/such/binary/anywhere"});
  const util::ExitStatus st = p.wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 127);
}

TEST(SubprocessTest, WaitForTimesOutWithoutReaping) {
  auto p = util::Subprocess::spawn({"/bin/sleep", "30"});
  EXPECT_FALSE(p.wait_for(0.05).has_value());
  EXPECT_TRUE(p.running());
  p.kill_and_wait();
}

// ------------------------------------------------------ fault injection --

TEST(FaultInjectionTest, ParsesSpecStrings) {
  FaultInjection f;
  std::string error;
  ASSERT_TRUE(orchestrate::parse_inject_spec("crash=0.2,hang=0.1,truncate=0.05,corrupt=1", f,
                                             &error))
      << error;
  EXPECT_DOUBLE_EQ(f.crash, 0.2);
  EXPECT_DOUBLE_EQ(f.hang, 0.1);
  EXPECT_DOUBLE_EQ(f.truncate, 0.05);
  EXPECT_DOUBLE_EQ(f.corrupt, 1.0);

  FaultInjection subset;
  ASSERT_TRUE(orchestrate::parse_inject_spec("hang=0.5", subset, &error)) << error;
  EXPECT_DOUBLE_EQ(subset.crash, 0.0);
  EXPECT_DOUBLE_EQ(subset.hang, 0.5);

  EXPECT_FALSE(orchestrate::parse_inject_spec("explode=0.5", subset, &error));
  EXPECT_FALSE(orchestrate::parse_inject_spec("crash=1.5", subset, &error));
  EXPECT_FALSE(orchestrate::parse_inject_spec("crash", subset, &error));
  EXPECT_FALSE(orchestrate::parse_inject_spec("crash=nan", subset, &error));

  // One spec names every kind; which transport may perform them is the
  // scheduler's check, not the parser's.
  FaultInjection all;
  ASSERT_TRUE(orchestrate::parse_inject_spec(
      "crash=0.1,hang=0.2,truncate=0.3,corrupt=0.4,refuse=0.5,disconnect=0.6", all, &error))
      << error;
  EXPECT_DOUBLE_EQ(all.probability(InjectedFault::kCrashInject), 0.1);
  EXPECT_DOUBLE_EQ(all.probability(InjectedFault::kHangInject), 0.2);
  EXPECT_DOUBLE_EQ(all.probability(InjectedFault::kTruncateInject), 0.3);
  EXPECT_DOUBLE_EQ(all.probability(InjectedFault::kCorruptInject), 0.4);
  EXPECT_DOUBLE_EQ(all.refuse, 0.5);
  EXPECT_DOUBLE_EQ(all.disconnect, 0.6);
  EXPECT_DOUBLE_EQ(all.probability(InjectedFault::kNoInject), 0.0);
}

// The unified draw() evaluates kinds in InjectedFault order (refuse,
// disconnect, corrupt, hang, crash, truncate).  Every schedule that uses
// only the TCP kinds must equal the one the network-only harness drew
// before the two harnesses merged: these strings were generated with it.
// Each group is one job; each digit is the InjectedFault wire byte of
// attempts 1, 2, ... of that job.
TEST(FaultInjectionTest, TcpKindSchedulesArePinned) {
  const auto schedule = [](const FaultInjection& f, int jobs, int attempts) {
    std::string out;
    for (int job = 0; job < jobs; ++job) {
      if (job > 0) out += ' ';
      for (int a = 1; a <= attempts; ++a) {
        out += static_cast<char>('0' + static_cast<int>(f.draw(static_cast<std::uint64_t>(job), a)));
      }
    }
    return out;
  };

  // The cluster suite's mixed schedule.
  FaultInjection mixed;
  mixed.refuse = mixed.disconnect = mixed.corrupt = 0.2;
  mixed.hang = 0.1;
  mixed.seed = 3;
  EXPECT_EQ(schedule(mixed, 4, 8), "10402020 20002002 23003304 00000023");

  // The fleet benchmark's shape: 5% each of refuse/disconnect/corrupt on
  // the first two attempts of 8 jobs.
  const std::pair<std::uint64_t, const char*> fleet[] = {
      {1, "000 000 020 010 120 300 000 110"},
      {2, "000 000 000 000 100 000 030 010"},
      {7, "010 000 000 100 000 000 000 010"},
      {12345, "000 300 010 000 000 000 000 300"},
  };
  for (const auto& [seed, expected] : fleet) {
    FaultInjection f;
    f.refuse = f.disconnect = f.corrupt = 0.05;
    f.attempt_limit = 2;
    f.seed = seed;
    EXPECT_EQ(schedule(f, 8, 3), expected) << "seed " << seed;
  }

  FaultInjection even;
  even.refuse = even.disconnect = even.corrupt = even.hang = 0.25;
  even.seed = 42;
  EXPECT_EQ(schedule(even, 16, 4),
            "0132 2110 1002 1144 0132 1201 0000 1413 2110 3210 1022 0013 0301 1112 0132 1133");
}

// One table says which transport performs which kind, and as what fault.
TEST(FaultInjectionTest, ExpectedFaultTableCoversBothTransports) {
  using orchestrate::TransportKind;
  struct Row {
    InjectedFault kind;
    WorkerFault subprocess;
    WorkerFault tcp;
  };
  const Row rows[] = {
      {InjectedFault::kNoInject, WorkerFault::kNone, WorkerFault::kNone},
      {InjectedFault::kRefuseInject, WorkerFault::kNone, WorkerFault::kConnectRefused},
      {InjectedFault::kDisconnectInject, WorkerFault::kNone, WorkerFault::kDisconnect},
      {InjectedFault::kCorruptInject, WorkerFault::kSnapshotRejected, WorkerFault::kCorruptFrame},
      {InjectedFault::kHangInject, WorkerFault::kTimeoutKill, WorkerFault::kHeartbeatTimeout},
      {InjectedFault::kCrashInject, WorkerFault::kCrash, WorkerFault::kNone},
      {InjectedFault::kTruncateInject, WorkerFault::kTruncatedSnapshot, WorkerFault::kNone},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(orchestrate::to_string(row.kind));
    EXPECT_EQ(orchestrate::expected_fault(row.kind, TransportKind::kSubprocess), row.subprocess);
    EXPECT_EQ(orchestrate::expected_fault(row.kind, TransportKind::kTcp), row.tcp);
  }
}

TEST(FaultInjectionTest, DrawIsSeededPerJobAttempt) {
  FaultInjection f;
  f.crash = 1.0;
  EXPECT_EQ(f.draw(0, 1), InjectedFault::kCrashInject);
  EXPECT_EQ(f.draw(7, 3), InjectedFault::kCrashInject);

  f.attempt_limit = 1;  // only the first attempt of each job faults
  EXPECT_EQ(f.draw(0, 1), InjectedFault::kCrashInject);
  EXPECT_EQ(f.draw(0, 2), InjectedFault::kNoInject);

  // A mixed schedule is a pure function of (seed, job, attempt).
  FaultInjection mixed;
  mixed.crash = mixed.hang = mixed.truncate = mixed.corrupt = 0.25;
  mixed.seed = 42;
  for (std::uint64_t job = 0; job < 8; ++job) {
    EXPECT_EQ(mixed.draw(job, 1), mixed.draw(job, 1)) << "job " << job;
  }
}

// ------------------------------------------------------------ scheduler --
//
// The scheduler's state machine against an in-process transport: no
// processes, no sockets.  The fake performs whatever fault the scheduler
// drew, classified as the subprocess transport would, and otherwise
// delivers a valid snapshot of empty shards for the job's range.

class FakeTransport final : public orchestrate::Transport {
 public:
  explicit FakeTransport(std::size_t slots) : slots_(slots) {}

  orchestrate::TransportKind kind() const override {
    return orchestrate::TransportKind::kSubprocess;
  }
  std::size_t slots() const override { return slots_; }
  void prepare(const snap::SnapshotMeta& meta, std::size_t jobs) override {
    meta_ = meta;
    prepared_jobs = jobs;
  }

  orchestrate::Delivery run(std::size_t slot, const orchestrate::Attempt& attempt) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      max_slot = std::max(max_slot, slot);
      log.push_back({attempt, std::chrono::steady_clock::now()});
    }
    orchestrate::Delivery delivery;
    delivery.fault =
        orchestrate::expected_fault(attempt.injected, orchestrate::TransportKind::kSubprocess);
    if (delivery.fault != WorkerFault::kNone) return delivery;
    std::ostringstream out(std::ios::binary);
    snap::SnapshotWriter writer(out, meta_);
    // A misdelivery leaves the range's last trace out.
    const bool misdeliver = attempt.job == misdeliver_job && attempt.number == 1;
    for (std::size_t t = attempt.lo; t < attempt.hi - (misdeliver ? 1 : 0); ++t) {
      writer.add_shard(static_cast<std::uint32_t>(t), TraceShard{});
    }
    writer.close();
    const std::string bytes = std::move(out).str();
    delivery.snapshot.assign(bytes.begin(), bytes.end());
    return delivery;
  }

  struct Entry {
    orchestrate::Attempt attempt;
    std::chrono::steady_clock::time_point at;
  };
  std::size_t misdeliver_job = SIZE_MAX;
  std::size_t prepared_jobs = 0;
  std::size_t max_slot = 0;
  std::vector<Entry> log;

 private:
  std::size_t slots_;
  snap::SnapshotMeta meta_;
  std::mutex mu_;
};

orchestrate::DispatchConfig fake_config() {
  orchestrate::DispatchConfig config;
  config.dataset = "D0";
  config.scale = 0.004;  // 22 traces
  config.retry.base_delay = 0.01;
  config.retry.jitter = 0.0;
  return config;
}

TEST(SchedulerTest, FaultedAttemptsRetryAfterBackoffUntilDone) {
  obs::Registry metrics;
  orchestrate::DispatchConfig config = fake_config();
  config.jobs = 4;
  config.inject.crash = 1.0;
  config.inject.attempt_limit = 1;  // every first attempt crashes
  config.metrics = &metrics;
  FakeTransport transport(2);
  const orchestrate::OrchestrateResult result = orchestrate::run_jobs(config, transport);

  EXPECT_TRUE(result.complete);
  EXPECT_EQ(transport.prepared_jobs, 4u);
  EXPECT_EQ(result.shards_folded, 22u);
  EXPECT_EQ(result.attempts, 8u);
  EXPECT_EQ(result.retries, 4u);
  EXPECT_EQ(result.fault_counts[WorkerFault::kCrash], 4u);
  EXPECT_EQ(result.fault_counts.total_faults(), 4u);
  for (const orchestrate::JobOutcome& job : result.jobs) {
    EXPECT_EQ(job.state, orchestrate::JobState::kDone);
    EXPECT_EQ(job.attempts, 2);
    EXPECT_EQ(job.faults, std::vector<WorkerFault>{WorkerFault::kCrash});
    EXPECT_EQ(job.lo, 22 * job.index / 4);
    EXPECT_EQ(job.hi, 22 * (job.index + 1) / 4);
  }

  // A retry waits out its backoff (0.01 s with jitter off).
  ASSERT_EQ(transport.log.size(), 8u);
  for (std::size_t job = 0; job < 4; ++job) {
    std::chrono::steady_clock::time_point first, second;
    for (const FakeTransport::Entry& e : transport.log) {
      if (e.attempt.job != job) continue;
      (e.attempt.number == 1 ? first : second) = e.at;
    }
    EXPECT_GE(std::chrono::duration<double>(second - first).count(), 0.01) << "job " << job;
  }

  using obs::MetricClass;
  EXPECT_EQ(metrics.counter("orchestrate.attempts", MetricClass::kTiming)->value(), 8u);
  EXPECT_EQ(metrics.counter("orchestrate.retries", MetricClass::kTiming)->value(), 4u);
  EXPECT_EQ(metrics.counter("orchestrate.jobs.done", MetricClass::kTiming)->value(), 4u);
  EXPECT_EQ(metrics.counter("orchestrate.jobs.failed", MetricClass::kTiming)->value(), 0u);
  EXPECT_EQ(metrics.counter("orchestrate.fault.crash", MetricClass::kTiming)->value(), 4u);
  EXPECT_DOUBLE_EQ(metrics.gauge("orchestrate.backoff.seconds", MetricClass::kTiming)->value(),
                   0.04);
}

TEST(SchedulerTest, MisdeliveredRangeIsRejectedAndRetried) {
  orchestrate::DispatchConfig config = fake_config();
  config.jobs = 4;
  FakeTransport transport(4);
  transport.misdeliver_job = 1;
  const orchestrate::OrchestrateResult result = orchestrate::run_jobs(config, transport);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.fault_counts[WorkerFault::kWrongTraceRange], 1u);
  EXPECT_EQ(result.jobs[1].faults, std::vector<WorkerFault>{WorkerFault::kWrongTraceRange});
  EXPECT_EQ(result.jobs[1].attempts, 2);
  EXPECT_EQ(result.shards_folded, 22u);
}

TEST(SchedulerTest, ExhaustedBudgetYieldsAPartialManifest) {
  orchestrate::DispatchConfig config = fake_config();
  config.jobs = 4;
  config.retry.max_attempts = 2;
  config.inject.hang = 0.7;
  // A seed whose schedule exhausts some jobs' budgets and spares others
  // (draw() is pure, so this scan is deterministic and instant).
  const auto exhausted = [&](std::uint64_t job) {
    return config.inject.draw(job, 1) != InjectedFault::kNoInject &&
           config.inject.draw(job, 2) != InjectedFault::kNoInject;
  };
  std::vector<std::uint32_t> expected_missing;
  for (std::uint64_t seed = 1; seed < 256 && expected_missing.empty(); ++seed) {
    config.inject.seed = seed;
    std::size_t failed = 0;
    for (std::uint64_t job = 0; job < 4; ++job) failed += exhausted(job);
    if (failed == 0 || failed == 4) continue;
    for (std::uint64_t job = 0; job < 4; ++job) {
      if (!exhausted(job)) continue;
      for (std::size_t t = 22 * job / 4; t < 22 * (job + 1) / 4; ++t) {
        expected_missing.push_back(static_cast<std::uint32_t>(t));
      }
    }
  }
  ASSERT_FALSE(expected_missing.empty());

  FakeTransport transport(2);
  const orchestrate::OrchestrateResult result = orchestrate::run_jobs(config, transport);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.manifest.missing, expected_missing);
  EXPECT_EQ(result.shards_folded, 22u - expected_missing.size());
  for (const orchestrate::JobOutcome& job : result.jobs) {
    const bool failed = exhausted(job.index);
    EXPECT_EQ(job.state, failed ? orchestrate::JobState::kFailed : orchestrate::JobState::kDone);
    if (failed) {
      EXPECT_EQ(job.attempts, 2);
      EXPECT_EQ(job.faults, std::vector<WorkerFault>(2, WorkerFault::kTimeoutKill));
    }
  }
  EXPECT_EQ(orchestrate::render_report(result).find("!!"), 0u)
      << "partial report must lead with the banner";
}

TEST(SchedulerTest, SlotsAreClampedToTheJobCount) {
  {
    orchestrate::DispatchConfig config = fake_config();
    config.jobs = 3;
    FakeTransport transport(16);
    const orchestrate::OrchestrateResult result = orchestrate::run_jobs(config, transport);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.jobs.size(), 3u);
    EXPECT_LT(transport.max_slot, 3u);
  }
  {
    // jobs = 0 means one job per slot, and jobs never outnumber traces.
    orchestrate::DispatchConfig config = fake_config();
    FakeTransport transport(32);
    const orchestrate::OrchestrateResult result = orchestrate::run_jobs(config, transport);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.jobs.size(), 22u);
    EXPECT_LT(transport.max_slot, 22u);
  }
}

TEST(SchedulerTest, KindsTheTransportCannotPerformAreAConfigError) {
  for (const char* spec : {"refuse=0.1", "disconnect=1"}) {
    SCOPED_TRACE(spec);
    orchestrate::DispatchConfig config = fake_config();
    std::string error;
    ASSERT_TRUE(orchestrate::parse_inject_spec(spec, config.inject, &error)) << error;
    FakeTransport transport(2);
    EXPECT_THROW(orchestrate::run_jobs(config, transport), std::runtime_error);
    EXPECT_EQ(transport.prepared_jobs, 0u) << "rejected before any dispatch";
    EXPECT_TRUE(transport.log.empty());
  }
}

// ------------------------------------------------------------- fixtures --

class OrchestrateTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  // D0 at a small scale: the byte-identity tests analyze it several times
  // (once directly, once per orchestrated attempt).
  static constexpr double kScale = 0.004;
  // Tests that involve hang injection pay the full attempt deadline per
  // hang, and that deadline must comfortably exceed an honest worker's
  // runtime even under ASan on a loaded machine — so they run an even
  // smaller scale, keeping kHangDeadline short AND safe.
  static constexpr double kFaultScale = 0.002;
  static constexpr double kHangDeadline = 10.0;

  static std::size_t trace_count() {
    static const std::size_t n =
        SyntheticTraceSourceSet(dataset_by_name("D0", kScale), model()).size();
    return n;
  }

  static std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }

  // The single-process reference: same dataset, same fold, same renderer.
  static std::string direct_report_at(double scale) {
    const DatasetSpec spec = dataset_by_name("D0", scale);
    const SyntheticTraceSourceSet sources(spec, model());
    const AnalyzerConfig config = default_config_for_model(model().site());
    std::vector<TraceShard> shards = analyze_trace_shards(sources, config, 0, sources.size());
    DatasetAnalysis analysis = fold_shards(spec.name, std::move(shards), config);
    const report::ReportInput input{&spec, &analysis};
    const std::vector<report::ReportInput> inputs{input};
    return report::full_report(inputs);
  }
  static const std::string& direct_report() {
    static const std::string text = direct_report_at(kScale);
    return text;
  }
  static const std::string& direct_fault_report() {
    static const std::string text = direct_report_at(kFaultScale);
    return text;
  }

  static orchestrate::OrchestratorConfig base_config(const std::string& work_name,
                                                     double scale = kScale) {
    orchestrate::OrchestratorConfig config;
    config.dataset = "D0";
    config.scale = scale;
    config.shard_binary = ENTRACE_SHARD_BIN;
    config.work_dir = temp_path(work_name);
    config.workers = 2;
    config.attempt_deadline = 60.0;  // generous: only hang tests shorten it
    return config;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
};

// A valid snapshot image to mutilate (one empty shard is enough structure).
std::vector<std::uint8_t> small_snapshot_image() {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_orch_img.esnap").string();
  snap::SnapshotWriter writer(path, {"D0", 0.004, 22});
  writer.add_shard(0, TraceShard{});
  writer.close();
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  in.close();
  std::filesystem::remove(path);
  return bytes;
}

TEST(FaultInjectionTest, TruncationClassifiesAsTruncatedSnapshot) {
  std::vector<std::uint8_t> bytes = small_snapshot_image();
  const std::size_t original = bytes.size();
  FaultInjection f;
  orchestrate::truncate_snapshot_bytes(bytes, f, /*job=*/0, /*attempt=*/1);
  ASSERT_LT(bytes.size(), original);
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "truncated snapshot must not decode";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(orchestrate::classify_snapshot_error(e), WorkerFault::kTruncatedSnapshot)
        << e.what();
  }
}

TEST(FaultInjectionTest, CorruptionClassifiesAsSnapshotRejected) {
  std::vector<std::uint8_t> bytes = small_snapshot_image();
  orchestrate::corrupt_snapshot_bytes(bytes);
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "corrupted snapshot must not decode";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(orchestrate::classify_snapshot_error(e), WorkerFault::kSnapshotRejected)
        << e.what();
  }
}

// ------------------------------------------------------- atomic emission --

TEST(AtomicEmissionTest, SnapshotAppearsOnlyOnClose) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_orch_atomic.esnap").string();
  std::filesystem::remove(path);
  {
    snap::SnapshotWriter writer(path, {"D0", 0.004, 22});
    writer.add_shard(0, TraceShard{});
    EXPECT_FALSE(std::filesystem::exists(path)) << "snapshot visible before close";
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
    writer.close();
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_NO_THROW(snap::read_snapshot(path));
  std::filesystem::remove(path);
}

TEST(AtomicEmissionTest, AbandonedWriterLeavesNothingBehind) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_orch_abandon.esnap").string();
  std::filesystem::remove(path);
  {
    snap::SnapshotWriter writer(path, {"D0", 0.004, 22});
    writer.add_shard(0, TraceShard{});
    // No close(): the crashed-worker path.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicEmissionTest, MetricsFileLeavesNoTmp) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_orch_metrics.json").string();
  obs::Registry reg;
  reg.counter("x", obs::MetricClass::kTiming)->add(3);
  obs::write_metrics_file(reg, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- supervision --

TEST_F(OrchestrateTest, CleanRunMatchesDirectReport) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    orchestrate::OrchestratorConfig config =
        base_config("entrace_orch_clean_" + std::to_string(workers));
    config.workers = workers;
    const orchestrate::OrchestrateResult result = orchestrate::orchestrate(config);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.retries, 0u);
    EXPECT_EQ(result.attempts, result.jobs.size());
    EXPECT_EQ(orchestrate::render_report(result), direct_report()) << workers << " workers";
  }
}

TEST_F(OrchestrateTest, EveryInjectedFaultKindIsRecoveredByRetry) {
  struct Case {
    const char* name;
    void (*set)(FaultInjection&);
    WorkerFault expect;
  };
  const Case cases[] = {
      {"crash", [](FaultInjection& f) { f.crash = 1.0; }, WorkerFault::kCrash},
      {"hang", [](FaultInjection& f) { f.hang = 1.0; }, WorkerFault::kTimeoutKill},
      {"truncate", [](FaultInjection& f) { f.truncate = 1.0; }, WorkerFault::kTruncatedSnapshot},
      {"corrupt", [](FaultInjection& f) { f.corrupt = 1.0; }, WorkerFault::kSnapshotRejected},
  };
  for (const Case& c : cases) {
    orchestrate::OrchestratorConfig config =
        base_config(std::string("entrace_orch_kind_") + c.name, kFaultScale);
    config.jobs = 2;
    config.retry.max_attempts = 3;
    config.retry.base_delay = 0.01;
    config.inject.attempt_limit = 1;  // first attempt always faults, retry recovers
    c.set(config.inject);
    if (c.expect == WorkerFault::kTimeoutKill) config.attempt_deadline = kHangDeadline;
    const orchestrate::OrchestrateResult result = orchestrate::orchestrate(config);
    EXPECT_TRUE(result.complete) << c.name;
    EXPECT_EQ(result.fault_counts[c.expect], 2u) << c.name;
    EXPECT_EQ(result.fault_counts.total_faults(), 2u) << c.name;
    for (const orchestrate::JobOutcome& job : result.jobs) {
      EXPECT_EQ(job.attempts, 2) << c.name;
    }
    EXPECT_EQ(orchestrate::render_report(result), direct_fault_report()) << c.name;
  }
}

TEST_F(OrchestrateTest, MixedFaultScheduleIsByteIdenticalAtOneAndFourWorkers) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    orchestrate::OrchestratorConfig config =
        base_config("entrace_orch_mixed_" + std::to_string(workers), kFaultScale);
    config.workers = workers;
    config.jobs = 4;
    config.retry.max_attempts = 9;
    config.retry.base_delay = 0.01;
    config.attempt_deadline = kHangDeadline;
    config.inject.crash = config.inject.hang = 0.2;
    config.inject.truncate = config.inject.corrupt = 0.2;
    config.inject.seed = 9;
    const orchestrate::OrchestrateResult result = orchestrate::orchestrate(config);
    ASSERT_TRUE(result.complete) << workers << " workers";
    EXPECT_EQ(orchestrate::render_report(result), direct_fault_report())
        << workers << " workers";
  }
}

TEST_F(OrchestrateTest, ExhaustedBudgetDegradesToAccurateManifest) {
  orchestrate::OrchestratorConfig config = base_config("entrace_orch_exhaust");
  config.jobs = 4;
  config.retry.max_attempts = 1;  // zero retries
  config.inject.crash = 1.0;
  const orchestrate::OrchestrateResult result = orchestrate::orchestrate(config);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.manifest.missing.size(), trace_count());
  EXPECT_EQ(result.shards_folded, 0u);
  for (const orchestrate::JobOutcome& job : result.jobs) {
    EXPECT_EQ(job.state, orchestrate::JobState::kFailed);
    EXPECT_EQ(job.attempts, 1);
  }
  const std::string report = orchestrate::render_report(result);
  EXPECT_NE(report.find("PARTIAL RESULTS"), std::string::npos);
  EXPECT_NE(report.find("Coverage manifest"), std::string::npos);
  EXPECT_NE(report.find("report body is omitted"), std::string::npos);
}

TEST_F(OrchestrateTest, PartialManifestNamesExactlyTheFailedJobRanges) {
  // Find a seed whose 50% crash schedule fails some jobs and spares others
  // (draw() is pure, so this scan is deterministic and instant).
  FaultInjection probe;
  probe.crash = 0.5;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 64 && seed == 0; ++s) {
    probe.seed = s;
    int crashed = 0;
    for (std::uint64_t job = 0; job < 4; ++job) {
      if (probe.draw(job, 1) == InjectedFault::kCrashInject) ++crashed;
    }
    if (crashed > 0 && crashed < 4) seed = s;
  }
  ASSERT_NE(seed, 0u);

  orchestrate::OrchestratorConfig config = base_config("entrace_orch_partial");
  config.jobs = 4;
  config.retry.max_attempts = 1;
  config.inject.crash = 0.5;
  config.inject.seed = seed;
  const orchestrate::OrchestrateResult result = orchestrate::orchestrate(config);
  EXPECT_FALSE(result.complete);

  std::vector<std::uint32_t> expected_missing;
  std::size_t covered = 0;
  for (const orchestrate::JobOutcome& job : result.jobs) {
    if (job.state == orchestrate::JobState::kFailed) {
      for (std::size_t t = job.lo; t < job.hi; ++t) {
        expected_missing.push_back(static_cast<std::uint32_t>(t));
      }
    } else {
      EXPECT_EQ(job.state, orchestrate::JobState::kDone);
      covered += job.hi - job.lo;
    }
  }
  EXPECT_FALSE(expected_missing.empty());
  EXPECT_GT(covered, 0u);
  EXPECT_EQ(result.manifest.missing, expected_missing);
  EXPECT_EQ(result.shards_folded, covered);
  const std::string report = orchestrate::render_report(result);
  EXPECT_EQ(report.find("!!"), 0u) << "partial report must lead with the banner";
}

TEST_F(OrchestrateTest, RecordsOrchestrationMetrics) {
  obs::Registry metrics;
  orchestrate::OrchestratorConfig config = base_config("entrace_orch_metrics");
  config.jobs = 2;
  config.retry.max_attempts = 3;
  config.retry.base_delay = 0.01;
  config.inject.crash = 1.0;
  config.inject.attempt_limit = 1;
  config.metrics = &metrics;
  const orchestrate::OrchestrateResult result = orchestrate::orchestrate(config);
  ASSERT_TRUE(result.complete);
  using obs::MetricClass;
  EXPECT_EQ(metrics.counter("orchestrate.attempts", MetricClass::kTiming)->value(),
            result.attempts);
  EXPECT_EQ(metrics.counter("orchestrate.retries", MetricClass::kTiming)->value(),
            result.retries);
  EXPECT_EQ(metrics.counter("orchestrate.jobs.done", MetricClass::kTiming)->value(), 2u);
  EXPECT_EQ(metrics.counter("orchestrate.fault.crash", MetricClass::kTiming)->value(), 2u);
  EXPECT_GT(metrics.gauge("orchestrate.backoff.seconds", MetricClass::kTiming)->value(), 0.0);
}

TEST_F(OrchestrateTest, NetworkFaultKindsAreAConfigError) {
  for (const char* spec : {"refuse=0.2", "disconnect=0.2"}) {
    SCOPED_TRACE(spec);
    orchestrate::OrchestratorConfig config = base_config("entrace_orch_reject");
    std::string error;
    ASSERT_TRUE(orchestrate::parse_inject_spec(spec, config.inject, &error)) << error;
    EXPECT_THROW(orchestrate::orchestrate(config), std::runtime_error);
  }
}

// Strict flag parsing in the dispatch tools: garbage, a sign, trailing
// junk, or an out-of-range value exits 2 before anything is spawned, bound
// or analyzed — as does an --inject kind the chosen mode cannot perform.
TEST_F(OrchestrateTest, DispatchToolsRejectBadFlagValuesWithExit2) {
  const auto exit_code = [](const std::vector<std::string>& argv) {
    std::string command;
    for (const std::string& arg : argv) command += "'" + arg + "' ";
    command += ">/dev/null 2>&1";
    auto p = util::Subprocess::spawn({"/bin/sh", "-c", command});
    return p.wait().exit_code;
  };
  const std::string work = temp_path("entrace_orch_cli");
  const std::vector<std::string> orchestrate = {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002",
                                                "--work-dir", work};
  for (const char* flag :
       {"--jobs", "--workers", "--shard-threads", "--retries", "--deadline", "--backoff", "--seed",
        "--cluster-workers", "--inject-attempts", "--hb-interval", "--hb-timeout"}) {
    for (const char* value : {"x", "-1", "3x"}) {
      std::vector<std::string> argv = orchestrate;
      argv.insert(argv.end(), {flag, value});
      EXPECT_EQ(exit_code(argv), 2) << flag << " " << value;
    }
  }
  for (const char* value : {"x", "-1", "2x"}) {
    EXPECT_EQ(exit_code({ENTRACE_SHARD_BIN, temp_path("entrace_orch_cli.esnap"), "D0", "0.002",
                         "--threads", value}),
              2)
        << "--threads " << value;
  }
  for (const char* value : {"x", "-1", "70000", "80x"}) {
    EXPECT_EQ(exit_code({ENTRACE_WORKER_BIN, "--port", value}), 2) << "--port " << value;
  }

  // Subprocess mode cannot refuse or disconnect; cluster mode cannot crash
  // or truncate.  Both are rejected before any worker is contacted.
  for (const char* spec : {"refuse=0.5", "disconnect=0.5"}) {
    std::vector<std::string> argv = orchestrate;
    argv.insert(argv.end(), {"--inject", spec});
    EXPECT_EQ(exit_code(argv), 2) << spec;
  }
  for (const char* spec : {"crash=0.5", "truncate=0.5"}) {
    std::vector<std::string> argv = orchestrate;
    argv.insert(argv.end(), {"--cluster", "127.0.0.1:1", "--inject", spec});
    EXPECT_EQ(exit_code(argv), 2) << spec;
  }
  std::filesystem::remove_all(work);
}

// The merge tool's partial mode, driven through the real binaries.
TEST_F(OrchestrateTest, MergeAllowPartialAcceptsIncompleteShardSet) {
  const std::string shard_path = temp_path("entrace_orch_merge_part.esnap");
  const std::string out_path = temp_path("entrace_orch_merge_part.txt");
  {
    auto p = util::Subprocess::spawn(
        {ENTRACE_SHARD_BIN, shard_path, "D0", "0.004", "--traces", "0:2"});
    ASSERT_TRUE(p.wait().success());
  }
  {
    auto p = util::Subprocess::spawn(
        {"/bin/sh", "-c", std::string("'") + ENTRACE_MERGE_BIN + "' '" + shard_path +
                              "' > /dev/null 2>&1"});
    EXPECT_EQ(p.wait().exit_code, 1) << "incomplete set without --allow-partial must fail";
  }
  {
    auto p = util::Subprocess::spawn(
        {"/bin/sh", "-c", std::string("'") + ENTRACE_MERGE_BIN + "' --allow-partial '" +
                              shard_path + "' > '" + out_path + "' 2>/dev/null"});
    EXPECT_EQ(p.wait().exit_code, 0);
  }
  const std::string out = read_file(out_path);
  EXPECT_EQ(out.find("!!"), 0u);
  EXPECT_NE(out.find("PARTIAL RESULTS"), std::string::npos);
  EXPECT_NE(out.find("Coverage manifest"), std::string::npos);
  std::filesystem::remove(shard_path);
  std::filesystem::remove(out_path);
}

}  // namespace
}  // namespace entrace
