// Windowed/continuous-operation suite (CTest label "daemon", also run under
// sanitizers via `ctest --preset daemon-asan` / `ctest --preset daemon-tsan`).
//
// Pins the contract the daemon is trusted on (core/incremental.h): a
// windowed replay — IncrementalAnalyzer fed from a merged time-ordered
// stream, rotating WindowShards at boundaries — merges back per trace
// (snapshot/window.h) and folds to a DatasetAnalysis byte-identical to the
// one-shot batch run, at 1 and 4 threads, directly and through the .esnap
// checkpoint round-trip.  Also covered: FakeClock-paced replay (schedule
// arithmetic and analysis transparency), end-of-stream drain accounting
// (flow.drained), retention tiering, the embedded HTTP server, a SIGTERM
// drain of the real entrace_daemon binary, and a bounded-memory soak over
// >= 50 rotated windows with eviction + reclaim + retention.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "obs/http_server.h"
#include "pcap/packet_source.h"
#include "pcap/replay.h"
#include "snapshot/format.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "synth/generator.h"
#include "util/clock.h"
#include "util/subprocess.h"

namespace entrace {
namespace {

namespace fs = std::filesystem;
namespace snap = entrace::snapshot;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kUnderSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kUnderSanitizer = true;
#else
constexpr bool kUnderSanitizer = false;
#endif
#else
constexpr bool kUnderSanitizer = false;
#endif

std::size_t resident_bytes() {
  std::ifstream f("/proc/self/statm");
  std::size_t pages_total = 0, pages_resident = 0;
  f >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

// One HTTP/1.0 GET against 127.0.0.1:port; the raw response, or "" when
// the connection fails.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) != static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return {};
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// The "value" of metric `name` in an obs::render_json body; NaN when the
// body does not carry it.
double json_metric_value(const std::string& body, const std::string& name) {
  const std::string value_key = "\"value\": ";
  const std::size_t at = body.find("\"" + name + "\": {");
  const std::size_t value = body.find(value_key, at);
  if (at == std::string::npos || value == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + value + value_key.size(), nullptr);
}

class DaemonTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  static DatasetSpec small_spec() {
    DatasetSpec spec = dataset_d3(0.004);
    spec.monitored_subnets = {4, 15, 20};
    return spec;
  }
  static const TraceSet& materialized() {
    static const TraceSet traces = generate_dataset(small_spec(), model());
    return traces;
  }
  static AnalyzerConfig config(std::size_t threads, std::size_t batch_size) {
    AnalyzerConfig c = default_config_for_model(model().site());
    c.threads = threads;
    c.batch_size = batch_size;
    return c;
  }
  static std::string report_of(const DatasetAnalysis& analysis) {
    const DatasetSpec s = small_spec();
    const report::ReportInput input{&s, &analysis};
    const std::vector<report::ReportInput> inputs{input};
    return report::full_report(inputs);
  }
  // The equivalence reference: one-shot batch run over the same packets.
  static const std::string& batch_report() {
    static const std::string r =
        report_of(analyze_dataset(materialized(), config(1, 256)));
    return r;
  }
  // Wall span of the merged timeline (window widths derive from it so the
  // window counts below stay stable if the dataset layout shifts).
  static double merged_span() {
    const MergedPacketStream stream = merged_stream(materialized());
    double lo = 1e300, hi = -1e300;
    for (std::size_t i = 0; i < stream.source_count(); ++i) {
      const TraceMeta& m = stream.source(i).meta();
      lo = std::min(lo, m.start_ts);
      hi = std::max(hi, m.start_ts + m.duration);
    }
    return hi - lo;
  }

  struct WindowedRun {
    std::string report;
    std::uint64_t windows = 0;    // rotated (including the final partial one)
    std::uint64_t drained = 0;
    std::uint64_t evicted = 0;
  };

  // Drive a full windowed replay in exact-equality mode (evict/reclaim off),
  // optionally paced through a FakeClock and/or round-tripped through .esnap
  // window checkpoints, then merge + fold back to one DatasetAnalysis.
  static WindowedRun windowed_run(std::size_t threads, double window_seconds,
                                  bool via_disk, bool paced) {
    MergedPacketStream stream = merged_stream(materialized());
    std::vector<TraceMeta> metas;
    metas.reserve(stream.source_count());
    for (std::size_t i = 0; i < stream.source_count(); ++i) {
      metas.push_back(stream.source(i).meta());
    }
    const AnalyzerConfig cfg = config(threads, 256);
    IncrementalOptions opts;
    opts.window_seconds = window_seconds;
    IncrementalAnalyzer analyzer(std::move(metas), cfg, opts);

    util::FakeClock clock;
    PacedReplaySource replay(stream, clock, paced ? 100.0 : 0.0);

    std::vector<PacketView> views(256);
    std::vector<WindowShard> windows;
    for (;;) {
      const std::size_t got = replay.next_batch(views.data(), views.size());
      if (got == 0) break;
      analyzer.feed(views.data(), got);
      while (analyzer.window_complete()) windows.push_back(analyzer.rotate());
    }
    windows.push_back(analyzer.finish(&stream));

    WindowedRun run;
    run.windows = analyzer.windows_rotated();
    run.drained = analyzer.drained_total();
    run.evicted = analyzer.evicted_total();

    if (via_disk) {
      const fs::path dir = fs::temp_directory_path() /
                           ("entrace_daemon_rt_" + std::to_string(threads));
      fs::create_directories(dir);
      const snap::SnapshotMeta meta{small_spec().name, 0.004,
                                    static_cast<std::uint32_t>(stream.source_count())};
      std::vector<WindowShard> reread;
      reread.reserve(windows.size());
      for (std::size_t i = 0; i < windows.size(); ++i) {
        const std::string path = (dir / snap::window_file_name(i)).string();
        const std::uint64_t bytes = snap::write_window_snapshot(path, meta, windows[i]);
        EXPECT_GT(bytes, 0u);
        reread.push_back(snap::read_window_snapshot(path));
      }
      windows = std::move(reread);
      fs::remove_all(dir);
    }

    std::vector<TraceShard> shards = snap::merge_window_shards(std::move(windows), cfg);
    run.report = report_of(fold_shards(small_spec().name, std::move(shards), cfg));
    return run;
  }
};

// ---- windowed replay == one-shot batch --------------------------------------

TEST_F(DaemonTest, WindowedReplayFoldsToBatchReport) {
  const double span = merged_span();
  ASSERT_GT(span, 0.0);
  // Two window widths that divide nothing evenly: rotations land mid-flow,
  // mid-trace, and inside idle gaps.
  for (const double window : {span / 7.3, span / 23.0}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " threads=" + std::to_string(threads));
      const WindowedRun run = windowed_run(threads, window, false, false);
      EXPECT_GE(run.windows, 2u);
      EXPECT_EQ(run.evicted, 0u);  // exact mode: no time-driven eviction
      EXPECT_EQ(run.report, batch_report());
    }
  }
}

TEST_F(DaemonTest, WindowCheckpointRoundTripFoldsToBatchReport) {
  const double span = merged_span();
  const WindowedRun run = windowed_run(4, span / 11.0, true, false);
  EXPECT_GE(run.windows, 2u);
  EXPECT_EQ(run.report, batch_report());
}

// ---- end-of-stream drain accounting -----------------------------------------

// drain_all() classifies every still-open flow when the stream ends; the
// count surfaces as the flow.drained semantic counter and must agree between
// the batch path and the windowed path (both drain exactly once, at finish).
TEST_F(DaemonTest, DrainClassifiesOpenFlowsAtEndOfStream) {
  const DatasetAnalysis batch = analyze_dataset(materialized(), config(1, 256));
  const obs::Metric* drained = batch.metrics.find("flow.drained");
  ASSERT_NE(drained, nullptr);
  EXPECT_GT(drained->counter.value(), 0u);

  const obs::Metric* evicted = batch.metrics.find("flow.evicted");
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->counter.value(), 0u);  // batch never time-evicts

  const WindowedRun windowed = windowed_run(1, merged_span() / 7.3, false, false);
  EXPECT_EQ(windowed.drained, drained->counter.value());
}

// ---- paced replay -----------------------------------------------------------

// The pacing schedule under a FakeClock: the first batch anchors capture
// time to wall time, and every later batch is released at (ts - base) /
// speedup — so total virtual sleep equals the capture span after the anchor,
// scaled.  FakeClock advances only through sleep(), which makes the
// arithmetic exactly checkable.
TEST_F(DaemonTest, PacedReplayFakeClockSchedule) {
  constexpr double kSpeedup = 100.0;
  MergedPacketStream stream = merged_stream(materialized());
  util::FakeClock clock(1000.0);
  PacedReplaySource paced(stream, clock, kSpeedup);

  std::vector<PacketView> views(256);
  double anchor_ts = 0.0;
  double last_ts = 0.0;
  bool first_batch = true;
  std::uint64_t packets = 0;
  for (;;) {
    const std::size_t got = paced.next_batch(views.data(), views.size());
    if (got == 0) break;
    if (first_batch) {
      // pace_to anchors on the first batch's tail timestamp.
      anchor_ts = views[got - 1].ts;
      first_batch = false;
    }
    last_ts = views[got - 1].ts;
    packets += got;
  }
  ASSERT_GT(packets, 0u);
  const double expected_wall = (last_ts - anchor_ts) / kSpeedup;
  EXPECT_GT(expected_wall, 0.0);
  EXPECT_NEAR(paced.slept_seconds(), expected_wall, 1e-6);
  EXPECT_NEAR(clock.now() - 1000.0, expected_wall, 1e-6);
}

TEST_F(DaemonTest, PacedReplayPassThroughWhenSpeedupDisabled) {
  MergedPacketStream stream = merged_stream(materialized());
  util::FakeClock clock;
  PacedReplaySource paced(stream, clock, 0.0);
  std::vector<PacketView> views(256);
  while (paced.next_batch(views.data(), views.size()) != 0) {
  }
  EXPECT_EQ(paced.slept_seconds(), 0.0);
  EXPECT_EQ(clock.now(), 0.0);
}

// Pacing is transparent to analysis: a windowed replay through a paced
// source folds to the same report as the unpaced batch run.
TEST_F(DaemonTest, PacedWindowedReplayFoldsToBatchReport) {
  const WindowedRun run = windowed_run(2, merged_span() / 7.3, false, true);
  EXPECT_EQ(run.report, batch_report());
}

// ---- retention tiering ------------------------------------------------------

TEST_F(DaemonTest, RetentionAgesWindowsBeyondKeepFull) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_retention";
  fs::remove_all(dir);
  fs::create_directories(dir);
  snap::RetentionManager retention(dir.string(), 2);

  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::string path = (dir / snap::window_file_name(i)).string();
    std::ofstream(path) << "stand-in esnap payload";
    snap::WindowSummary s;
    s.index = i;
    s.start_ts = 60.0 * static_cast<double>(i);
    s.end_ts = s.start_ts + 60.0;
    s.packets = 100 + i;
    s.snapshot_bytes = 23;
    const snap::AgeResult aged = retention.add_window(s, path);
    EXPECT_TRUE(aged.ok());
    EXPECT_EQ(aged.aged, i < 2 ? 0u : 1u);
  }
  EXPECT_EQ(retention.tier0_count(), 2u);
  EXPECT_EQ(retention.summarized_count(), 3u);

  // Tier 0 on disk: exactly the two newest .esnap files survive.
  std::vector<std::string> esnaps;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".esnap") esnaps.push_back(e.path().filename().string());
  }
  std::sort(esnaps.begin(), esnaps.end());
  EXPECT_EQ(esnaps, (std::vector<std::string>{snap::window_file_name(3),
                                              snap::window_file_name(4)}));

  // Tier 1: one self-contained JSON line per aged window, in age order.
  std::ifstream summary(retention.summary_path());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(summary, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"window\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"window\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"packets\":100"), std::string::npos);
  fs::remove_all(dir);
}

// ---- embedded HTTP server ---------------------------------------------------

TEST_F(DaemonTest, HttpServerServesHandlerResponses) {
  obs::HttpServer server(0, [](const std::string& path) {
    obs::HttpResponse resp;
    if (path == "/missing") {
      resp.status = 404;
      resp.body = "not found\n";
    } else {
      resp.content_type = "text/plain; version=0.0.4";
      resp.body = "echo " + path + "\n";
    }
    return resp;
  });
  server.start();
  ASSERT_GT(server.port(), 0);

  const std::uint16_t port = server.port();
  const std::string ok = http_get(port, "/metrics");
  EXPECT_FALSE(ok.empty()) << "GET /metrics could not connect or send";
  EXPECT_NE(ok.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(ok.find("echo /metrics"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length:"), std::string::npos);
  const std::string missing = http_get(port, "/missing");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

  // Query strings and fragments are stripped before dispatch: a scraper's
  // "GET /metrics?format=prometheus" must reach the /metrics handler, not
  // fall through to 404 because no handler matches the decorated target.
  for (const std::string decorated :
       {"/metrics?format=prometheus", "/metrics?a=1&b=2", "/metrics#frag", "/metrics?x=1#frag"}) {
    SCOPED_TRACE(decorated);
    const std::string resp = http_get(port, decorated);
    EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(resp.find("echo /metrics\n"), std::string::npos);  // bare path, no query
  }
  // A decorated unknown path still 404s — stripping does not rewrite.
  const std::string decorated_missing = http_get(port, "/missing?probe=1");
  EXPECT_NE(decorated_missing.find("HTTP/1.0 404"), std::string::npos);
  server.stop();
}

// The /healthz starvation regression: with a worker pool (the daemon passes
// workers = 2), a liveness probe must be answered while a slow handler (the
// daemon's multi-second /report fold) is still in flight, instead of
// queueing behind it on the single accept thread.
TEST_F(DaemonTest, HttpServerAnswersHealthzDuringSlowHandler) {
  std::mutex mu;
  std::condition_variable cv;
  bool slow_started = false;
  bool release_slow = false;

  obs::HttpServer server(
      0,
      [&](const std::string& path) {
        if (path == "/slow") {
          std::unique_lock<std::mutex> lock(mu);
          slow_started = true;
          cv.notify_all();
          // Parks this worker until the probe below has been answered (or a
          // 10 s safety valve so a regression fails instead of hanging).
          cv.wait_for(lock, std::chrono::seconds(10), [&] { return release_slow; });
          return obs::HttpResponse{200, "text/plain; charset=utf-8", "slow done\n"};
        }
        return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
      },
      /*workers=*/2);
  server.start();
  ASSERT_GT(server.port(), 0);

  const std::uint16_t port = server.port();
  std::thread slow_client([&] {
    const std::string resp = http_get(port, "/slow");
    EXPECT_NE(resp.find("slow done"), std::string::npos);
  });
  {
    // Only probe once the slow handler is demonstrably occupying a worker.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return slow_started; }));
  }
  const std::string health = http_get(port, "/healthz");
  EXPECT_FALSE(health.empty()) << "GET /healthz could not connect or send";
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mu);
    release_slow = true;
  }
  cv.notify_all();
  slow_client.join();
  server.stop();
}

// ---- the real daemon binary: SIGTERM drain ----------------------------------

// Start entrace_daemon mid-replay (speedup keeps it streaming for minutes),
// send SIGTERM, and require a clean exit that flushed the open window: at
// least one readable window checkpoint must be on disk afterwards.
TEST_F(DaemonTest, DaemonBinarySigtermDrainWritesCheckpoint) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_sigterm";
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::Subprocess child = util::Subprocess::spawn(
      {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(), "--window", "60",
       "--speedup", "30", "--retain", "4", "--threads", "2"});

  // Wait until the daemon has demonstrably ingested (first checkpoint on
  // disk) so the SIGTERM lands mid-stream, then ask for a graceful drain.
  const auto has_checkpoint = [&] {
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".esnap") return true;
    }
    return false;
  };
  std::optional<util::ExitStatus> status;
  for (int i = 0; i < 600; ++i) {
    status = child.poll();
    if (status.has_value() || has_checkpoint()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!status.has_value()) {
    ::kill(child.pid(), SIGTERM);
    status = child.wait_for(120.0);
  }
  ASSERT_TRUE(status.has_value()) << "daemon did not exit after SIGTERM";
  EXPECT_TRUE(status->success())
      << "exited=" << status->exited << " code=" << status->exit_code
      << " signaled=" << status->signaled << " sig=" << status->term_signal;

  std::size_t checkpoints = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".esnap") continue;
    ++checkpoints;
    const WindowShard w = snap::read_window_snapshot(e.path().string());
    EXPECT_FALSE(w.shards.empty()) << e.path();
  }
  EXPECT_GE(checkpoints, 1u) << "drain did not flush the open window";
  fs::remove_all(dir);
}

// ---- the real daemon binary: /report vs aging race --------------------------

// The fold-unlink race: /report used to snapshot the tier path list, then
// read the files with no lock held — a rotation on the analysis thread could
// fold those windows into a sketch and delete them mid-read, turning almost
// every mid-run /report into a 500.  Aging and rendering now serialize on
// the render lock (and the path list is re-read under it), so a live daemon
// must answer 200 (or 404 before the first checkpoint) for every poll while
// windows rotate and sketches fold underneath.
TEST_F(DaemonTest, DaemonBinaryReportNeverFailsWhileSketchesFold) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_report_race";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::uint16_t port = static_cast<std::uint16_t>(18000 + ::getpid() % 2000);

  // window 30 @ speedup 30 rotates ~1/s; retain 1 + sketch-every 2 makes
  // nearly every rotation age a window and every other rotation fold (and
  // delete) sketch inputs while we hammer /report.
  util::Subprocess child = util::Subprocess::spawn(
      {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(), "--window", "30",
       "--speedup", "30", "--retain", "1", "--sketch-every", "2",
       "--http-port", std::to_string(port)});

  // Wait for the HTTP server to come up.
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    up = !http_get(port, "/healthz").empty();
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(up) << "daemon never served /healthz on port " << port;

  std::size_t ok_reports = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (std::chrono::steady_clock::now() < deadline) {
    if (child.poll().has_value()) break;  // replay ended early; stop polling
    const std::string resp = http_get(port, "/report");
    if (resp.empty()) continue;  // daemon exiting between poll and connect
    ASSERT_EQ(resp.find("HTTP/1.0 5"), std::string::npos)
        << "mid-run /report failed:\n" << resp.substr(0, 200);
    if (resp.find("HTTP/1.0 200") != std::string::npos) ++ok_reports;
  }
  EXPECT_GE(ok_reports, 1u) << "no successful /report during the run";

  // Prove the polls overlapped real aging: a sketch must have been folded.
  // (With sketch-every 2 a pair of tier-1 sketches compacts straight into a
  // tier-2 file, dropping the tier-1 count back to 0 — either tier counts.)
  const std::string status_json = http_get(port, "/status.json");
  if (!status_json.empty()) {
    EXPECT_GT(json_metric_value(status_json, "daemon.tier1_sketches") +
                  json_metric_value(status_json, "daemon.tier2_sketches"),
              0.0)
        << "run too short to fold a sketch — widen the poll window\n" << status_json;
  }

  ::kill(child.pid(), SIGTERM);
  const std::optional<util::ExitStatus> status = child.wait_for(120.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->success());
  fs::remove_all(dir);
}

// ---- the real daemon binary: --metrics-out matches /metrics ----------------

// Every metric name a live /metrics scrape shows must also be in the
// --metrics-out file written at exit.  /metrics.json is the /metrics
// registry in JSON, which keeps the names unmangled.
TEST_F(DaemonTest, DaemonBinaryMetricsOutNamesEveryLiveMetric) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_metrics_out";
  const fs::path metrics_file = fs::temp_directory_path() / "entrace_daemon_metrics_out.json";
  fs::remove_all(dir);
  fs::remove(metrics_file);
  fs::create_directories(dir);
  const std::uint16_t port = static_cast<std::uint16_t>(20000 + ::getpid() % 2000);
  util::Subprocess child = util::Subprocess::spawn(
      {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(), "--window", "60", "--speedup",
       "30", "--http-port", std::to_string(port), "--metrics-out", metrics_file.string()});

  const std::regex name_re("\"([a-z0-9_.]+)\": \\{\"class\"");
  std::vector<std::string> live_names;
  for (int i = 0; i < 100 && live_names.empty(); ++i) {
    const std::string resp = http_get(port, "/metrics.json");
    for (std::sregex_iterator it(resp.begin(), resp.end(), name_re), end; it != end; ++it) {
      live_names.push_back((*it)[1].str());
    }
    if (live_names.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ::kill(child.pid(), SIGTERM);
  const std::optional<util::ExitStatus> status = child.wait_for(120.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->success());
  ASSERT_GE(live_names.size(), 12u) << "no /metrics.json scrape on port " << port;

  std::ifstream in(metrics_file);
  const std::string exit_metrics((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  for (const std::string& name : live_names) {
    EXPECT_NE(exit_metrics.find("\"" + name + "\": {"), std::string::npos)
        << name << " is served by /metrics but missing from --metrics-out";
  }
  fs::remove_all(dir);
  fs::remove(metrics_file);
}

// ---- the real daemon binary: strict flag parsing ----------------------------

// The std::atoi regression: "--retain -1" used to wrap to SIZE_MAX and
// "--retain x" silently became 0.  Every numeric flag now goes through the
// strict util::cli parsers, garbage is a usage error (exit 2) before any
// replay starts, and the degenerate tier combinations are rejected.
TEST_F(DaemonTest, DaemonBinaryRejectsGarbageNumericFlags) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_badflags";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::vector<std::vector<std::string>> bad_invocations = {
      {"--retain", "-1"},          // sign must not wrap to SIZE_MAX
      {"--retain", "x"},           // garbage must not read as 0
      {"--retain", "4x"},          // trailing garbage rejected too
      {"--threads", "-2"},
      {"--window", "abc"},
      {"--sketch-every", "1"},     // 0 (off) or >= 2; a 1-wide fold is a no-op
      {"--retain", "0", "--sketch-every", "0"},  // would retain no history at all
  };
  for (const std::vector<std::string>& extra : bad_invocations) {
    std::vector<std::string> argv = {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(),
                                     "--max-windows", "1"};
    std::string label;
    for (const std::string& a : extra) {
      argv.push_back(a);
      label += a + " ";
    }
    SCOPED_TRACE(label);
    util::Subprocess child = util::Subprocess::spawn(argv);
    const std::optional<util::ExitStatus> status = child.wait_for(30.0);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->exited);
    EXPECT_EQ(status->exit_code, 2);  // usage error, not a silent run
  }
  // No invocation above may have gotten far enough to checkpoint anything.
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

// ---- bounded-memory soak ----------------------------------------------------

// Continuous-operation invariant: with eviction + slot reclaim + retention
// tiering, >= 50 rotated windows leave RSS flat (sampled after warm-up) and
// disk bounded at keep_full checkpoints plus one summary line per aged
// window.  The RSS bound is skipped under sanitizers (quarantine and shadow
// memory grow resident size by design).
TEST_F(DaemonTest, SoakEvictReclaimRetentionStaysBounded) {
  MergedPacketStream stream = merged_stream(materialized());
  std::vector<TraceMeta> metas;
  for (std::size_t i = 0; i < stream.source_count(); ++i) {
    metas.push_back(stream.source(i).meta());
  }
  const AnalyzerConfig cfg = config(2, 256);
  IncrementalOptions opts;
  opts.window_seconds = merged_span() / 64.0;
  opts.evict = true;
  opts.reclaim = true;
  IncrementalAnalyzer analyzer(std::move(metas), cfg, opts);

  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_soak";
  fs::remove_all(dir);
  fs::create_directories(dir);
  snap::RetentionManager retention(dir.string(), 3);
  const snap::SnapshotMeta meta{small_spec().name, 0.004,
                                static_cast<std::uint32_t>(stream.source_count())};

  const auto checkpoint = [&](WindowShard&& w) {
    const std::string path = (dir / snap::window_file_name(w.index)).string();
    snap::WindowSummary s;
    s.index = w.index;
    s.start_ts = w.start_ts;
    s.end_ts = w.end_ts;
    for (const TraceShard& shard : w.shards) s.packets += shard.total_packets;
    s.snapshot_bytes = snap::write_window_snapshot(path, meta, w);
    retention.add_window(s, path);
  };

  std::size_t warmed_rss = 0;
  std::vector<PacketView> views(256);
  for (;;) {
    const std::size_t got = stream.next_batch(views.data(), views.size());
    if (got == 0) break;
    analyzer.feed(views.data(), got);
    while (analyzer.window_complete()) {
      checkpoint(analyzer.rotate());
      if (analyzer.windows_rotated() == 10) warmed_rss = resident_bytes();
    }
  }
  checkpoint(analyzer.finish(&stream));

  EXPECT_GE(analyzer.windows_rotated(), 50u);
  EXPECT_GT(analyzer.evicted_total(), 0u);
  EXPECT_GT(analyzer.drained_total(), 0u);

  // Disk is bounded: keep_full checkpoints on disk, everything older is one
  // summary line.
  EXPECT_LE(retention.tier0_count(), 3u);
  std::size_t esnaps = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".esnap") ++esnaps;
  }
  EXPECT_EQ(esnaps, retention.tier0_count());
  std::ifstream summary(retention.summary_path());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(summary, line)) ++lines;
  EXPECT_EQ(lines, retention.summarized_count());
  // windows_rotated() includes the final partial window finish() harvested.
  EXPECT_EQ(retention.tier0_count() + retention.summarized_count(), analyzer.windows_rotated());

  // RSS flat after warm-up: the whole point of evict + reclaim + tiering.
  if (!kUnderSanitizer && warmed_rss != 0) {
    const std::size_t final_rss = resident_bytes();
    EXPECT_LT(final_rss, warmed_rss + warmed_rss / 2 + (64u << 20))
        << "RSS grew from " << warmed_rss << " to " << final_rss;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace entrace
