// entrace_daemon: continuous windowed analysis over a paced replay.
//
// The batch tools (entrace_shard/merge) answer "what was in this capture";
// the daemon answers "what is on the wire right now".  It replays a
// synthetic dataset as if it were a set of live taps — every trace merged
// into one time-ordered stream (MergedPacketStream), released on the
// capture's own timeline scaled by --speedup (PacedReplaySource) — and runs
// the windowed incremental engine over it:
//
//   ingest batches -> IncrementalAnalyzer::feed (per-trace demux, threads)
//     -> rotate() at each --window boundary
//     -> checkpoint the window as an ordinary .esnap (snapshot/window.h)
//     -> age old checkpoints through the retention tiers (summary.jsonl)
//
// while serving observability over HTTP (--http-port):
//   /metrics        Prometheus text (daemon.* operational metrics)
//   /metrics.json   the same, as JSON
//   /window/latest  summary of the most recently checkpointed window
//   /report         full paper report folded across every retained tier
//                   (tier-2 + tier-1 sketches, aged windows, tier-0)
//   /status.json    the /metrics.json body, under the older status path
//   /healthz        liveness
//
// SIGTERM/SIGINT drain gracefully: the loop stops pulling, still-open flows
// are classified (flow.drained), the final partial window is checkpointed,
// and the process exits 0 — no analyzed packet is ever lost to a shutdown.
// Flow eviction (--window-scoped evict_idle) and slot reclamation keep
// memory flat over unbounded runs; --exact disables both for replays that
// must reconstruct byte-identically to a batch run.
//
//   $ entrace_daemon [D0|..|D4] [scale] --out DIR [--window SEC] [--speedup X]
//                    [--http-port P] [--retain K] [--sketch-every K] [--max-windows N]
//                    [--threads N] [--repeat R] [--fake-clock] [--exact]
//                    [--metrics-out file]
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "core/incremental.h"
#include "obs/exposition.h"
#include "obs/http_server.h"
#include "pcap/replay.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "synth/synth_source.h"
#include "util/cli.h"
#include "util/clock.h"

using namespace entrace;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [D0|D1|D2|D3|D4] [scale] --out DIR [--window SEC] [--speedup X]\n"
      "          [--http-port P] [--retain K] [--sketch-every K] [--max-windows N]\n"
      "          [--threads N] [--repeat R] [--fake-clock] [--exact] [--metrics-out file]\n"
      "  replays the dataset as a paced live stream, rotating and checkpointing\n"
      "  one .esnap window every SEC seconds of capture time; SIGTERM drains.\n"
      "  --retain K       tier-0: newest K full window checkpoints (0 = none;\n"
      "                   requires --sketch-every >= 2 so history lives in sketches)\n"
      "  --sketch-every K tier-1/2: fold aged windows K at a time into sketch\n"
      "                   .esnaps, K sketches into a coarser tier-2 sketch\n"
      "                   (default 8; 0 disables sketching — aged windows keep\n"
      "                   only their summary.jsonl line)\n",
      argv0);
  return 2;
}

// Re-timestamps a source by a constant offset — the repeat wrapper shifts
// each replay cycle past the previous one so stream time keeps advancing.
class TimeShiftedSource final : public PacketSource {
 public:
  TimeShiftedSource(std::unique_ptr<PacketSource> inner, double offset)
      : inner_(std::move(inner)), offset_(offset), meta_(inner_->meta()) {
    meta_.start_ts += offset_;
  }

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override { return inner_->anomalies(); }

 protected:
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    const std::size_t got = inner_->next_batch(out, n);
    for (std::size_t i = 0; i < got; ++i) out[i].ts += offset_;
    return got;
  }

 private:
  std::unique_ptr<PacketSource> inner_;
  double offset_;
  TraceMeta meta_;
};

// Replays the merged dataset --repeat times, each cycle time-shifted by the
// capture span, turning a finite dataset into an arbitrarily long stream
// (the soak workload).  Each cycle reopens the sources, so memory does not
// grow with the repeat count.
class RepeatingMergedSource final : public PacketSource {
 public:
  using OpenFn = std::function<std::vector<std::unique_ptr<PacketSource>>()>;

  RepeatingMergedSource(OpenFn open, int repeats) : open_(std::move(open)), repeats_(repeats) {
    current_ = std::make_unique<MergedPacketStream>(open_());
    meta_ = current_->meta();
    span_ = meta_.duration;
    meta_.duration *= repeats_ > 0 ? repeats_ : 1;
  }

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override { return current_->anomalies(); }

 protected:
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    for (;;) {
      const std::size_t got = current_->next_batch(out, n);
      if (got != 0) return got;
      if (!next_cycle()) return 0;
    }
  }

 private:
  bool next_cycle() {
    if (++cycle_ >= repeats_) return false;
    std::vector<std::unique_ptr<PacketSource>> shifted;
    for (auto& src : open_()) {
      shifted.push_back(
          std::make_unique<TimeShiftedSource>(std::move(src), span_ * cycle_));
    }
    current_ = std::make_unique<MergedPacketStream>(std::move(shifted));
    return true;
  }

  OpenFn open_;
  int repeats_;
  int cycle_ = 0;
  double span_ = 0.0;
  std::unique_ptr<MergedPacketStream> current_;
  TraceMeta meta_;
};

// Shared between the event loop (writer) and the HTTP threads (readers).
struct DaemonStatus {
  std::mutex mu;
  std::uint64_t packets = 0;
  std::uint64_t windows = 0;
  double stream_ts = 0.0;
  std::size_t live_flows = 0;
  std::uint64_t drained = 0;
  std::uint64_t evicted = 0;
  std::size_t tier0 = 0;
  std::uint64_t summarized = 0;       // windows aged to the headline tier
  std::size_t pending_sketch = 0;     // aged windows awaiting a tier-1 fold
  std::size_t tier1_sketches = 0;
  std::size_t tier2_sketches = 0;
  std::uint64_t retention_bytes = 0;  // tracked disk across every tier
  std::uint64_t retention_io_errors = 0;
  bool draining = false;
  std::string latest_window_json;  // empty until the first checkpoint
  std::vector<std::string> report_paths;  // all retained tiers, oldest first
};

// /report renders can take seconds; cache the last render keyed by the
// tier path list so repeated scrapes between checkpoints fold once, and
// concurrent /report requests single-flight behind render_mu.
struct ReportCache {
  std::mutex mu;
  std::vector<std::string> paths;
  std::string body;
  bool valid = false;
};

// The daemon.* and retention.* metrics over a status snapshot: the one
// registry behind /metrics, /metrics.json, /status.json and --metrics-out.
// Caller holds st.mu.
void register_daemon_metrics(const DaemonStatus& st, obs::Registry& reg) {
  using obs::MetricClass;
  reg.counter("daemon.packets", MetricClass::kSemantic, "packets ingested")->add(st.packets);
  reg.counter("daemon.windows_rotated", MetricClass::kSemantic, "windows rotated")
      ->add(st.windows);
  reg.counter("daemon.flows_drained", MetricClass::kSemantic,
              "flows classified by end-of-stream drains")
      ->add(st.drained);
  reg.counter("daemon.flows_evicted", MetricClass::kSemantic, "flows closed by idle eviction")
      ->add(st.evicted);
  reg.gauge("daemon.live_flows", MetricClass::kTiming, "live flow-table entries")
      ->set(static_cast<double>(st.live_flows));
  reg.gauge("daemon.stream_ts", MetricClass::kTiming, "latest capture timestamp ingested")
      ->set(st.stream_ts);
  reg.gauge("daemon.tier0_windows", MetricClass::kTiming, "full-resolution checkpoints kept")
      ->set(static_cast<double>(st.tier0));
  reg.counter("daemon.summarized_windows", MetricClass::kTiming,
              "windows aged to the headline summary tier")
      ->add(st.summarized);
  reg.gauge("daemon.pending_sketch_windows", MetricClass::kTiming,
            "aged windows awaiting a tier-1 sketch fold")
      ->set(static_cast<double>(st.pending_sketch));
  reg.gauge("daemon.tier1_sketches", MetricClass::kTiming,
            "tier-1 sketch files (K aged windows folded each)")
      ->set(static_cast<double>(st.tier1_sketches));
  reg.gauge("daemon.tier2_sketches", MetricClass::kTiming,
            "tier-2 sketch files (K tier-1 sketches folded each)")
      ->set(static_cast<double>(st.tier2_sketches));
  reg.gauge("retention.bytes", MetricClass::kTiming,
            "bytes retained across all tiers (checkpoints, sketches, summaries)")
      ->set(static_cast<double>(st.retention_bytes));
  reg.counter("retention.io_errors", MetricClass::kTiming,
              "retention I/O failures (summary appends, removes, sketch folds)")
      ->add(st.retention_io_errors);
  reg.gauge("daemon.draining", MetricClass::kTiming, "1 once SIGTERM/SIGINT started the drain")
      ->set(st.draining ? 1.0 : 0.0);
}

obs::HttpResponse handle_http(DaemonStatus& st, ReportCache& cache, const DatasetSpec& spec,
                              const AnalyzerConfig& config, const std::string& path) {
  if (path == "/healthz") return {200, "text/plain; charset=utf-8", "ok\n"};

  if (path == "/report") {
    // Fold every retained tier — tier-2 sketches, tier-1 sketches, aged
    // windows, tier-0 checkpoints — back into the full paper report, so the
    // answer covers the entire run, not just the newest keep_full windows.
    // The fold reads files and can take a while, so it runs outside the
    // status lock (and on an HTTP worker thread, so /healthz stays live).
    // Lock order is cache.mu -> st.mu everywhere: the checkpoint path holds
    // cache.mu while aging (folds delete their input files), and the path
    // list is re-read under the same lock here, so a render can never race
    // a fold that unlinks the files it is reading.
    std::lock_guard<std::mutex> render_lock(cache.mu);
    std::vector<std::string> paths;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      paths = st.report_paths;
    }
    if (paths.empty()) {
      return {404, "text/plain; charset=utf-8", "no window checkpointed yet\n"};
    }
    try {
      if (!cache.valid || cache.paths != paths) {
        cache.body = snapshot::render_windowed_report(paths, spec, config);
        cache.paths = paths;
        cache.valid = true;
      }
      return {200, "text/plain; charset=utf-8", cache.body};
    } catch (const std::exception& e) {
      return {500, "text/plain; charset=utf-8",
              std::string("report unavailable: ") + e.what() + "\n"};
    }
  }

  std::lock_guard<std::mutex> lock(st.mu);
  if (path == "/metrics" || path == "/metrics.json" || path == "/status.json") {
    obs::Registry reg;
    register_daemon_metrics(st, reg);
    if (path == "/metrics") {
      return {200, "text/plain; version=0.0.4", obs::render_prometheus(reg)};
    }
    return {200, "application/json", obs::render_json(reg)};
  }
  if (path == "/window/latest") {
    if (st.latest_window_json.empty()) {
      return {404, "text/plain; charset=utf-8", "no window checkpointed yet\n"};
    }
    return {200, "application/json", st.latest_window_json + "\n"};
  }
  return {404, "text/plain; charset=utf-8", "unknown path\n"};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> positionals;
  std::string out_dir, metrics_out;
  double window_seconds = 60.0;
  double speedup = 0.0;  // 0 = unpaced (as fast as the generators produce)
  std::uint64_t http_port = 0;
  bool serve_http = false;
  std::uint64_t retain = 4;
  std::uint64_t sketch_every = 8;  // 0 disables the sketch tiers
  std::uint64_t max_windows = 0;   // 0 = until the stream ends
  std::uint64_t threads = 0;
  std::uint64_t repeat = 1;
  bool fake_clock = false, exact = false;
  bool parse_error = false;

  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    // Strict flag-value parsing: std::atoi here would wrap "--retain -1"
    // to SIZE_MAX and read "--retain x" as 0 — both silently.
    const auto uint_value = [&](std::uint64_t& out) {
      if (!cli::parse_uint(argv[++i], out)) {
        std::fprintf(stderr, "%s: '%s' is not a non-negative integer\n", argv[i - 1], argv[i]);
        parse_error = true;
      }
    };
    const auto double_value = [&](double& out) {
      if (!cli::parse_nonneg_double(argv[++i], out)) {
        std::fprintf(stderr, "%s: '%s' is not a non-negative number\n", argv[i - 1], argv[i]);
        parse_error = true;
      }
    };
    if (has_value("--out")) {
      out_dir = argv[++i];
    } else if (has_value("--window")) {
      double_value(window_seconds);
    } else if (has_value("--speedup")) {
      double_value(speedup);
    } else if (has_value("--http-port")) {
      serve_http = true;
      uint_value(http_port);
    } else if (has_value("--retain")) {
      uint_value(retain);
    } else if (has_value("--sketch-every")) {
      uint_value(sketch_every);
    } else if (has_value("--max-windows")) {
      uint_value(max_windows);
    } else if (has_value("--threads")) {
      uint_value(threads);
    } else if (has_value("--repeat")) {
      uint_value(repeat);
    } else if (has_value("--metrics-out")) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--fake-clock") == 0) {
      fake_clock = true;
    } else if (std::strcmp(argv[i], "--exact") == 0) {
      exact = true;
    } else {
      positionals.push_back(argv[i]);
    }
  }
  if (parse_error) return usage(argv[0]);
  cli::DatasetArgs dataset{"D3", 0.008};
  std::string error;
  const int consumed = cli::parse_dataset_args(positionals, dataset, &error);
  if (consumed < 0 || static_cast<std::size_t>(consumed) != positionals.size()) {
    std::fprintf(stderr, "%s\n", error.empty() ? "unrecognized arguments" : error.c_str());
    return usage(argv[0]);
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "--out DIR is required (window checkpoints land there)\n");
    return usage(argv[0]);
  }
  if (window_seconds <= 0.0 || repeat < 1) {
    std::fprintf(stderr, "--window must be > 0, --repeat >= 1\n");
    return usage(argv[0]);
  }
  if (serve_http && http_port > 65535) {
    std::fprintf(stderr, "--http-port must be <= 65535\n");
    return usage(argv[0]);
  }
  if (sketch_every == 1) {
    std::fprintf(stderr, "--sketch-every must be 0 (off) or >= 2 (fold width)\n");
    return usage(argv[0]);
  }
  if (retain == 0 && sketch_every < 2) {
    std::fprintf(stderr,
                 "--retain 0 keeps no full checkpoints; it requires --sketch-every >= 2\n"
                 "so the run's history still lives in sketch tiers\n");
    return usage(argv[0]);
  }
  ::mkdir(out_dir.c_str(), 0777);  // EEXIST is fine; writes below report real errors

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name(dataset.name, dataset.scale);
  const SyntheticTraceSourceSet sources(spec, model);

  // Open every tap once for the analyzer's metadata, then hand the open
  // recipe to the repeat wrapper so later cycles reopen fresh sources.
  const auto open_all = [&sources]() {
    std::vector<std::unique_ptr<PacketSource>> opened;
    opened.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) opened.push_back(sources.open(i));
    return opened;
  };
  std::vector<TraceMeta> metas;
  {
    auto probe = open_all();
    metas.reserve(probe.size());
    for (const auto& src : probe) metas.push_back(src->meta());
  }

  std::unique_ptr<PacketSource> stream;
  const MergedPacketStream* merged_for_finish = nullptr;
  if (repeat == 1) {
    auto merged = std::make_unique<MergedPacketStream>(open_all());
    merged_for_finish = merged.get();
    stream = std::move(merged);
  } else {
    stream = std::make_unique<RepeatingMergedSource>(open_all, static_cast<int>(repeat));
  }

  util::SystemClock system_clock;
  util::FakeClock test_clock;
  util::Clock& clock = fake_clock ? static_cast<util::Clock&>(test_clock) : system_clock;
  PacedReplaySource paced(*stream, clock, speedup);

  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = static_cast<std::size_t>(threads);
  IncrementalOptions options;
  options.window_seconds = window_seconds;
  options.evict = !exact;
  options.reclaim = !exact;
  IncrementalAnalyzer analyzer(metas, config, options);

  const snapshot::SnapshotMeta snap_meta{spec.name, dataset.scale,
                                         static_cast<std::uint32_t>(sources.size())};
  // sketch_every >= 2 selects the tiered manager (tier-1/2 sketch folds plus
  // a recovery scan of whatever an earlier run left in --out); 0 keeps the
  // legacy summary-only aging.  The recovery scan also tells us where window
  // numbering must resume so a restart cannot overwrite retained history.
  snapshot::RetentionOptions retention_opts;
  retention_opts.keep_full = static_cast<std::size_t>(retain);
  retention_opts.sketch_every = static_cast<std::size_t>(sketch_every);
  std::unique_ptr<snapshot::RetentionManager> retention_owned;
  if (sketch_every >= 2) {
    retention_owned = std::make_unique<snapshot::RetentionManager>(out_dir, retention_opts,
                                                                   config, snap_meta);
  } else {
    retention_owned =
        std::make_unique<snapshot::RetentionManager>(out_dir, static_cast<std::size_t>(retain));
  }
  snapshot::RetentionManager& retention = *retention_owned;
  const std::uint64_t window_base = retention.next_window_index();
  if (window_base != 0) {
    std::fprintf(stderr, "entrace_daemon: recovered %zu retained files, resuming at window %llu\n",
                 retention.tier0_count() + retention.pending_count() +
                     retention.tier1_sketch_count() + retention.tier2_sketch_count(),
                 static_cast<unsigned long long>(window_base));
  }

  DaemonStatus status;
  ReportCache report_cache;
  const auto publish_retention = [&]() {
    // Caller holds status.mu.
    status.tier0 = retention.tier0_count();
    status.summarized = retention.summarized_count();
    status.pending_sketch = retention.pending_count();
    status.tier1_sketches = retention.tier1_sketch_count();
    status.tier2_sketches = retention.tier2_sketch_count();
    status.retention_bytes = retention.bytes_retained();
    status.retention_io_errors = retention.io_errors();
    status.report_paths = retention.report_paths();
  };
  {
    std::lock_guard<std::mutex> lock(status.mu);
    publish_retention();
  }
  std::unique_ptr<obs::HttpServer> http;
  if (serve_http) {
    // Two workers so /healthz (and /metrics scrapes) stay live while a
    // multi-second /report fold is in flight on the other worker.
    http = std::make_unique<obs::HttpServer>(
        static_cast<std::uint16_t>(http_port),
        [&status, &report_cache, &spec, &config](const std::string& path) {
          return handle_http(status, report_cache, spec, config, path);
        },
        /*workers=*/2);
    http->start();
    std::fprintf(stderr, "entrace_daemon: http on 127.0.0.1:%u\n", http->port());
  }

  const auto checkpoint = [&](WindowShard win) {
    win.index += window_base;  // resume numbering past recovered history
    const std::string path = out_dir + "/" + snapshot::window_file_name(win.index);
    snapshot::WindowSummary summary = snapshot::summarize_window(win);
    summary.snapshot_bytes = snapshot::write_window_snapshot(path, snap_meta, win);
    snapshot::AgeResult aged;
    {
      // Aging folds and deletes sketch inputs; hold the report-render lock so
      // an in-flight /report never has files unlinked out from under it.  The
      // cost is symmetric — a slow render delays this rotation — which is why
      // /healthz and /metrics are served by the other pool worker.
      std::lock_guard<std::mutex> render_lock(report_cache.mu);
      aged = retention.add_window(summary, path);
    }
    if (!aged.ok()) {
      std::fprintf(stderr, "entrace_daemon: retention hit %llu I/O error(s) aging window %llu\n",
                   static_cast<unsigned long long>(aged.io_errors),
                   static_cast<unsigned long long>(win.index));
    }
    std::lock_guard<std::mutex> lock(status.mu);
    status.windows = analyzer.windows_rotated();
    status.latest_window_json = snapshot::to_json_line(summary);
    publish_retention();
  };

  constexpr std::size_t kIngestBatch = 256;  // views per merged next_batch
  std::vector<PacketView> views(kIngestBatch);
  std::uint64_t packets = 0;
  bool source_drained = false;
  while (g_stop == 0) {
    const std::size_t got = paced.next_batch(views.data(), views.size());
    if (got == 0) {
      source_drained = true;
      break;
    }
    packets += got;
    analyzer.feed(views.data(), got);
    while (analyzer.window_complete()) {
      checkpoint(analyzer.rotate());
      std::fprintf(stderr, "entrace_daemon: window %llu done, %zu live flows\n",
                   static_cast<unsigned long long>(analyzer.windows_rotated() - 1),
                   analyzer.live_entries());
    }
    {
      std::lock_guard<std::mutex> lock(status.mu);
      status.packets = packets;
      status.stream_ts = analyzer.max_ts();
      status.live_flows = analyzer.live_entries();
      status.drained = analyzer.drained_total();
      status.evicted = analyzer.evicted_total();
    }
    if (max_windows != 0 && analyzer.windows_rotated() >= max_windows) break;
  }

  // Graceful drain: classify still-open flows and flush the final partial
  // window, whether the stream ended or a signal asked us to stop.
  {
    std::lock_guard<std::mutex> lock(status.mu);
    status.draining = true;
  }
  if (analyzer.saw_packets()) checkpoint(analyzer.finish(merged_for_finish));
  {
    std::lock_guard<std::mutex> lock(status.mu);
    status.packets = packets;
    status.stream_ts = analyzer.max_ts();
    status.live_flows = analyzer.live_entries();
    status.drained = analyzer.drained_total();
    status.evicted = analyzer.evicted_total();
  }
  std::fprintf(stderr,
               "entrace_daemon: %s after %llu packets, %llu windows "
               "(%zu full, %llu aged, %zu+%zu sketches, %llu bytes retained, %llu io errors), "
               "%llu flows drained\n",
               g_stop != 0 ? "drained on signal" : (source_drained ? "stream complete" : "window limit"),
               static_cast<unsigned long long>(packets),
               static_cast<unsigned long long>(analyzer.windows_rotated()),
               retention.tier0_count(),
               static_cast<unsigned long long>(retention.summarized_count()),
               retention.tier1_sketch_count(), retention.tier2_sketch_count(),
               static_cast<unsigned long long>(retention.bytes_retained()),
               static_cast<unsigned long long>(retention.io_errors()),
               static_cast<unsigned long long>(analyzer.drained_total()));

  if (!metrics_out.empty()) {
    obs::Registry reg;
    {
      std::lock_guard<std::mutex> lock(status.mu);
      register_daemon_metrics(status, reg);
    }
    try {
      obs::write_metrics_file(reg, metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-out: %s\n", e.what());
      return 1;
    }
  }
  if (http != nullptr) http->stop();
  return 0;
}
