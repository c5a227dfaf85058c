#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "orchestrate/supervisor.h"
#include "pcap/packet_source.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "spans.h"
#include "stats.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace entrace;
namespace fs = std::filesystem;

// Busy analysis threads in a timed pass: the benchmark host has 4 vCPUs.
constexpr std::size_t kThreads = 4;
// After the host has idled, the first ~1.3 s of 4-thread work runs as if on
// one core.  The warm-up runs at the timed thread count for longer than that.
constexpr double kWarmupSeconds = 2.0;
// Input sizes.  The canonical D3 capture at 0.04 is 414k packets (194 MiB of
// pcap): a warm 4-thread batch pass takes ~0.2 s, so a timed phase holds
// ~100 passes, and a daemon pass ~4.5 s with ~1,088 window boundaries.  D1
// at 0.02 is 1.7M packets, ~1 s per fleet pass.
constexpr double kD3Scale = 0.04;
constexpr double kD1Scale = 0.02;
constexpr double kSmokeScale = 0.005;
// The daemon's defaults: 60 s windows, keep 4 full checkpoints, fold 8 at a
// time; /report every 128 windows and once at the end.
constexpr double kWindowSeconds = 60.0;
constexpr std::size_t kKeepFull = 4;
constexpr std::size_t kSketchEvery = 8;
constexpr std::uint64_t kReportEveryWindows = 128;
constexpr std::size_t kIngestBatch = 256;
// Fleet: 4 loopback workers, 8 jobs, ~15% refuse/disconnect/corrupt faults.
// Faults hit only the first two attempts of a job and the budget is three,
// so every job ends done; hang faults are left out because the heartbeat
// deadline would dominate the timing.
constexpr std::size_t kFleetWorkers = 4;
constexpr std::size_t kFleetJobs = 8;
constexpr double kFaultEach = 0.05;

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

AnalyzerConfig analyzer_config(const EnterpriseModel& model, std::size_t threads) {
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = threads;
  return config;
}

std::string render(const DatasetSpec& spec, const DatasetAnalysis& analysis) {
  const report::ReportInput input{&spec, &analysis};
  return report::full_report({&input, 1});
}

double metric_value(const obs::Registry& reg, const char* name) {
  const obs::Metric* m = reg.find(name);
  if (m == nullptr) return 0.0;
  return m->kind == obs::MetricKind::kCounter ? static_cast<double>(m->counter.value())
                                              : m->gauge.value();
}

// One pass of a workload.  `samples` pool across passes (a percentile is
// taken over all of them); `values` hold one figure per pass (the median
// across passes is reported).
struct PassRecord {
  int index = 0;
  bool warmup = false;
  bool traced = false;
  double start = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t units = 1;  // what fail_frac counts: the pass, or its jobs
  std::uint64_t failed_units = 0;
  bool ok = false;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
};

// Per-layer counts every workload reads from its folded analysis.
void record_semantic(const obs::Registry& reg, PassRecord& rec) {
  rec.values["net.dropped"] = metric_value(reg, "decode.packets_dropped");
  rec.values["flow.conns_opened"] = metric_value(reg, "flow.conns_opened");
  rec.values["proto.events"] = metric_value(reg, "app.events.total");
}

class Bench {
 public:
  explicit Bench(const Options& opts) : opts_(opts) {}

  const Options& opts() const { return opts_; }
  SpanLog& spans() { return spans_; }
  double input_scale(double full) const { return opts_.smoke ? kSmokeScale : full; }

  // The report check: byte-for-byte equality with the reference.
  bool verify(const std::string& report, const std::string& reference) {
    Scope s(spans_, "bench.verify");
    if (!opts_.corrupt_report || report.empty()) return report == reference;
    std::string corrupted = report;
    corrupted[corrupted.size() / 2] ^= 0x01;
    return corrupted == reference;
  }

  // Warm-up, then timed passes.  `pass` fills packets, ok and the samples;
  // `cleanup` runs after the pass's clock has stopped.
  void run(const std::function<void(PassRecord&)>& pass,
           const std::function<void(const PassRecord&)>& cleanup = {}) {
    if (!reset_peak_rss()) {
      std::fprintf(stderr, "perfbench: cannot reset the peak RSS; it includes set-up\n");
    }
    const double warm_start = now_s();
    do {
      run_one(pass, cleanup, /*warmup=*/true, /*traced=*/false);
    } while (!opts_.smoke && now_s() - warm_start < kWarmupSeconds);

    timed_start_ = now_s();
    const int min_each = opts_.smoke ? 1 : 2;  // passes of each kind
    int untraced = 0, traced = 0;
    for (;;) {
      const bool time_up = opts_.smoke || now_s() - timed_start_ >= opts_.seconds;
      if (time_up && untraced >= min_each && (!opts_.trace || traced >= min_each)) break;
      const bool trace_this = opts_.trace && (untraced + traced) % 2 == 1;
      run_one(pass, cleanup, /*warmup=*/false, trace_this);
      ++(trace_this ? traced : untraced);
    }
    spans_.set_enabled(false);
  }

  const std::vector<PassRecord>& passes() const { return passes_; }

  std::vector<const PassRecord*> timed(bool traced) const {
    std::vector<const PassRecord*> out;
    for (const PassRecord& p : passes_) {
      if (!p.warmup && p.traced == traced) out.push_back(&p);
    }
    return out;
  }

  static std::vector<double> pooled(const std::vector<const PassRecord*>& passes,
                                    const std::string& key) {
    std::vector<double> out;
    for (const PassRecord* p : passes) {
      const auto it = p->samples.find(key);
      if (it != p->samples.end()) out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return out;
  }

  static std::vector<double> per_pass(const std::vector<const PassRecord*>& passes,
                                      const std::string& key) {
    std::vector<double> out;
    for (const PassRecord* p : passes) {
      const auto it = p->values.find(key);
      out.push_back(it != p->values.end() ? it->second : 0.0);
    }
    return out;
  }

  // Appends, for each key, the median over `passes` of its per-pass value.
  static void add_medians(std::vector<Metric>& out, const std::vector<const PassRecord*>& passes,
                          std::initializer_list<const char*> keys) {
    for (const char* key : keys) {
      const std::vector<double> v = per_pass(passes, key);
      out.push_back({key, median(v), v.size()});
    }
  }

  // Metrics every workload reports, plus the per-layer figures the span
  // log and the per-pass values give.
  Result finish(std::vector<Metric> metrics) const;

  void write_records(const std::string& path) const;

 private:
  void run_one(const std::function<void(PassRecord&)>& pass,
               const std::function<void(const PassRecord&)>& cleanup, bool warmup,
               bool traced) {
    PassRecord rec;
    rec.index = static_cast<int>(passes_.size());
    rec.warmup = warmup;
    rec.traced = traced;
    spans_.set_enabled(traced);
    spans_.set_pass(rec.index);
    const double cpu0 = process_cpu_s();
    rec.start = now_s();
    {
      Scope root(spans_, "pass");
      pass(rec);
    }
    rec.wall = now_s() - rec.start;
    rec.cpu = process_cpu_s() - cpu0;
    spans_.set_enabled(false);
    if (cleanup) cleanup(rec);
    std::fprintf(stderr, "perfbench: %s pass %d%s: %.3f s, parallelism %.2f, %llu packets, %s\n",
                 opts_.workload.c_str(), rec.index,
                 warmup ? " (warm-up)" : (traced ? " (traced)" : ""), rec.wall,
                 rec.wall > 0 ? rec.cpu / rec.wall : 0.0,
                 static_cast<unsigned long long>(rec.packets),
                 rec.ok ? "report ok" : "REPORT MISMATCH");
    passes_.push_back(std::move(rec));
  }

  const Options& opts_;
  SpanLog spans_;
  std::vector<PassRecord> passes_;
  double timed_start_ = 0.0;
};

Result Bench::finish(std::vector<Metric> metrics) const {
  Result r;
  for (const PassRecord& p : passes_) {
    r.attempted += p.units;
    r.failed += p.failed_units;
  }
  const auto untraced = timed(false);
  const auto traced = timed(true);
  const auto add = [&metrics](const std::string& name, double value, std::size_t samples) {
    metrics.push_back({name, value, samples});
  };

  // Rates over the whole timed phase, not medians of per-pass rates: a
  // fleet pass takes one of two lengths (a retry on the critical path or
  // not), and a median would flip between them.
  const auto rate = [](const std::vector<const PassRecord*>& passes) {
    double packets = 0.0, wall = 0.0, cpu = 0.0;
    for (const PassRecord* p : passes) {
      packets += static_cast<double>(p->packets);
      wall += p->wall;
      cpu += p->cpu;
    }
    return std::pair{packets / wall, cpu / packets * 1e6};
  };
  const auto [pps_u, cpu_us] = rate(untraced);
  std::vector<double> parallelism;
  for (const PassRecord& p : passes_) {
    if (!p.warmup) parallelism.push_back(p.cpu / p.wall);
  }
  add("setup_s", timed_start_, 1);
  add("pps", pps_u, untraced.size());
  add("cpu_us_per_pkt", cpu_us, untraced.size());
  add("peak_rss_mb", peak_rss_mib(), 1);
  const std::vector<double> stall = pooled(untraced, "stall_ms");
  add("stall_p50_ms", percentile(stall, 50), stall.size());
  // The tail is p99 where at least ten samples lie beyond it (the daemon);
  // with fewer boundaries it is the highest percentile that does.
  const double tail = std::clamp(100.0 * (1.0 - 10.0 / static_cast<double>(stall.size())),
                                 50.0, 99.0);
  add("stall_p99_ms", percentile(stall, tail), stall.size());
  const std::vector<double> report = pooled(untraced, "report_ms");
  add("report_ms", median(report), report.size());
  add("fail_frac",
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
      r.attempted);
  add("util.parallelism", median(parallelism), parallelism.size());
  add("util.parallelism_min",
      parallelism.empty() ? 0.0 : *std::min_element(parallelism.begin(), parallelism.end()),
      parallelism.size());

  if (!traced.empty()) {
    add("bench.trace_overhead_pct", (pps_u / rate(traced).first - 1.0) * 100.0, traced.size());

    // Self time by span name, one figure per traced pass (0 where a pass
    // made no such call).  The root's own self time is what no child span
    // covers.
    const auto self = spans_.self_by_pass();
    std::map<std::string, std::vector<double>> by_name;
    for (const PassRecord* p : traced) {
      for (const auto& [name, seconds] : self.at(p->index)) by_name[name];
    }
    for (auto& [name, values] : by_name) {
      for (const PassRecord* p : traced) {
        const auto& pass = self.at(p->index);
        const auto it = pass.find(name);
        const double v = it != pass.end() ? it->second : 0.0;
        values.push_back(name == "pass" ? 100.0 * (1.0 - v / p->wall) : v);
      }
      if (name == "pass") {
        add("bench.attributed_pct", median(values), values.size());
      } else {
        add(name + "_s", median(values), values.size());
      }
    }
  }
  r.metrics = std::move(metrics);
  return r;
}

void Bench::write_records(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "workload\tseed\tpass\tphase\ttraced\tstart_s\twall_s\tcpu_s\tparallelism\t"
                  "packets\treport_ok\n");
  for (const PassRecord& p : passes_) {
    std::fprintf(f, "%s\t%llu\t%d\t%s\t%d\t%.6f\t%.6f\t%.6f\t%.4f\t%llu\t%d\n",
                 opts_.workload.c_str(), static_cast<unsigned long long>(opts_.seed), p.index,
                 p.warmup ? "warmup" : "timed", p.traced ? 1 : 0, p.start, p.wall, p.cpu,
                 p.wall > 0 ? p.cpu / p.wall : 0.0, static_cast<unsigned long long>(p.packets),
                 p.ok ? 1 : 0);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// ---- D3 capture files (batch, daemon) ----------------------------------------

struct PcapInputs {
  DatasetSpec spec;
  std::vector<PcapTraceSpec> files;
  double bytes = 0.0;
  double generate_s = 0.0;
};

// Writes the canonical D3 capture (the dataset's own generator seed) as one
// pcap per trace, four traces at a time, and hands the files to the program
// in an order drawn from the run's seed.  The traffic itself does not follow
// the run's seed: D3's heavy-tailed NFS and backup transfers make its size
// vary by a third between generator seeds, which would swamp any bound.
PcapInputs write_pcaps(const Bench& bench, const EnterpriseModel& model) {
  PcapInputs in;
  in.spec = dataset_d3(bench.input_scale(kD3Scale));
  const std::string dir = bench.opts().work_dir + "/pcap";
  fs::create_directories(dir);
  const std::vector<TracePlan> plans = plan_dataset(in.spec);
  in.files.resize(plans.size());
  const double t0 = now_s();
  ThreadPool pool(kThreads);
  pool.for_each_index(plans.size(), [&](std::size_t i) {
    in.files[i] = {dir + "/" + plans[i].name + ".pcap", plans[i].name, plans[i].subnet};
    generate_trace(in.spec, model, plans[i]).save(in.files[i].path);
  });
  in.generate_s = now_s() - t0;
  for (const PcapTraceSpec& f : in.files) in.bytes += static_cast<double>(fs::file_size(f.path));
  for (std::size_t i = in.files.size(); i > 1; --i) {
    std::swap(in.files[i - 1], in.files[mix_seed(bench.opts().seed, i) % i]);
  }
  return in;
}

std::string reference_report(const DatasetSpec& spec, const TraceSourceSet& sources,
                             const EnterpriseModel& model) {
  return render(spec, analyze_dataset(sources, analyzer_config(model, 1)));
}

// ---- batch --------------------------------------------------------------------

Result run_batch(Bench& bench) {
  const EnterpriseModel model;
  const PcapInputs in = write_pcaps(bench, model);
  const PcapFileSourceSet sources(in.spec.name, in.files);
  const std::string reference = reference_report(in.spec, sources, model);
  const AnalyzerConfig config = analyzer_config(model, kThreads);
  SpanLog& log = bench.spans();

  bench.run([&](PassRecord& rec) {
    obs::Registry pool_metrics;
    std::vector<TraceShard> shards;
    double shards_s = now_s();
    {
      Scope s(log, "core.shards");
      shards = analyze_trace_shards(sources, config, 0, sources.size(), &pool_metrics);
    }
    const double tail_start = now_s();
    shards_s = tail_start - shards_s;
    DatasetAnalysis analysis;
    {
      Scope s(log, "core.fold");
      analysis = fold_shards(in.spec.name, std::move(shards), config);
    }
    std::string report;
    {
      Scope s(log, "core.report");
      report = render(in.spec, analysis);
    }
    rec.samples["report_ms"].push_back((now_s() - tail_start) * 1e3);
    rec.ok = bench.verify(report, reference);
    // The pass's serial tail: no packet is read while it runs.
    rec.samples["stall_ms"].push_back((now_s() - tail_start) * 1e3);
    rec.failed_units = rec.ok ? 0 : 1;
    rec.packets = analysis.quality.packets_seen;

    const obs::Registry& m = analysis.metrics;
    record_semantic(m, rec);
    rec.values["pcap.read_s"] = metric_value(m, "stage.batch.source.seconds");
    rec.values["net.decode_s"] = metric_value(m, "stage.batch.decode.seconds");
    rec.values["core.tally_s"] = metric_value(m, "stage.batch.tally.seconds");
    rec.values["flow.track_s"] = metric_value(m, "stage.batch.flow.seconds");
    const double busy = metric_value(pool_metrics, "pool.busy_seconds");
    rec.values["util.pool_busy_s"] = busy;
    rec.values["util.pool_max_task_s"] = metric_value(pool_metrics, "pool.max_task_seconds");
    rec.values["util.pool_efficiency"] =
        busy / (metric_value(pool_metrics, "pool.threads") * shards_s);
    // Freeing the folded connection tables is part of the pass; time it by
    // name rather than leave it to the pass root.
    Scope s(log, "core.release");
    const DatasetAnalysis released = std::move(analysis);
  });

  std::vector<Metric> m;
  Bench::add_medians(m, bench.timed(true),
                     {"pcap.read_s", "net.decode_s", "core.tally_s", "flow.track_s",
                      "util.pool_busy_s", "util.pool_max_task_s", "util.pool_efficiency",
                      "net.dropped", "flow.conns_opened", "proto.events"});
  m.push_back({"synth.generate_s", in.generate_s, 1});
  m.push_back({"pcap.input_mb", in.bytes / (1 << 20), 1});
  return bench.finish(std::move(m));
}

// ---- daemon -------------------------------------------------------------------

Result run_daemon(Bench& bench) {
  const EnterpriseModel model;
  const PcapInputs in = write_pcaps(bench, model);
  const PcapFileSourceSet sources(in.spec.name, in.files);
  const std::string reference = reference_report(in.spec, sources, model);
  // One analysis thread, not the daemon's default of one per core: with a
  // pool, every 256-packet feed wakes the workers and waits for them, and on
  // the benchmark host those wake-ups made a pass take 4.2 to 8.8 s at the
  // same CPU cost.  The 4-thread path is timed by `batch`.
  const AnalyzerConfig config = analyzer_config(model, 1);
  const snapshot::SnapshotMeta snap_meta{in.spec.name, in.spec.scale,
                                         static_cast<std::uint32_t>(sources.size())};
  IncrementalOptions window_opts;
  window_opts.window_seconds = kWindowSeconds;  // --exact: no eviction, no reclaim
  snapshot::RetentionOptions retention_opts;
  retention_opts.keep_full = kKeepFull;
  retention_opts.sketch_every = kSketchEvery;
  SpanLog& log = bench.spans();
  const auto pass_dir = [&bench](const PassRecord& rec) {
    return bench.opts().work_dir + "/daemon-" + std::to_string(rec.index);
  };

  bench.run(
      [&](PassRecord& rec) {
        const std::string dir = pass_dir(rec);
        fs::create_directories(dir);
        std::vector<std::unique_ptr<PacketSource>> opened;
        std::vector<TraceMeta> metas;
        for (std::size_t i = 0; i < sources.size(); ++i) {
          opened.push_back(sources.open(i));
          metas.push_back(opened.back()->meta());
        }
        MergedPacketStream merged(std::move(opened));
        IncrementalAnalyzer analyzer(metas, config, window_opts);
        snapshot::RetentionManager retention(dir, retention_opts, config, snap_meta);

        double encode_bytes = 0.0, age_max_s = 0.0, folds = 0.0, live_max = 0.0;
        bool io_ok = true;
        const auto checkpoint = [&](const WindowShard& win) {
          const std::string path = dir + "/" + snapshot::window_file_name(win.index);
          snapshot::WindowSummary summary = snapshot::summarize_window(win);
          {
            Scope s(log, "snapshot.encode");
            summary.snapshot_bytes = snapshot::write_window_snapshot(path, snap_meta, win);
          }
          encode_bytes += static_cast<double>(summary.snapshot_bytes);
          const double t0 = now_s();
          snapshot::AgeResult aged;
          {
            Scope s(log, "snapshot.age");
            aged = retention.add_window(summary, path);
          }
          age_max_s = std::max(age_max_s, now_s() - t0);
          folds += static_cast<double>(aged.folds);
          io_ok = io_ok && aged.ok();
        };
        // The daemon's /report; traced passes decompose it into its calls.
        const auto report = [&]() {
          const double t0 = now_s();
          const std::vector<std::string> paths = retention.report_paths();
          std::string out;
          if (!log.enabled()) {
            out = snapshot::render_windowed_report(paths, in.spec, config);
          } else {
            Scope r(log, "snapshot.report");
            std::vector<WindowShard> windows;
            for (std::size_t i = 0; i < paths.size(); ++i) {
              Scope s(log, "snapshot.decode");
              windows.push_back(snapshot::read_window_snapshot(paths[i]));
              windows.back().index = i;
            }
            std::vector<TraceShard> shards;
            {
              Scope s(log, "snapshot.merge");
              shards = snapshot::merge_window_shards(std::move(windows), config);
            }
            DatasetAnalysis analysis;
            {
              Scope s(log, "core.fold");
              analysis = fold_shards(in.spec.name, std::move(shards), config);
            }
            Scope s(log, "core.report");
            out = render(in.spec, analysis);
            record_semantic(analysis.metrics, rec);
          }
          rec.samples["report_ms"].push_back((now_s() - t0) * 1e3);
          return out;
        };

        std::vector<PacketView> views(kIngestBatch);
        for (;;) {
          std::size_t got = 0;
          {
            Scope s(log, "pcap.merge");
            got = merged.next_batch(views.data(), views.size());
          }
          if (got == 0) break;
          rec.packets += got;
          {
            Scope s(log, "core.feed");
            analyzer.feed(views.data(), got);
          }
          while (analyzer.window_complete()) {
            const double t0 = now_s();
            WindowShard win;
            {
              Scope s(log, "core.rotate");
              win = analyzer.rotate();
            }
            checkpoint(win);
            rec.samples["stall_ms"].push_back((now_s() - t0) * 1e3);
            live_max = std::max(live_max, static_cast<double>(analyzer.live_entries()));
            if (analyzer.windows_rotated() % kReportEveryWindows == 0) report();
          }
        }
        WindowShard last;
        {
          Scope s(log, "core.finish");
          last = analyzer.finish(&merged);
        }
        checkpoint(last);
        rec.ok = bench.verify(report(), reference) && io_ok;
        rec.failed_units = rec.ok ? 0 : 1;

        double decode_s = 0.0, tally_s = 0.0, flow_s = 0.0;
        for (const TraceShard& shard : last.shards) {
          decode_s += metric_value(shard.metrics, "stage.batch.decode.seconds");
          tally_s += metric_value(shard.metrics, "stage.batch.tally.seconds");
          flow_s += metric_value(shard.metrics, "stage.batch.flow.seconds");
        }
        rec.values["net.decode_s"] = decode_s;
        rec.values["core.tally_s"] = tally_s;
        rec.values["flow.track_s"] = flow_s;
        rec.values["flow.live_max"] = live_max;
        rec.values["snapshot.encode_mb"] = encode_bytes / (1 << 20);
        rec.values["snapshot.age_max_ms"] = age_max_s * 1e3;
        rec.values["snapshot.folds"] = folds;
        rec.values["disk_mb"] = static_cast<double>(retention.bytes_retained()) / (1 << 20);
        rec.values["snapshot.windows"] = static_cast<double>(analyzer.windows_rotated());
      },
      [&](const PassRecord& rec) { fs::remove_all(pass_dir(rec)); });

  std::vector<Metric> m;
  Bench::add_medians(m, bench.timed(true),
                     {"net.decode_s", "core.tally_s", "flow.track_s", "flow.live_max",
                      "snapshot.encode_mb", "snapshot.age_max_ms", "snapshot.folds",
                      "snapshot.windows", "disk_mb", "net.dropped", "flow.conns_opened",
                      "proto.events"});
  m.push_back({"synth.generate_s", in.generate_s, 1});
  m.push_back({"pcap.input_mb", in.bytes / (1 << 20), 1});
  return bench.finish(std::move(m));
}

// ---- fleet --------------------------------------------------------------------

// Loopback workers serving on their own threads for the whole run.
class Fleet {
 public:
  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      cluster::WorkerConfig wc;
      wc.name = "perfbench-w" + std::to_string(i);
      servers_.push_back(std::make_unique<cluster::WorkerServer>(wc));
      endpoints_.push_back("127.0.0.1:" + std::to_string(servers_.back()->port()));
    }
    for (auto& server : servers_) {
      threads_.emplace_back([s = server.get()] { s->serve(); });
    }
  }
  ~Fleet() {
    for (auto& server : servers_) server->stop();
    for (auto& thread : threads_) thread.join();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::vector<std::string>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<cluster::WorkerServer>> servers_;
  std::vector<std::string> endpoints_;
  std::vector<std::thread> threads_;
};

Result run_fleet(Bench& bench) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D1", bench.input_scale(kD1Scale));
  const std::string reference =
      reference_report(spec, SyntheticTraceSourceSet(spec, model), model);
  const Fleet fleet(kFleetWorkers);
  SpanLog& log = bench.spans();

  bench.run([&](PassRecord& rec) {
    obs::Registry reg;
    cluster::ClusterConfig cc;
    cc.dataset = spec.name;
    cc.scale = spec.scale;
    cc.endpoints = fleet.endpoints();
    cc.jobs = kFleetJobs;
    cc.shard_threads = 1;
    cc.inject.refuse = cc.inject.disconnect = cc.inject.corrupt = kFaultEach;
    cc.inject.attempt_limit = cc.retry.max_attempts - 1;
    cc.inject.seed = mix_seed(bench.opts().seed, static_cast<std::uint64_t>(rec.index));
    cc.metrics = &reg;
    orchestrate::OrchestrateResult result;
    {
      Scope s(log, "cluster.run");
      result = cluster::run_cluster(cc);
    }
    const double tail_start = now_s();
    std::string report;
    {
      Scope s(log, "orchestrate.render");
      report = orchestrate::render_report(result);
    }
    rec.samples["report_ms"].push_back((now_s() - tail_start) * 1e3);
    rec.ok = result.complete && bench.verify(report, reference);
    rec.samples["stall_ms"].push_back((now_s() - tail_start) * 1e3);
    rec.packets = result.analysis.quality.packets_seen;
    rec.units = result.jobs.size();
    std::uint64_t failed_jobs = 0;
    for (const auto& job : result.jobs) failed_jobs += job.state != orchestrate::JobState::kDone;
    rec.failed_units = rec.ok ? 0 : std::max<std::uint64_t>(failed_jobs, 1);
    record_semantic(result.analysis.metrics, rec);
    rec.values["cluster.attempts"] = static_cast<double>(result.attempts);
    rec.values["cluster.retries"] = static_cast<double>(result.retries);
    rec.values["cluster.bytes"] = metric_value(reg, "cluster.bytes.rx");
  });

  std::vector<Metric> m;
  double attempts = 0.0, retries = 0.0;
  for (const PassRecord& p : bench.passes()) {
    if (p.warmup) continue;
    attempts += p.values.at("cluster.attempts");
    retries += p.values.at("cluster.retries");
  }
  m.push_back({"cluster.retry_frac", attempts > 0 ? retries / attempts : 0.0,
               static_cast<std::size_t>(attempts)});
  Bench::add_medians(m, bench.timed(true),
                     {"cluster.attempts", "cluster.retries", "cluster.bytes", "net.dropped",
                      "flow.conns_opened", "proto.events"});
  if (bench.opts().trace) {
    // Synth cost of the fleet's traffic: every worker generates its traces
    // before analyzing them; draining the sources isolates that part.
    const SyntheticTraceSourceSet sources(spec, model);
    const double t0 = now_s();
    ThreadPool pool(kThreads);
    pool.for_each_index(sources.size(), [&](std::size_t i) {
      const std::unique_ptr<PacketSource> src = sources.open(i);
      std::vector<PacketView> views(kIngestBatch);
      while (src->next_batch(views.data(), views.size()) != 0) {
      }
    });
    m.push_back({"synth.generate_s", now_s() - t0, 1});
  }
  return bench.finish(std::move(m));
}

}  // namespace

Result run_workload(const Options& opts) {
  Bench bench(opts);
  Result r;
  if (opts.workload == "batch") {
    r = run_batch(bench);
  } else if (opts.workload == "daemon") {
    r = run_daemon(bench);
  } else if (opts.workload == "fleet") {
    r = run_fleet(bench);
  } else {
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
  }
  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" + std::to_string(opts.seed);
  bench.write_records(stem + "-passes.tsv");
  if (opts.trace) bench.spans().write_tsv(stem + "-spans.tsv", opts.workload);
  return r;
}

}  // namespace perfbench
