// The pipeline's performance studies, one table row each (kStudies below),
// plus google-benchmark micro-benchmarks of its hot components (study
// "micro": frame decode, flow table, application parsing, pcap I/O, trace
// generation).
//
//   bench_micro_pipeline [--study NAME[,NAME...]] [--smoke] [--benchmark_* ...]
//
// --study picks studies by name (default: all; --help lists them).  The
// runner decides the order: every study that fork()s runs before any study
// that may create a thread, whatever order the names were given in, and it
// refuses to start a forking study once the process has a second thread.
// Each study interleaves its configurations over ENTRACE_BENCH_REPS reps
// (default 5) and reports the median and interquartile range of every
// measured value; the sections of the studies that ran are written to
// BENCH_pipeline.json.  ENTRACE_SCALE sizes the batch and scaling studies;
// every other study has a fixed scale in its row.  --smoke runs the selected
// studies once at a tiny scale, without hang injection, and writes no JSON.
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "flow/flow_table.h"
#include "net/decoder.h"
#include "orchestrate/supervisor.h"
#include "pcap/reader.h"
#include "pcap/writer.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "snapshot/reader.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "snapshot/writer.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace entrace {
namespace {

Trace make_sample_trace() {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d3(0.02);
  spec.monitored_subnets = {16};
  TraceSet set = generate_dataset(spec, model);
  return std::move(set.traces.front());
}

const Trace& sample_trace() {
  static const Trace trace = make_sample_trace();
  return trace;
}

void BM_DecodePacket(benchmark::State& state) {
  const Trace& trace = sample_trace();
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const RawPacket& pkt = trace.packets[i];
    auto d = decode_packet(pkt);
    benchmark::DoNotOptimize(d);
    bytes += pkt.data.size();
    if (++i == trace.packets.size()) i = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodePacket);

void BM_FlowTableProcess(benchmark::State& state) {
  const Trace& trace = sample_trace();
  std::vector<DecodedPacket> decoded;
  decoded.reserve(trace.packets.size());
  for (const auto& pkt : trace.packets) {
    if (auto d = decode_packet(pkt)) decoded.push_back(*d);
  }
  for (auto _ : state) {
    FlowTable table;
    for (const auto& d : decoded) benchmark::DoNotOptimize(table.process(d));
    table.flush();
    benchmark::DoNotOptimize(table.connections().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(decoded.size()));
}
BENCHMARK(BM_FlowTableProcess);

void BM_FullAnalysisPipeline(benchmark::State& state) {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d3(0.01);
  spec.monitored_subnets = {15, 16};
  const TraceSet set = generate_dataset(spec, model);
  const AnalyzerConfig config = default_config_for_model(model.site());
  for (auto _ : state) {
    DatasetAnalysis analysis = analyze_dataset(set, config);
    benchmark::DoNotOptimize(analysis.connections.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(set.total_packets()));
}
BENCHMARK(BM_FullAnalysisPipeline);

void BM_GenerateTrace(benchmark::State& state) {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d3(0.01);
  spec.monitored_subnets = {16};
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const TraceSet set = generate_dataset(spec, model);
    packets += set.total_packets();
    benchmark::DoNotOptimize(set.total_packets());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_GenerateTrace);

void BM_PcapWriteRead(benchmark::State& state) {
  const Trace& trace = sample_trace();
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_bench.pcap").string();
  for (auto _ : state) {
    {
      PcapWriter writer(path, trace.snaplen);
      for (const auto& pkt : trace.packets) writer.write(pkt);
    }
    PcapReader reader(path);
    std::size_t n = 0;
    while (auto pkt = reader.next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.packets.size()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_PcapWriteRead);

void BM_HttpParse(benchmark::State& state) {
  Connection conn;
  const std::string req =
      "GET /index.html HTTP/1.1\r\nHost: www\r\nUser-Agent: bench\r\n\r\n";
  const std::string resp =
      "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 512\r\n\r\n" +
      std::string(512, 'x');
  const std::span<const std::uint8_t> req_b(
      reinterpret_cast<const std::uint8_t*>(req.data()), req.size());
  const std::span<const std::uint8_t> resp_b(
      reinterpret_cast<const std::uint8_t*>(resp.data()), resp.size());
  for (auto _ : state) {
    std::vector<HttpTransaction> out;
    HttpParser parser(out);
    for (int i = 0; i < 50; ++i) {
      parser.on_data(conn, Direction::kOrigToResp, 1.0, req_b);
      parser.on_data(conn, Direction::kRespToOrig, 1.1, resp_b);
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_HttpParse);

void BM_DnsEncodeDecode(benchmark::State& state) {
  DnsMessage q;
  q.id = 7;
  q.qname = "host1234.lbl.example";
  q.qtype = dnstype::kA;
  for (auto _ : state) {
    const auto wire = encode_dns(q);
    auto d = decode_dns(wire);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnsEncodeDecode);

// ---- study support: JSON values, reps, timing ---------------------------------

// A JSON value: a scalar rendered when it is constructed, or an
// insertion-ordered object (the default) or array.
class Json {
 public:
  Json() = default;
  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_convertible_v<T, std::string>
  Json(const T& v) : scalar_(render_scalar(v)) {}  // implicit: set("k", 1.5) reads well
  static Json array() {
    Json j;
    j.array_ = true;
    return j;
  }

  Json& set(const std::string& key, Json v) {
    members_.emplace_back(key, std::move(v));
    return *this;
  }
  Json& push(Json v) { return set("", std::move(v)); }
  void merge(const Json& other) {
    members_.insert(members_.end(), other.members_.begin(), other.members_.end());
  }
  bool empty() const { return scalar_.empty() && members_.empty(); }

  // An object holding containers puts one member per line; array items, and
  // everything inside them, stay on one line.
  std::string render(std::size_t indent = 0, bool one_line = false) const {
    if (!scalar_.empty()) return scalar_;
    const bool flat = one_line || std::all_of(members_.begin(), members_.end(), [](const auto& m) {
                        return !m.second.scalar_.empty();
                      });
    std::string out(1, array_ ? '[' : '{');
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += flat ? ", " : ",";
      if (!flat) out += "\n" + std::string(indent + 2, ' ');
      if (!array_) out += "\"" + members_[i].first + "\": ";
      out += members_[i].second.render(indent + 2, flat || array_);
    }
    if (!flat) out += "\n" + std::string(indent, ' ');
    return out + (array_ ? ']' : '}');
  }

 private:
  template <typename T>
  static std::string render_scalar(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return v ? "true" : "false";
    } else if constexpr (std::is_arithmetic_v<T>) {
      // Whole numbers exactly, rates to 0.1, everything else to 6 digits.
      const double d = static_cast<double>(v);
      if (!std::isfinite(d)) return "null";
      char buf[48];
      std::snprintf(buf, sizeof(buf),
                    d == std::floor(d) && std::fabs(d) < 1e15 ? "%.0f"
                    : std::fabs(d) >= 1000                    ? "%.1f"
                                                              : "%.6g",
                    d);
      return buf;
    } else {
      return "\"" + std::string(v) + "\"";  // labels and names: plain ASCII
    }
  }

  std::string scalar_;
  bool array_ = false;
  std::vector<std::pair<std::string, Json>> members_;
};

// One configuration's measurements: each named value keeps one sample per
// rep and is reported as its median and interquartile range (type-7
// quantiles, util/stats.h).
class Samples {
 public:
  void add(const std::string& name, double v) {
    for (auto& [n, xs] : series_) {
      if (n == name) {
        xs.push_back(v);
        return;
      }
    }
    series_.push_back({name, {v}});
  }
  const std::vector<double>& values(const std::string& name) const {
    for (const auto& [n, xs] : series_) {
      if (n == name) return xs;
    }
    throw std::logic_error("no samples named " + name);
  }
  double median(const std::string& name) const { return quantile(name, 0.5); }
  double iqr(const std::string& name) const {
    return quantile(name, 0.75) - quantile(name, 0.25);
  }
  // `row` plus "<name>": median and "<name>_iqr" for every value, in
  // first-seen order.
  Json with(Json row) const {
    for (const auto& series : series_) {
      row.set(series.first, median(series.first)).set(series.first + "_iqr", iqr(series.first));
    }
    return row;
  }
  // The same as one human-readable line.
  std::string summary() const {
    std::string out;
    for (const auto& series : series_) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "  %s %.4g (iqr %.2g)", series.first.c_str(),
                    median(series.first), iqr(series.first));
      out += buf;
    }
    return out;
  }

 private:
  double quantile(const std::string& name, double q) const {
    EmpiricalCdf cdf;
    for (const double v : values(name)) cdf.add(v);
    return cdf.quantile(q);
  }

  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

// Runs measure(config, samples) for every configuration once per rep, `reps`
// times over, so machine drift lands on every configuration alike.
template <typename Fn>
std::vector<Samples> interleave(std::size_t configs, int reps, const Fn& measure) {
  std::vector<Samples> out(configs);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < configs; ++c) measure(c, out[c]);
  }
  return out;
}

struct Stopwatch {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
};

// What the runner hands a study.
struct Run {
  double scale = 0.0;  // dataset scale
  int reps = 1;
  bool smoke = false;  // tiny scale, 1 rep, no hang injection
};

// A fresh directory under the system temp dir, removed again on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

// ---- memory: materialized vs streaming peak RSS -------------------------------

struct ChildRun {
  double packets = 0, seconds = 0, peak_rss_kb = 0;
};

// Runs `workload` (returning a packet count) in a fork()ed child.  ru_maxrss
// is a process-lifetime high-water mark, so each workload needs a process of
// its own to be measured alone.
template <typename Fn>
ChildRun measure_in_child(const Fn& workload) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const Stopwatch watch;
    ChildRun run;
    run.packets = static_cast<double>(workload());
    run.seconds = watch.seconds();
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    run.peak_rss_kb = static_cast<double>(usage.ru_maxrss);  // KB on Linux
    const ssize_t written = write(fds[1], &run, sizeof(run));
    _exit(written == sizeof(run) ? 0 : 1);
  }
  close(fds[1]);
  ChildRun run;
  const ssize_t got = read(fds[0], &run, sizeof(run));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(run) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child measurement failed");
  }
  return run;
}

// Peak RSS of D1 (68-byte snaplen: the paper's biggest dataset by packet
// count) analyzed after materializing the whole TraceSet versus streamed
// through regeneration slices, which holds no more than one slice per
// analysis thread.
Json run_memory_study(const Run& run) {
  constexpr int kSlices = 8;
  std::printf("---- memory: materialized vs streaming peak RSS (D1, scale %.3f, %d slices) ----\n",
              run.scale, kSlices);
  const char* const labels[] = {"materialized", "streaming"};
  const auto samples = interleave(2, run.reps, [&](std::size_t i, Samples& s) {
    const ChildRun child = measure_in_child([&]() -> std::uint64_t {
      const EnterpriseModel model;
      const DatasetSpec spec = dataset_by_name("D1", run.scale);
      const AnalyzerConfig config = default_config_for_model(model.site());
      const DatasetAnalysis a =
          i == 0 ? analyze_dataset(generate_dataset(spec, model), config)
                 : analyze_dataset(SyntheticTraceSourceSet(spec, model, {kSlices}), config);
      return a.quality.packets_seen;
    });
    s.add("packets", child.packets);
    s.add("seconds", child.seconds);
    s.add("peak_rss_kb", child.peak_rss_kb);
  });
  Json rows = Json::array();
  for (std::size_t i = 0; i < 2; ++i) {
    std::printf("  %-13s%s\n", labels[i], samples[i].summary().c_str());
    rows.push(samples[i].with(Json().set("label", labels[i])));
  }
  const double reduction = samples[0].median("peak_rss_kb") / samples[1].median("peak_rss_kb");
  std::printf("  streaming peak RSS reduction: %.2fx\n", reduction);
  return Json().set("memory", rows).set("memory_rss_reduction", reduction);
}

// ---- snapshot: multi-process shard + merge ------------------------------------

// D1 analyzed by `shards` fork()ed processes, each writing its trace range
// as an .esnap, then decoded and folded here: entrace_shard | entrace_merge
// as one measurement.  Children analyze with threads = 1, so the pool runs
// inline and spawns nothing.
void measure_sharded(const DatasetSpec& spec, const SyntheticTraceSourceSet& sources,
                     const AnalyzerConfig& config, std::size_t shards, const std::string& dir,
                     Samples& s) {
  const std::size_t n = sources.size();
  const snapshot::SnapshotMeta meta{spec.name, spec.scale, static_cast<std::uint32_t>(n)};
  std::vector<std::string> paths;
  std::vector<pid_t> pids;
  const Stopwatch shard_watch;
  for (std::size_t k = 0; k < shards; ++k) {
    const std::size_t lo = n * k / shards, hi = n * (k + 1) / shards;
    paths.push_back(dir + "/shard" + std::to_string(k) + ".esnap");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      const std::vector<TraceShard> out = analyze_trace_shards(sources, config, lo, hi);
      snapshot::SnapshotWriter writer(paths.back(), meta);
      for (std::size_t i = 0; i < out.size(); ++i) {
        writer.add_shard(static_cast<std::uint32_t>(lo + i), out[i]);
      }
      writer.close();
      _exit(0);
    }
    pids.push_back(pid);
  }
  bool ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  if (!ok) throw std::runtime_error("a shard process failed");
  s.add("shard_seconds", shard_watch.seconds());

  const Stopwatch decode_watch;
  std::vector<TraceShard> decoded;
  std::uint64_t bytes = 0;
  for (const std::string& path : paths) {
    snapshot::Snapshot snap = snapshot::read_snapshot(path);
    bytes += std::filesystem::file_size(path);
    for (auto& shard : snap.shards) decoded.push_back(std::move(shard.shard));
  }
  s.add("decode_seconds", decode_watch.seconds());

  const Stopwatch merge_watch;
  const DatasetAnalysis analysis = fold_shards(spec.name, std::move(decoded), config);
  s.add("merge_seconds", merge_watch.seconds());
  s.add("packets", static_cast<double>(analysis.quality.packets_seen));
  s.add("snapshot_bytes", static_cast<double>(bytes));
  for (const std::string& path : paths) std::filesystem::remove(path);
}

// .esnap encode throughput, and D1 shard + merge over 1/2/4/8 processes
// against one.
Json run_snapshot_study(const Run& run) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D1", run.scale);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;  // per-process work stays serial; processes scale
  const SyntheticTraceSourceSet sources(spec, model);
  const ScratchDir scratch("entrace_bench_esnap");
  const std::string& dir = scratch.path;
  std::printf("---- snapshot: multi-process shard + merge (D1, scale %.3f) ----\n", run.scale);

  // Encode cost apart from analysis: analyze once here, then time only the
  // SnapshotWriter pass (configuration 0; 1.. are the shard counts), once
  // into a file and once into memory, which splits codec time from
  // filesystem time.
  const std::vector<TraceShard> analyzed =
      analyze_trace_shards(sources, config, 0, sources.size());
  const snapshot::SnapshotMeta meta{spec.name, spec.scale,
                                    static_cast<std::uint32_t>(analyzed.size())};
  const auto encode_all = [&analyzed](snapshot::SnapshotWriter& writer) {
    for (std::size_t t = 0; t < analyzed.size(); ++t) {
      writer.add_shard(static_cast<std::uint32_t>(t), analyzed[t]);
    }
    writer.close();
  };
  const std::size_t shard_counts[] = {1, 2, 4, 8};
  const auto samples = interleave(1 + std::size(shard_counts), run.reps,
                                  [&](std::size_t i, Samples& s) {
    if (i > 0) return measure_sharded(spec, sources, config, shard_counts[i - 1], dir, s);
    const Stopwatch watch;
    snapshot::SnapshotWriter writer(dir + "/encode.esnap", meta);
    encode_all(writer);
    s.add("encode_seconds", watch.seconds());
    s.add("encode_bytes", static_cast<double>(writer.bytes_written()));
    std::ostringstream sink(std::ios::binary);
    const Stopwatch mem_watch;
    snapshot::SnapshotWriter mem_writer(sink, meta);
    encode_all(mem_writer);
    s.add("encode_mem_seconds", mem_watch.seconds());
  });

  Json section = samples[0].with(
      Json().set("dataset", "D1").set("scale", run.scale).set("traces", sources.size()));
  std::printf("  encode     %s\n", samples[0].summary().c_str());
  Json rows = Json::array();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    rows.push(samples[i].with(Json().set("shards", shard_counts[i - 1])));
    std::printf("  %zu shard(s)%s\n", shard_counts[i - 1], samples[i].summary().c_str());
  }
  return Json().set("snapshot", section.set("runs", rows));
}

// ---- telemetry: collect_metrics off vs on -------------------------------------

// Cost of the obs metrics layer on the D1 throughput workload, serial so
// per-packet metric cost is not hidden by idle cores.  The overhead is taken
// per rep (each "on" run against the "off" run just before it).  Budget:
// <= 2% (EXPERIMENTS.md).
Json run_telemetry_study(const Run& run) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D1", run.scale);
  const SyntheticTraceSourceSet sources(spec, model);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  std::printf("---- telemetry: collect_metrics off vs on (D1, scale %.3f) ----\n", run.scale);
  std::uint64_t packets = 0;
  const char* const names[] = {"metrics_off_seconds", "metrics_on_seconds"};
  const auto samples = interleave(2, run.reps, [&](std::size_t i, Samples& s) {
    config.collect_metrics = i == 1;
    const Stopwatch watch;
    const DatasetAnalysis a = analyze_dataset(sources, config);
    s.add(names[i], watch.seconds());
    packets = a.quality.packets_seen;
  });
  Samples overhead;
  const std::vector<double>& off = samples[0].values(names[0]);
  const std::vector<double>& on = samples[1].values(names[1]);
  for (std::size_t r = 0; r < off.size(); ++r) {
    overhead.add("overhead_pct", (on[r] - off[r]) / off[r] * 100.0);
  }
  std::printf("  %s%s%s  (%llu packets, budget <= 2%%)\n", samples[0].summary().c_str(),
              samples[1].summary().c_str(), overhead.summary().c_str(),
              static_cast<unsigned long long>(packets));
  const Json head = Json().set("dataset", "D1").set("scale", run.scale).set("packets", packets);
  return Json().set("telemetry",
                    overhead.with(samples[1].with(samples[0].with(head))).set("budget_pct", 2.0));
}

// ---- batch: ingest batch sizes ------------------------------------------------

double stage_gauge(const obs::Registry& reg, const char* name) {
  const obs::Metric* m = reg.find(name);
  return m != nullptr && m->kind == obs::MetricKind::kGauge ? m->gauge.value() : 0.0;
}

// analyze_trace's one ingest loop on D3 at batch sizes 1..1024; batch@1 (one
// packet per next_batch call) is the baseline.  Stage seconds come from the
// analyzer's own obs::stage_timer gauges (stage.batch.*.seconds).
Json run_batch_study(const Run& run) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D3", run.scale);
  const TraceSet set = generate_dataset(spec, model);
  const std::uint64_t packets = set.total_packets();
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  std::printf("---- batch sizes (D3, scale %.3f, %llu packets) ----\n", run.scale,
              static_cast<unsigned long long>(packets));
  const std::size_t sizes[] = {1, 16, 64, 256, 1024};
  const auto samples = interleave(std::size(sizes), run.reps, [&](std::size_t i, Samples& s) {
    config.batch_size = sizes[i];
    const Stopwatch watch;
    const DatasetAnalysis a = analyze_dataset(set, config);
    const double seconds = watch.seconds();
    s.add("seconds", seconds);
    s.add("pps", static_cast<double>(packets) / seconds);
    for (const char* stage : {"source", "decode", "tally", "flow"}) {
      s.add(std::string(stage) + "_s",
            stage_gauge(a.metrics, ("stage.batch." + std::string(stage) + ".seconds").c_str()));
    }
  });
  Json rows = Json::array();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double speedup = samples[0].median("seconds") / samples[i].median("seconds");
    std::printf("  batch@%-5zu%s  %.2fx vs batch@1\n", sizes[i], samples[i].summary().c_str(),
                speedup);
    rows.push(
        samples[i].with(Json().set("batch_size", sizes[i])).set("speedup_vs_batch1", speedup));
  }
  return Json().set("batch", Json()
                                 .set("dataset", "D3")
                                 .set("scale", run.scale)
                                 .set("packets", packets)
                                 .set("sweep", rows));
}

// ---- dispatch: direct vs subprocess and TCP workers ---------------------------

// In-process cluster workers on loopback TCP sockets, stopped and joined on
// destruction.
class LoopbackFleet {
 public:
  explicit LoopbackFleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      cluster::WorkerConfig wc;
      wc.name = "bench-w" + std::to_string(i);
      servers_.push_back(std::make_unique<cluster::WorkerServer>(wc));
      endpoints_.push_back("127.0.0.1:" + std::to_string(servers_.back()->port()));
    }
    for (auto& server : servers_) threads_.emplace_back([&server] { server->serve(); });
  }
  ~LoopbackFleet() {
    for (auto& server : servers_) server->stop();
    for (auto& thread : threads_) thread.join();
  }
  LoopbackFleet(const LoopbackFleet&) = delete;
  LoopbackFleet& operator=(const LoopbackFleet&) = delete;
  std::vector<std::string> endpoints(std::size_t n) const {
    return {endpoints_.begin(), endpoints_.begin() + static_cast<std::ptrdiff_t>(n)};
  }

 private:
  std::vector<std::unique_ptr<cluster::WorkerServer>> servers_;
  std::vector<std::string> endpoints_;
  std::vector<std::thread> threads_;
};

// What the job scheduler (src/orchestrate) costs over an in-process direct
// analysis of D0, through both transports: 4 entrace_shard subprocesses
// and 1/2/4 loopback TCP workers, each at 0/10/20% per-attempt fault
// injection split evenly over the transport's four kinds.  The 0% rows are
// the pure dispatch overhead; the others price recovery.  Every run must
// complete and render a report byte-identical to the direct run's, or the
// study fails.
Json run_dispatch_study(const Run& run) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D0", run.scale);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  const SyntheticTraceSourceSet sources(spec, model);
  const ScratchDir scratch("entrace_bench_dispatch");
  const std::string& dir = scratch.path;
  std::printf("---- dispatch: direct vs subprocess and TCP workers (D0, scale %.3f) ----\n",
              run.scale);

  struct Entry {
    bool tcp;
    std::size_t workers;  // 0: the direct run
    double fault_rate;
  };
  std::vector<Entry> entries = {{false, 0, 0.0}};
  for (const double rate : {0.0, 0.1, 0.2}) entries.push_back({false, 4, rate});
  for (const std::size_t workers : {1, 2, 4}) {
    for (const double rate : {0.0, 0.1, 0.2}) entries.push_back({true, workers, rate});
  }
  const LoopbackFleet fleet(4);
  std::string direct_report;  // the direct run comes first in every rep
  const auto samples = interleave(entries.size(), run.reps, [&](std::size_t i, Samples& s) {
    const Entry& e = entries[i];
    if (e.workers == 0) {
      const Stopwatch watch;
      DatasetAnalysis a = fold_shards(
          spec.name, analyze_trace_shards(sources, config, 0, sources.size()), config);
      s.add("seconds", watch.seconds());
      const report::ReportInput input{&spec, &a};
      direct_report = report::full_report(std::span(&input, 1));
      return;
    }
    // Injected hangs cost a deadline each; the smoke run leaves them out.
    const double hang = run.smoke ? 0.0 : e.fault_rate / 4.0;
    const double other = (e.fault_rate - hang) / 3.0;
    orchestrate::DispatchConfig* common = nullptr;
    orchestrate::OrchestratorConfig oc;
    cluster::ClusterConfig cc;
    if (e.tcp) {
      cc.endpoints = fleet.endpoints(e.workers);
      cc.retry.max_delay = 0.5;
      cc.heartbeat_interval = 0.05;
      cc.heartbeat_deadline = 2.0;  // injected hangs pay this per draw
      cc.inject.refuse = cc.inject.disconnect = cc.inject.corrupt = other;
      common = &cc;
    } else {
      oc.workers = e.workers;
      oc.shard_binary = ENTRACE_SHARD_BIN;
      oc.work_dir = dir;
      oc.attempt_deadline = 30.0 * std::max(run.scale / 0.01, 1.0);
      oc.inject.crash = oc.inject.truncate = oc.inject.corrupt = other;
      common = &oc;
    }
    common->dataset = spec.name;
    common->scale = run.scale;
    common->jobs = 8;  // more, smaller jobs: more per-attempt fault draws per run
    common->retry.max_attempts = 10;  // generous: every job must eventually succeed
    common->retry.base_delay = 0.02;
    common->inject.hang = hang;
    common->inject.seed = 17;
    const Stopwatch watch;
    const orchestrate::OrchestrateResult result =
        e.tcp ? cluster::run_cluster(cc) : orchestrate::orchestrate(oc);
    s.add("seconds", watch.seconds());
    const std::string label = std::string(e.tcp ? "tcp" : "subprocess") + " x" +
                              std::to_string(e.workers) + " at fault rate " +
                              format_double(e.fault_rate, 2);
    if (!result.complete) throw std::runtime_error(label + ": incomplete run");
    if (orchestrate::render_report(result) != direct_report) {
      throw std::runtime_error(label + ": report differs from the direct run");
    }
    s.add("attempts", static_cast<double>(result.attempts));
    s.add("retries", static_cast<double>(result.retries));
    s.add("faults", static_cast<double>(result.fault_counts.total_faults()));
  });

  const double direct = samples[0].median("seconds");
  std::printf("  direct (1 thread)   %s\n", samples[0].summary().c_str());
  Json subprocess_rows = Json::array(), tcp_rows = Json::array();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::printf("  %-10s x%zu %3.0f%%%s  %.2fx vs direct\n", e.tcp ? "tcp" : "subprocess",
                e.workers, e.fault_rate * 100, samples[i].summary().c_str(),
                samples[i].median("seconds") / direct);
    Json head;
    if (e.tcp) head.set("workers", e.workers);
    (e.tcp ? tcp_rows : subprocess_rows)
        .push(samples[i]
                  .with(head.set("fault_rate", e.fault_rate))
                  .set("overhead_vs_direct", samples[i].median("seconds") / direct));
  }
  const auto section = [&](Json rows) {
    return Json()
        .set("dataset", "D0")
        .set("scale", run.scale)
        .set("direct_seconds", direct)
        .set("direct_seconds_iqr", samples[0].iqr("seconds"))
        .set("runs", std::move(rows));
  };
  return Json()
      .set("orchestrate", section(subprocess_rows).set("workers", 4))
      .set("cluster", section(tcp_rows));
}

// ---- replay: the daemon loop, windows and retention tiers ---------------------

std::uint64_t sample_rss_kb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages_total = 0, pages_resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0;
  return pages_resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) / 1024;
}

// The windowed engine (core/incremental.h) in the daemon's loop shape:
// merged time-ordered replay -> feed -> rotate at window boundaries -> .esnap
// checkpoint -> retention aging (keep 4 full windows), with flow eviction
// and slot reclaim on, serial so stalls are not hidden by idle workers.
// Swept over 8/32/128 windows with the sketch tiers off, plus 128 windows
// with sketch_every 8 (tier-1/2 folds inside the rotation path).  The stall
// is the pause a checkpoint + aging cycle inflicts on the ingest loop.
// JSON: "daemon" holds the window sweep, "retention" the 128-window pair.
Json run_replay_study(const Run& run) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D3", run.scale);
  const TraceSet set = generate_dataset(spec, model);
  const std::uint64_t packets = set.total_packets();
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  const snapshot::SnapshotMeta meta{spec.name, run.scale,
                                    static_cast<std::uint32_t>(set.traces.size())};
  // Window widths derive from the merged timeline's span, so the sweep
  // holds its window counts at any scale.
  double lo = 1e300, hi = -1e300;
  {
    const MergedPacketStream probe = merged_stream(set);
    for (std::size_t t = 0; t < probe.source_count(); ++t) {
      const TraceMeta& m = probe.source(t).meta();
      lo = std::min(lo, m.start_ts);
      hi = std::max(hi, m.start_ts + m.duration);
    }
  }
  if (packets == 0 || hi <= lo) throw std::runtime_error("empty replay dataset");
  constexpr std::size_t kKeepFull = 4;
  struct Config {
    std::size_t windows, sketch_every;  // sketch_every 0: summary-only aging
  };
  const Config configs[] = {{8, 0}, {32, 0}, {128, 0}, {128, 8}};
  const ScratchDir scratch("entrace_bench_replay");
  const std::string& dir = scratch.path;
  std::printf("---- replay: daemon loop (D3, scale %.3f, %llu packets, retain %zu) ----\n",
              run.scale, static_cast<unsigned long long>(packets), kKeepFull);

  const auto samples = interleave(std::size(configs), run.reps, [&](std::size_t i, Samples& s) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    MergedPacketStream stream = merged_stream(set);
    std::vector<TraceMeta> metas;
    for (std::size_t t = 0; t < stream.source_count(); ++t) {
      metas.push_back(stream.source(t).meta());
    }
    IncrementalOptions opts;
    opts.window_seconds = (hi - lo) / static_cast<double>(configs[i].windows);
    opts.evict = opts.reclaim = true;
    IncrementalAnalyzer analyzer(std::move(metas), config, opts);
    std::unique_ptr<snapshot::RetentionManager> retention;
    if (configs[i].sketch_every == 0) {
      retention = std::make_unique<snapshot::RetentionManager>(dir, kKeepFull);
    } else {
      snapshot::RetentionOptions ropts{kKeepFull, configs[i].sketch_every};
      retention = std::make_unique<snapshot::RetentionManager>(dir, ropts, config, meta);
    }

    double stall_total = 0.0, stall_max = 0.0;
    std::uint64_t rss_peak = 0, retained_peak = 0;
    const auto checkpoint = [&](WindowShard&& w) {
      const Stopwatch stall;
      const std::string path = dir + "/" + snapshot::window_file_name(w.index);
      snapshot::WindowSummary sum = snapshot::summarize_window(w);
      sum.snapshot_bytes = snapshot::write_window_snapshot(path, meta, w);
      retention->add_window(sum, path);
      stall_total += stall.seconds();
      stall_max = std::max(stall_max, stall.seconds());
      rss_peak = std::max(rss_peak, sample_rss_kb());
      retained_peak = std::max(retained_peak, retention->bytes_retained());
    };
    std::vector<PacketView> views(256);
    const Stopwatch watch;
    while (const std::size_t got = stream.next_batch(views.data(), views.size())) {
      analyzer.feed(views.data(), got);
      while (analyzer.window_complete()) checkpoint(analyzer.rotate());
    }
    checkpoint(analyzer.finish(&stream));
    const double seconds = watch.seconds();

    const double windows = static_cast<double>(analyzer.windows_rotated());
    std::size_t esnaps = 0;
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      esnaps += f.path().extension() == ".esnap" ? 1 : 0;
    }
    s.add("seconds", seconds);
    s.add("pps", static_cast<double>(packets) / seconds);
    s.add("rotation_stall_max_s", stall_max);
    s.add("rotation_stall_mean_s", windows > 0 ? stall_total / windows : 0.0);
    s.add("windows", windows);
    s.add("peak_rss_kb", static_cast<double>(rss_peak));
    s.add("evicted", static_cast<double>(analyzer.evicted_total()));
    s.add("drained", static_cast<double>(analyzer.drained_total()));
    s.add("sketch_folds", static_cast<double>(retention->sketch_folds()));
    s.add("peak_retained_bytes", static_cast<double>(retained_peak));
    s.add("final_retained_bytes", static_cast<double>(retention->bytes_retained()));
    s.add("final_esnap_files", static_cast<double>(esnaps));
  });

  Json daemon_rows = Json::array(), retention_rows = Json::array();
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    std::printf("  windows@%-4zu sketch-every %zu%s\n", configs[i].windows,
                configs[i].sketch_every, samples[i].summary().c_str());
    if (configs[i].sketch_every == 0) {
      daemon_rows.push(samples[i].with(Json().set("target_windows", configs[i].windows)));
    }
    if (configs[i].windows == 128) {
      retention_rows.push(samples[i].with(Json().set("sketches", configs[i].sketch_every != 0)));
    }
  }
  const auto section = [&](Json runs) {
    return Json().set("dataset", "D3").set("scale", run.scale).set("packets", packets).set(
        "runs", std::move(runs));
  };
  return Json()
      .set("daemon", section(daemon_rows))
      .set("retention", section(retention_rows)
                            .set("keep_full", kKeepFull)
                            .set("sketch_every", configs[3].sketch_every));
}

// ---- scaling: analysis threads ------------------------------------------------

// analyze_dataset on D3 at 1, 2, 4 and ENTRACE_THREADS threads (per-trace
// jobs), with each count's efficiency against the 1-thread rate (1.0 =
// perfect scaling).
Json run_scaling_study(const Run& run) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D3", run.scale);
  const TraceSet set = generate_dataset(spec, model);
  const std::uint64_t packets = set.total_packets();
  AnalyzerConfig config = default_config_for_model(model.site());
  const std::set<std::size_t> counts = {1, 2, 4, ThreadPool::env_thread_count()};
  const std::vector<std::size_t> threads(counts.begin(), counts.end());
  std::printf("---- scaling (D3, scale %.3f, %llu packets, %zu traces, %u hardware threads) ----\n",
              run.scale, static_cast<unsigned long long>(packets), set.traces.size(),
              std::thread::hardware_concurrency());
  const auto samples = interleave(threads.size(), run.reps, [&](std::size_t i, Samples& s) {
    config.threads = threads[i];
    const Stopwatch watch;
    analyze_dataset(set, config);
    const double seconds = watch.seconds();
    s.add("seconds", seconds);
    s.add("pps", static_cast<double>(packets) / seconds);
  });
  Json rows = Json::array();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const double eff = samples[i].median("pps") /
                       (static_cast<double>(threads[i]) * samples[0].median("pps"));
    std::printf("  threads@%-3zu%s  efficiency %.2f\n", threads[i], samples[i].summary().c_str(),
                eff);
    rows.push(samples[i]
                  .with(Json().set("threads", threads[i]).set("packets", packets))
                  .set("efficiency_vs_1t", eff));
  }
  return Json().set("dataset", "D3").set("scale", run.scale).set("runs", rows);
}

Json run_micro_study(const Run&) {
  benchmark::RunSpecifiedBenchmarks();
  return {};
}

// ---- the study table and its runner -------------------------------------------

struct Study {
  const char* name;
  bool forks;    // fork()s: must start while this process has one thread
  double scale;  // dataset scale; 0 = ENTRACE_SCALE
  Json (*run)(const Run&);
  const char* about;
};

const Study kStudies[] = {
    {"memory", true, 0.05, run_memory_study,
     "D1 peak RSS, materialized vs streaming (a forked child each)"},
    {"snapshot", true, 0.02, run_snapshot_study,
     "D1 .esnap encode, shard+merge over 1/2/4/8 forked processes"},
    {"telemetry", false, 0.02, run_telemetry_study, "D1 collect_metrics off vs on (budget 2%)"},
    {"batch", false, 0.0, run_batch_study, "D3 ingest at batch sizes 1..1024, stage seconds"},
    {"dispatch", false, 0.01, run_dispatch_study,
     "D0 direct vs subprocess and loopback TCP workers, 0/10/20% faults"},
    {"replay", false, 0.02, run_replay_study,
     "D3 daemon loop at 8/32/128 windows, sketch tiers off/on"},
    {"scaling", false, 0.0, run_scaling_study, "D3 analysis at 1/2/4/ENTRACE_THREADS threads"},
    {"micro", false, 0.0, run_micro_study, "google-benchmark suite (--benchmark_* flags)"},
};
constexpr double kSmokeScale = 0.002;

std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec)) {
    ++n;
  }
  return std::max<std::size_t>(n, 1);
}

// Runs the studies forking ones first, keeping the given order otherwise.
int run_studies(std::vector<const Study*> studies, bool smoke) {
  std::stable_partition(studies.begin(), studies.end(), [](const Study* s) { return s->forks; });
  const int reps = smoke ? 1 : std::max(1, cli::env_int("ENTRACE_BENCH_REPS", 5));
  Json doc = Json()
                 .set("benchmark", "pipeline_scaling")
                 .set("reps", reps)
                 .set("hardware_threads", std::thread::hardware_concurrency());
  bool recorded = false;
  for (const Study* study : studies) {
    if (study->forks && thread_count() > 1) {
      std::fprintf(stderr, "study %s forks, but this process already runs %zu threads\n",
                   study->name, thread_count());
      return 1;
    }
    const double scale = smoke              ? kSmokeScale
                         : study->scale > 0 ? study->scale
                                            : cli::env_scale();
    try {
      const Json sections = study->run({scale, reps, smoke});
      recorded = recorded || !sections.empty();
      doc.merge(sections);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "study %s failed: %s\n", study->name, e.what());
      return 1;
    }
  }
  if (smoke || !recorded) return 0;
  FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json == nullptr || std::fputs((doc.render() + "\n").c_str(), json) < 0) {
    std::fprintf(stderr, "cannot write BENCH_pipeline.json\n");
    return 1;
  }
  std::fclose(json);
  std::printf("wrote BENCH_pipeline.json\n");
  return 0;
}

int usage(FILE* out, int status) {
  std::fprintf(out,
               "usage: bench_micro_pipeline [--study NAME[,NAME...]] [--smoke] "
               "[--benchmark_* ...]\n"
               "studies (default: all; forking studies run first):\n");
  for (const Study& s : kStudies) std::fprintf(out, "  %-10s %s\n", s.name, s.about);
  return status;
}

}  // namespace
}  // namespace entrace

int main(int argc, char** argv) {
  using entrace::kStudies;
  bool smoke = false;
  std::vector<const entrace::Study*> studies;
  std::string min_time = "--benchmark_min_time=0.01";
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return entrace::usage(stdout, 0);
    if (arg == "--smoke") {
      smoke = true;
      rest.push_back(min_time.data());
    } else if (arg == "--study" && i + 1 < argc) {
      for (const std::string_view name : entrace::split(argv[++i], ',')) {
        const auto* it = std::find_if(std::begin(kStudies), std::end(kStudies),
                                      [&](const entrace::Study& s) { return name == s.name; });
        if (it == std::end(kStudies)) {
          std::fprintf(stderr, "unknown study '%.*s'\n", static_cast<int>(name.size()),
                       name.data());
          return entrace::usage(stderr, 2);
        }
        if (std::find(studies.begin(), studies.end(), it) == studies.end()) studies.push_back(it);
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (studies.empty()) {
    for (const entrace::Study& s : kStudies) studies.push_back(&s);
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return entrace::usage(stderr, 2);
  }
  const int status = entrace::run_studies(studies, smoke);
  benchmark::Shutdown();
  return status;
}
