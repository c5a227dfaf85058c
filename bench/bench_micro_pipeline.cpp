// Micro-benchmarks (google-benchmark) of the pipeline's hot components:
// frame decode, flow-table processing, application parsing, pcap I/O, and
// trace generation throughput — plus two studies that run first, before the
// google-benchmark suite:
//
//   1. a peak-memory study comparing materialize-then-analyze against the
//      streaming SyntheticTraceSourceSet path on a scaled-up D1 (each
//      measurement in a fork()ed child so getrusage's lifetime ru_maxrss
//      high-water mark is per-workload, not per-process),
//   2. a snapshot shard study: D1 analyzed by 1/2/4/8 fork()ed shard
//      processes (each writing a .esnap via src/snapshot), then decoded and
//      folded in the parent — .esnap encode/decode throughput plus the
//      multi-process speedup of shard + merge over one process,
//   3. a telemetry overhead study: analyze_dataset on D1 with
//      AnalyzerConfig::collect_metrics on vs off (budget: <= 2%),
//   4. an orchestration study: the fault-tolerant supervisor
//      (src/orchestrate) on D0 at 0/10/20% per-attempt fault injection
//      vs an in-process direct analysis — supervision overhead plus the
//      wall-clock cost of crash/hang/truncate/corrupt recovery,
//   5. a pipeline scaling study measuring analyze_dataset at 1, 2 and N
//      threads against the seed's two-pass double-decode baseline.
//
// All of these write into BENCH_pipeline.json (the scaling study holds the
// pen).  Pass --scaling-only to skip the google-benchmark suite,
// --snapshot-only to stop after the snapshot study, --memory-only to stop
// right after the memory study.  Knobs: ENTRACE_MEM_SCALE (D1 scale for
// the memory study), ENTRACE_MEM_SLICES (regeneration slices),
// ENTRACE_SNAP_SCALE (D1 scale for the shard study), ENTRACE_BENCH_REPS.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench_common.h"
#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "orchestrate/supervisor.h"
#include "flow/flow_table.h"
#include "net/decoder.h"
#include "net/encoder.h"
#include "pcap/reader.h"
#include "pcap/writer.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/cli.h"
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

// ---- pipeline scaling study -------------------------------------------------

// The seed's serial two-pass pipeline, preserved here as the baseline: a
// tally/scanner pass and a flow/app pass, each calling decode_packet —
// i.e. every packet decoded twice.
DatasetAnalysis analyze_dataset_twopass_baseline(const TraceSet& traces,
                                                 const AnalyzerConfig& config) {
  DatasetAnalysis out;
  out.name = traces.dataset_name;
  out.site = config.site;

  ScannerDetector detector(config.scanner);
  for (Ipv4Address known : config.site.known_scanners) detector.add_known_scanner(known);
  for (const Trace& trace : traces.traces) {
    if (trace.subnet_id >= 0) out.monitored_subnets.push_back(trace.subnet_id);
    for (const RawPacket& pkt : trace.packets) {
      ++out.total_packets;
      out.total_wire_bytes += pkt.wire_len;
      auto decoded = decode_packet(pkt);
      if (!decoded) continue;
      out.l3.add(decoded->l3);
      if (decoded->l3 != L3Kind::kIpv4) continue;
      ++out.ip_proto_packets[decoded->ip_proto];
      detector.observe(decoded->src, decoded->dst);
      for (const Ipv4Address addr : {decoded->src, decoded->dst}) {
        if (addr.is_multicast() || addr.is_broadcast()) continue;
        if (config.site.is_internal(addr)) {
          out.lbnl_hosts.insert(addr.value());
          if (config.site.subnet_of(addr) == trace.subnet_id)
            out.monitored_hosts.insert(addr.value());
        } else {
          out.remote_hosts.insert(addr.value());
        }
      }
    }
  }
  out.scanners = detector.scanners();

  for (const Trace& trace : traces.traces) {
    const bool payload = config.payload_analysis.value_or(trace.snaplen >= 200);
    ProtocolDispatcher dispatcher(out.registry, out.events, payload);
    auto table = std::make_unique<FlowTable>(config.flow, &dispatcher);
    TraceLoadRaw load;
    load.trace_name = trace.name;
    for (const RawPacket& pkt : trace.packets) {
      auto decoded = decode_packet(pkt);
      if (!decoded) continue;
      load.add_packet(pkt.ts, pkt.wire_len);
      if (decoded->l3 != L3Kind::kIpv4) continue;
      const PacketVerdict verdict = table->process(*decoded);
      if (verdict.conn != nullptr && decoded->is_tcp()) {
        const bool wan = !config.site.is_internal(verdict.conn->key.src) ||
                         !config.site.is_internal(verdict.conn->key.dst);
        if (verdict.keepalive_retx) {
          ++load.keepalive_excluded;
        } else {
          auto& pkts = wan ? load.wan_tcp_pkts : load.ent_tcp_pkts;
          auto& retx = wan ? load.wan_retx : load.ent_retx;
          ++pkts;
          if (verdict.tcp_retransmission) ++retx;
        }
      }
    }
    table->flush();
    out.load_raw.push_back(std::move(load));
    out.tables.push_back(std::move(table));
  }
  return out;
}

struct ScalingRun {
  std::string label;
  std::size_t threads = 0;
  std::uint64_t packets = 0;
  double seconds = 0.0;
  double pps = 0.0;
};

template <typename Fn>
ScalingRun time_run(const std::string& label, std::size_t threads, std::uint64_t packets,
                    int reps, const Fn& fn) {
  ScalingRun run{label, threads, packets, 0.0, 0.0};
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (r == 0 || s < best) best = s;
  }
  run.seconds = best;
  run.pps = best > 0 ? static_cast<double>(packets) / best : 0.0;
  return run;
}

using cli::env_double;
using cli::env_int;

// ---- peak-memory study ------------------------------------------------------

struct MemoryRun {
  std::string label;
  std::uint64_t packets = 0;
  double seconds = 0.0;
  std::uint64_t peak_rss_kb = 0;
  bool ok = false;
};

std::vector<MemoryRun> g_memory_runs;  // picked up by the JSON writer

#ifdef __unix__
// Run `workload` in a fork()ed child and report its wall time, packet count
// and peak RSS.  ru_maxrss is a process-lifetime high-water mark, so the
// only way to measure two workloads independently is to give each its own
// process; fork happens before any thread is created in this binary.
template <typename Fn>
MemoryRun measure_in_child(const std::string& label, const Fn& workload) {
  MemoryRun run;
  run.label = label;
  int fds[2];
  if (pipe(fds) != 0) return run;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return run;
  }
  if (pid == 0) {
    close(fds[0]);
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t packets = workload();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const std::uint64_t report[3] = {
        packets, static_cast<std::uint64_t>(seconds * 1e6),
        static_cast<std::uint64_t>(usage.ru_maxrss)};  // KB on Linux
    ssize_t written = write(fds[1], report, sizeof(report));
    (void)written;
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::uint64_t report[3] = {0, 0, 0};
  const ssize_t got = read(fds[0], report, sizeof(report));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got == sizeof(report) && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    run.packets = report[0];
    run.seconds = static_cast<double>(report[1]) / 1e6;
    run.peak_rss_kb = report[2];
    run.ok = true;
  }
  return run;
}
#endif  // __unix__

// Materialized vs streaming peak RSS on a scaled-up D1 (68-byte snaplen:
// the paper's biggest dataset by packet count).  The materialized path is
// what the seed pipeline did — generate the whole TraceSet, then analyze;
// the streaming path never holds more than one regeneration slice per
// analysis thread.
void run_memory_study() {
#ifdef __unix__
  // 0.05 puts D1 at ~4.5M packets: big enough that the materialized
  // TraceSet dominates RSS (a few GB) without risking the box.
  const double scale = env_double("ENTRACE_MEM_SCALE", 0.05);
  const int slices = env_int("ENTRACE_MEM_SLICES", 8);
  std::printf("---- peak memory: materialized vs streaming (D1, scale %.3f, %d slices) ----\n",
              scale, slices);

  const MemoryRun materialized = measure_in_child("materialized", [&]() -> std::uint64_t {
    EnterpriseModel model;
    const DatasetSpec spec = dataset_by_name("D1", scale);
    const AnalyzerConfig config = default_config_for_model(model.site());
    const TraceSet set = generate_dataset(spec, model);
    const DatasetAnalysis a = analyze_dataset(set, config);
    benchmark::DoNotOptimize(a.total_packets);
    return a.quality.packets_seen;
  });
  const MemoryRun streaming = measure_in_child("streaming", [&]() -> std::uint64_t {
    EnterpriseModel model;
    const DatasetSpec spec = dataset_by_name("D1", scale);
    const AnalyzerConfig config = default_config_for_model(model.site());
    const SyntheticTraceSourceSet sources(spec, model,
                                          {env_int("ENTRACE_MEM_SLICES", 8)});
    const DatasetAnalysis a = analyze_dataset(sources, config);
    benchmark::DoNotOptimize(a.total_packets);
    return a.quality.packets_seen;
  });

  for (const MemoryRun& r : {materialized, streaming}) {
    if (!r.ok) {
      std::printf("  %-14s measurement failed\n", r.label.c_str());
      continue;
    }
    std::printf("  %-14s %10llu packets  %8.2fs  %10llu KB peak RSS\n", r.label.c_str(),
                static_cast<unsigned long long>(r.packets), r.seconds,
                static_cast<unsigned long long>(r.peak_rss_kb));
  }
  if (materialized.ok && streaming.ok && streaming.peak_rss_kb > 0) {
    std::printf("  streaming peak RSS reduction: %.2fx\n",
                static_cast<double>(materialized.peak_rss_kb) /
                    static_cast<double>(streaming.peak_rss_kb));
  }
  g_memory_runs = {materialized, streaming};
#else
  std::printf("---- peak memory study skipped (no fork/getrusage) ----\n");
#endif
}

// ---- snapshot shard study ---------------------------------------------------

struct ShardRun {
  int shards = 0;
  double shard_seconds = 0.0;   // fork -> all .esnap files complete
  double decode_seconds = 0.0;  // read + validate every snapshot
  double merge_seconds = 0.0;   // fold_shards over the decoded shards
  std::uint64_t bytes = 0;      // total snapshot bytes across the files
  std::uint64_t packets = 0;
  bool ok = false;
};

struct SnapshotStudy {
  double scale = 0.0;
  std::size_t traces = 0;
  double encode_seconds = 0.0;  // SnapshotWriter over pre-analyzed shards
  std::uint64_t encode_bytes = 0;
  std::vector<ShardRun> runs;
};

SnapshotStudy g_snapshot_study;  // picked up by the JSON writer

// D1 analyzed by `shards` cooperating processes, each snapshotting its
// trace range, then decoded and folded here — the entrace_shard |
// entrace_merge pipeline as one measurement.  Children analyze with
// config.threads = 1 (ThreadPool inline mode spawns nothing), so fork()
// happens in a single-threaded process.
ShardRun run_sharded(const DatasetSpec& spec, const EnterpriseModel& model,
                     const AnalyzerConfig& config, int shards, const std::string& dir) {
  ShardRun run;
  run.shards = shards;
#ifdef __unix__
  const SyntheticTraceSourceSet sources(spec, model);
  const std::size_t n = sources.size();
  const snapshot::SnapshotMeta meta{spec.name, spec.scale,
                                    static_cast<std::uint32_t>(n)};
  std::vector<std::string> paths;
  std::vector<pid_t> pids;
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < shards; ++s) {
    const std::size_t lo = n * static_cast<std::size_t>(s) / static_cast<std::size_t>(shards);
    const std::size_t hi =
        n * static_cast<std::size_t>(s + 1) / static_cast<std::size_t>(shards);
    const std::string path = dir + "/shard" + std::to_string(s) + ".esnap";
    paths.push_back(path);
    const pid_t pid = fork();
    if (pid < 0) return run;
    if (pid == 0) {
      std::vector<TraceShard> out = analyze_trace_shards(sources, config, lo, hi);
      snapshot::SnapshotWriter writer(path, meta);
      for (std::size_t i = 0; i < out.size(); ++i) {
        writer.add_shard(static_cast<std::uint32_t>(lo + i), out[i]);
      }
      writer.close();
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return run;
  }
  run.shard_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto t1 = std::chrono::steady_clock::now();
  std::vector<snapshot::SnapshotShard> decoded;
  for (const std::string& path : paths) {
    snapshot::Snapshot snap = snapshot::read_snapshot(path);
    run.bytes += std::filesystem::file_size(path);
    for (auto& shard : snap.shards) decoded.push_back(std::move(shard));
  }
  run.decode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

  const auto t2 = std::chrono::steady_clock::now();
  std::vector<TraceShard> folded;
  folded.reserve(decoded.size());
  for (auto& shard : decoded) folded.push_back(std::move(shard.shard));
  const DatasetAnalysis analysis = fold_shards(spec.name, std::move(folded), config);
  run.merge_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t2).count();
  run.packets = analysis.quality.packets_seen;
  benchmark::DoNotOptimize(analysis.total_packets);
  for (const std::string& path : paths) std::filesystem::remove(path);
  run.ok = true;
#else
  (void)spec;
  (void)model;
  (void)config;
  (void)dir;
#endif
  return run;
}

void run_snapshot_study() {
#ifdef __unix__
  const double scale = env_double("ENTRACE_SNAP_SCALE", 0.02);
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D1", scale);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;  // per-process work stays single-threaded; processes scale
  const std::string dir =
      (std::filesystem::temp_directory_path() / "entrace_bench_esnap").string();
  std::filesystem::create_directories(dir);

  std::printf("---- snapshot shards: multi-process shard+merge (D1, scale %.3f) ----\n", scale);
  g_snapshot_study.scale = scale;

  // Pure-encode throughput, separated from analysis cost: analyze once in
  // this process (threads = 1 keeps it thread-free for the forks below),
  // then time only the SnapshotWriter pass.
  {
    const SyntheticTraceSourceSet sources(spec, model);
    g_snapshot_study.traces = sources.size();
    const std::vector<TraceShard> shards =
        analyze_trace_shards(sources, config, 0, sources.size());
    const std::string path = dir + "/encode.esnap";
    const auto t0 = std::chrono::steady_clock::now();
    snapshot::SnapshotWriter writer(
        path, {spec.name, spec.scale, static_cast<std::uint32_t>(sources.size())});
    for (std::size_t i = 0; i < shards.size(); ++i) {
      writer.add_shard(static_cast<std::uint32_t>(i), shards[i]);
    }
    writer.close();
    g_snapshot_study.encode_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    g_snapshot_study.encode_bytes = writer.bytes_written();
    std::filesystem::remove(path);
    std::printf("  encode: %.1f MB in %.3fs (%.1f MB/s)\n",
                static_cast<double>(g_snapshot_study.encode_bytes) / 1e6,
                g_snapshot_study.encode_seconds,
                g_snapshot_study.encode_seconds > 0
                    ? static_cast<double>(g_snapshot_study.encode_bytes) / 1e6 /
                          g_snapshot_study.encode_seconds
                    : 0.0);
  }

  for (const int shards : {1, 2, 4, 8}) {
    const ShardRun run = run_sharded(spec, model, config, shards, dir);
    if (!run.ok) {
      std::printf("  %d shard(s): measurement failed\n", shards);
      continue;
    }
    g_snapshot_study.runs.push_back(run);
    const double total = run.shard_seconds + run.decode_seconds + run.merge_seconds;
    const double mb = static_cast<double>(run.bytes) / 1e6;
    std::printf(
        "  %d shard(s): analyze+encode %6.2fs, decode %5.3fs (%6.1f MB/s), merge %5.3fs"
        "  -> total %6.2fs\n",
        shards, run.shard_seconds, run.decode_seconds,
        run.decode_seconds > 0 ? mb / run.decode_seconds : 0.0, run.merge_seconds, total);
  }
  if (g_snapshot_study.runs.size() > 1) {
    const ShardRun& one = g_snapshot_study.runs.front();
    const ShardRun& best = *std::min_element(
        g_snapshot_study.runs.begin(), g_snapshot_study.runs.end(),
        [](const ShardRun& a, const ShardRun& b) {
          return a.shard_seconds + a.decode_seconds + a.merge_seconds <
                 b.shard_seconds + b.decode_seconds + b.merge_seconds;
        });
    std::printf("  best: %d shards, %.2fx vs 1 process (%llu packets, %.1f MB of snapshots)\n",
                best.shards,
                (one.shard_seconds + one.decode_seconds + one.merge_seconds) /
                    (best.shard_seconds + best.decode_seconds + best.merge_seconds),
                static_cast<unsigned long long>(one.packets),
                static_cast<double>(one.bytes) / 1e6);
  }
  std::filesystem::remove_all(dir);
#else
  std::printf("---- snapshot shard study skipped (no fork) ----\n");
#endif
}

// ---- telemetry overhead study -----------------------------------------------

// Cost of the obs metrics layer on the D1 throughput workload:
// analyze_dataset with collect_metrics on vs off over the streaming
// sources, best of ENTRACE_BENCH_REPS.  Budget: <= 2% (EXPERIMENTS.md).
struct TelemetryStudy {
  double scale = 0.0;
  std::uint64_t packets = 0;
  double on_seconds = 0.0;
  double off_seconds = 0.0;
  double overhead_pct = 0.0;
  bool ok = false;
};

TelemetryStudy g_telemetry_study;  // picked up by the JSON writer

void run_telemetry_overhead() {
  const double scale = env_double("ENTRACE_TELEMETRY_SCALE", 0.02);
  const int reps = env_int("ENTRACE_BENCH_REPS", 3);
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D1", scale);
  const SyntheticTraceSourceSet sources(spec, model);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;  // serial: per-packet metric cost is not hidden by idle cores

  std::printf("---- telemetry overhead: collect_metrics on vs off (D1, scale %.3f) ----\n",
              scale);
  // Interleave on/off reps (off, on, off, on, ...) and keep the best of
  // each: run-to-run noise on a shared box exceeds the signal, and
  // interleaving keeps slow drift from landing entirely on one side.
  std::uint64_t packets = 0;
  double best_off = 0.0, best_on = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const bool collect : {false, true}) {
      config.collect_metrics = collect;
      const auto start = std::chrono::steady_clock::now();
      const DatasetAnalysis a = analyze_dataset(sources, config);
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      packets = a.quality.packets_seen;
      benchmark::DoNotOptimize(a.total_packets);
      double& best = collect ? best_on : best_off;
      if (r == 0 || s < best) best = s;
    }
  }

  g_telemetry_study.scale = scale;
  g_telemetry_study.packets = packets;
  g_telemetry_study.on_seconds = best_on;
  g_telemetry_study.off_seconds = best_off;
  g_telemetry_study.overhead_pct =
      best_off > 0 ? (best_on - best_off) / best_off * 100.0 : 0.0;
  g_telemetry_study.ok = true;
  std::printf("  off %8.3fs  on %8.3fs  overhead %+.2f%%  (%llu packets, budget <= 2%%)\n",
              best_off, best_on, g_telemetry_study.overhead_pct,
              static_cast<unsigned long long>(packets));
}

// ---- batch-size study -------------------------------------------------------

// One interleaved batch-size sweep through analyze_trace's one ingest loop:
// batch@1 (one packet per next_batch call) is the baseline the larger sizes
// are compared with, alternating configurations within every repetition so
// load drift hits all of them equally.  Stage attribution
// comes from the analyzer's own obs::stage_timer recordings
// (stage.batch.{source,decode,tally,flow}.seconds, folded across shards).
struct BatchRun {
  std::size_t batch_size = 0;
  double seconds = 0.0;
  double pps = 0.0;
  double source_s = 0.0, decode_s = 0.0, tally_s = 0.0, flow_s = 0.0;
};

struct BatchStudy {
  double scale = 0.0;
  int reps = 0;
  std::uint64_t packets = 0;
  std::vector<BatchRun> runs;  // runs.front() is the batch@1 baseline
  bool ok = false;
};

BatchStudy g_batch_study;  // picked up by the JSON writer

double stage_gauge(const obs::Registry& reg, const char* name) {
  const obs::Metric* m = reg.find(name);
  return m != nullptr && m->kind == obs::MetricKind::kGauge ? m->gauge.value() : 0.0;
}

void run_batch_study(double scale, int reps) {
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D3", scale);
  const TraceSet set = generate_dataset(spec, model);
  const std::uint64_t packets = set.total_packets();
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;

  std::vector<std::size_t> sizes = {1, 16, 64, 256, 1024};
  std::vector<BatchRun> runs(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) runs[i].batch_size = sizes[i];

  std::printf("---- batch sizes (D3, scale %.3f, %llu packets, interleaved best of %d) ----\n",
              scale, static_cast<unsigned long long>(packets), reps);
  // Interleave: every rep visits every configuration once before any
  // configuration repeats, so a slow machine moment cannot flatter one side.
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      config.batch_size = sizes[i];
      const auto start = std::chrono::steady_clock::now();
      const DatasetAnalysis a = analyze_dataset(set, config);
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      benchmark::DoNotOptimize(a.total_packets);
      if (r == 0 || s < runs[i].seconds) {
        runs[i].seconds = s;
        runs[i].source_s = stage_gauge(a.metrics, "stage.batch.source.seconds");
        runs[i].decode_s = stage_gauge(a.metrics, "stage.batch.decode.seconds");
        runs[i].tally_s = stage_gauge(a.metrics, "stage.batch.tally.seconds");
        runs[i].flow_s = stage_gauge(a.metrics, "stage.batch.flow.seconds");
      }
    }
  }
  for (BatchRun& r : runs) {
    r.pps = r.seconds > 0 ? static_cast<double>(packets) / r.seconds : 0.0;
  }

  g_batch_study.scale = scale;
  g_batch_study.reps = reps;
  g_batch_study.packets = packets;
  g_batch_study.runs = runs;
  g_batch_study.ok = true;

  for (const BatchRun& r : runs) {
    std::printf(
        "  batch@%-6zu %8.3fs  %12.0f pps  (%.2fx vs batch@1; stages src %.3f dec %.3f tly %.3f flw %.3f)\n",
        r.batch_size, r.seconds, r.pps, runs.front().seconds / r.seconds, r.source_s,
        r.decode_s, r.tally_s, r.flow_s);
  }
}

// ---- orchestration study ----------------------------------------------------

// Cost of fault-tolerant supervision (src/orchestrate): a D0 fault-rate
// sweep at 0% / 10% / 20% per-attempt injection (the rate split evenly
// across crash/hang/truncate/corrupt) against an in-process direct
// analysis.  The 0%-row's delta over direct is the pure orchestration
// overhead (subprocess spawn + snapshot encode/decode + validation); the
// injected rows show what recovery costs in retries and wall clock.
struct OrchestrateRun {
  double fault_rate = 0.0;
  double seconds = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t faults = 0;
  bool complete = false;
};

struct OrchestrateStudy {
  double scale = 0.0;
  std::size_t workers = 0;
  double direct_seconds = 0.0;
  std::vector<OrchestrateRun> runs;
  bool ok = false;
};

OrchestrateStudy g_orchestrate_study;  // picked up by the JSON writer

void run_orchestrate_study() {
  const double scale = env_double("ENTRACE_ORCH_SCALE", 0.01);
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D0", scale);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "entrace_bench_orch").string();

  std::printf("---- orchestration overhead + recovery (D0, scale %.3f, 4 workers) ----\n", scale);

  const SyntheticTraceSourceSet sources(spec, model);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<TraceShard> shards = analyze_trace_shards(sources, config, 0, sources.size());
    const DatasetAnalysis a = fold_shards(spec.name, std::move(shards), config);
    benchmark::DoNotOptimize(a.total_packets);
  }
  g_orchestrate_study.direct_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  g_orchestrate_study.scale = scale;
  g_orchestrate_study.workers = 4;
  std::printf("  direct (in-process, 1 thread): %6.2fs\n", g_orchestrate_study.direct_seconds);

  for (const double rate : {0.0, 0.1, 0.2}) {
    orchestrate::OrchestratorConfig oc;
    oc.dataset = spec.name;
    oc.scale = scale;
    oc.workers = 4;
    oc.jobs = 8;  // more, smaller jobs: more per-attempt fault draws per run
    oc.shard_binary = ENTRACE_SHARD_BIN;
    oc.work_dir = dir;
    oc.retry.max_attempts = 10;  // generous: every job must eventually succeed
    oc.retry.base_delay = 0.02;
    oc.attempt_deadline = 30.0 * std::max(scale / 0.01, 1.0);
    oc.inject.crash = oc.inject.hang = rate / 4.0;
    oc.inject.truncate = oc.inject.corrupt = rate / 4.0;
    oc.inject.seed = 17;
    const auto t1 = std::chrono::steady_clock::now();
    orchestrate::OrchestrateResult result;
    try {
      result = orchestrate::orchestrate(oc);
    } catch (const std::exception& e) {
      std::printf("  fault rate %.0f%%: measurement failed (%s)\n", rate * 100, e.what());
      std::filesystem::remove_all(dir);
      return;
    }
    OrchestrateRun run;
    run.fault_rate = rate;
    run.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
    run.attempts = result.attempts;
    run.retries = result.retries;
    run.faults = result.fault_counts.total_faults();
    run.complete = result.complete;
    g_orchestrate_study.runs.push_back(run);
    std::printf(
        "  fault rate %3.0f%%: %6.2fs (%.2fx vs direct), %llu attempts, %llu retries%s\n",
        rate * 100, run.seconds,
        g_orchestrate_study.direct_seconds > 0
            ? run.seconds / g_orchestrate_study.direct_seconds
            : 0.0,
        static_cast<unsigned long long>(run.attempts),
        static_cast<unsigned long long>(run.retries),
        run.complete ? "" : "  [INCOMPLETE]");
  }
  g_orchestrate_study.ok = !g_orchestrate_study.runs.empty();
  std::filesystem::remove_all(dir);
}

// ---- cluster dispatch study -------------------------------------------------

// Network-hop cost of the cluster layer (src/cluster): the same dataset
// dispatched over 1/2/4 loopback workers at 0/10/20% injected network
// faults (refuse/disconnect/corrupt-frame/hang in equal shares).  Workers
// are in-process WorkerServer threads on real TCP sockets, so the study
// prices framing + streaming + validation + retry, not process spawning.
struct ClusterRun {
  std::size_t workers = 0;
  double fault_rate = 0.0;
  double seconds = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t faults = 0;
  bool complete = false;
};

struct ClusterStudy {
  double scale = 0.0;
  double direct_seconds = 0.0;
  std::vector<ClusterRun> runs;
  bool ok = false;
};

ClusterStudy g_cluster_study;  // picked up by the JSON writer

void run_cluster_study() {
  const double scale = env_double("ENTRACE_CLUSTER_SCALE", 0.01);
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D0", scale);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;

  std::printf("---- cluster dispatch (D0, scale %.3f, loopback workers) ----\n", scale);

  const SyntheticTraceSourceSet sources(spec, model);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<TraceShard> shards = analyze_trace_shards(sources, config, 0, sources.size());
    const DatasetAnalysis a = fold_shards(spec.name, std::move(shards), config);
    benchmark::DoNotOptimize(a.total_packets);
  }
  g_cluster_study.direct_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  g_cluster_study.scale = scale;
  std::printf("  direct (in-process, 1 thread): %6.2fs\n", g_cluster_study.direct_seconds);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::unique_ptr<cluster::WorkerServer>> servers;
    std::vector<std::thread> threads;
    std::vector<std::string> endpoints;
    try {
      for (std::size_t i = 0; i < workers; ++i) {
        cluster::WorkerConfig wc;
        wc.name = "bench-w" + std::to_string(i);
        servers.push_back(std::make_unique<cluster::WorkerServer>(wc));
        endpoints.push_back("127.0.0.1:" + std::to_string(servers.back()->port()));
      }
    } catch (const std::exception& e) {
      std::printf("  %zu workers: cannot bind loopback sockets (%s)\n", workers, e.what());
      return;
    }
    for (auto& server : servers) {
      threads.emplace_back([&server] { server->serve(); });
    }

    for (const double rate : {0.0, 0.1, 0.2}) {
      cluster::ClusterConfig cc;
      cc.dataset = spec.name;
      cc.scale = scale;
      cc.endpoints = endpoints;
      cc.jobs = 8;  // more, smaller jobs: more per-attempt fault draws per run
      cc.retry.max_attempts = 10;  // generous: every job must eventually succeed
      cc.retry.base_delay = 0.02;
      cc.retry.max_delay = 0.5;
      cc.heartbeat_interval = 0.05;
      cc.heartbeat_deadline = 2.0;  // injected hangs pay this per draw
      cc.inject.refuse = cc.inject.disconnect = rate / 4.0;
      cc.inject.corrupt = cc.inject.hang = rate / 4.0;
      cc.inject.seed = 17;
      const auto t1 = std::chrono::steady_clock::now();
      orchestrate::OrchestrateResult result;
      try {
        result = cluster::run_cluster(cc);
      } catch (const std::exception& e) {
        std::printf("  %zu workers, fault rate %.0f%%: measurement failed (%s)\n", workers,
                    rate * 100, e.what());
        for (auto& server : servers) server->stop();
        for (auto& thread : threads) thread.join();
        return;
      }
      ClusterRun run;
      run.workers = workers;
      run.fault_rate = rate;
      run.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
      run.attempts = result.attempts;
      run.retries = result.retries;
      run.faults = result.fault_counts.total_faults();
      run.complete = result.complete;
      g_cluster_study.runs.push_back(run);
      std::printf(
          "  %zu workers, fault rate %3.0f%%: %6.2fs (%.2fx vs direct), %llu attempts, "
          "%llu retries%s\n",
          workers, rate * 100, run.seconds,
          g_cluster_study.direct_seconds > 0 ? run.seconds / g_cluster_study.direct_seconds
                                             : 0.0,
          static_cast<unsigned long long>(run.attempts),
          static_cast<unsigned long long>(run.retries),
          run.complete ? "" : "  [INCOMPLETE]");
    }

    for (auto& server : servers) server->stop();
    for (auto& thread : threads) thread.join();
  }
  g_cluster_study.ok = !g_cluster_study.runs.empty();
}

// ---- daemon steady-state study ----------------------------------------------

// Continuous-operation cost of the windowed engine (core/incremental.h) in
// the daemon's own loop shape: merged time-ordered replay -> feed -> rotate
// at window boundaries -> .esnap checkpoint -> retention aging, with flow
// eviction and slot reclaim on.  Swept over window counts (coarse to fine
// rotation) with reps interleaved across configurations; per configuration:
// sustained ingest pps (best rep), the peak resident set sampled at each
// rotation, and the rotation stall — the wall pause a rotate + checkpoint +
// age cycle inflicts on the ingest loop (max and mean).
struct DaemonRun {
  std::size_t target_windows = 0;
  std::uint64_t windows = 0;
  double seconds = 0.0;
  double pps = 0.0;
  double max_stall_s = 0.0;
  double mean_stall_s = 0.0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t evicted = 0;
  std::uint64_t drained = 0;
};

struct DaemonStudy {
  double scale = 0.0;
  int reps = 0;
  std::uint64_t packets = 0;
  std::vector<DaemonRun> runs;
  bool ok = false;
};

DaemonStudy g_daemon_study;  // picked up by the JSON writer

std::uint64_t sample_rss_kb() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages_total = 0, pages_resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0;
  return pages_resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) / 1024;
#else
  return 0;
#endif
}

void run_daemon_study() {
  const double scale = env_double("ENTRACE_DAEMON_SCALE", 0.02);
  const int reps = env_int("ENTRACE_BENCH_REPS", 3);
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D3", scale);
  const TraceSet set = generate_dataset(spec, model);
  const std::uint64_t packets = set.total_packets();
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;  // serial: rotation stalls are not hidden by idle workers

  // Window widths derive from the merged-timeline span so the sweep holds
  // its target rotation counts at any scale.
  double span = 0.0;
  {
    const MergedPacketStream probe = merged_stream(set);
    double lo = 1e300, hi = -1e300;
    for (std::size_t i = 0; i < probe.source_count(); ++i) {
      const TraceMeta& m = probe.source(i).meta();
      lo = std::min(lo, m.start_ts);
      hi = std::max(hi, m.start_ts + m.duration);
    }
    span = hi - lo;
  }
  if (span <= 0.0 || packets == 0) return;

  const std::size_t window_counts[] = {8, 32, 128};
  std::vector<DaemonRun> runs(std::size(window_counts));
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i].target_windows = window_counts[i];
  const std::string dir =
      (std::filesystem::temp_directory_path() / "entrace_bench_daemon").string();

  std::printf(
      "---- daemon steady state (D3, scale %.3f, %llu packets, interleaved best of %d) ----\n",
      scale, static_cast<unsigned long long>(packets), reps);
  // Interleave reps across window configurations, same rationale as the
  // batch study: load drift must not land entirely on one configuration.
  for (int r = 0; r < reps; ++r) {
    for (DaemonRun& out : runs) {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      MergedPacketStream stream = merged_stream(set);
      std::vector<TraceMeta> metas;
      for (std::size_t s = 0; s < stream.source_count(); ++s) {
        metas.push_back(stream.source(s).meta());
      }
      IncrementalOptions opts;
      opts.window_seconds = span / static_cast<double>(out.target_windows);
      opts.evict = true;
      opts.reclaim = true;
      IncrementalAnalyzer analyzer(std::move(metas), config, opts);
      snapshot::RetentionManager retention(dir, 4);
      const snapshot::SnapshotMeta meta{spec.name, scale,
                                        static_cast<std::uint32_t>(set.traces.size())};

      using clock = std::chrono::steady_clock;
      double stall_total = 0.0, stall_max = 0.0;
      std::uint64_t rss_peak = 0;
      const auto checkpoint = [&](WindowShard&& w) {
        const auto s0 = clock::now();
        const std::string path = dir + "/" + snapshot::window_file_name(w.index);
        snapshot::WindowSummary sum;
        sum.index = w.index;
        sum.start_ts = w.start_ts;
        sum.end_ts = w.end_ts;
        for (const TraceShard& shard : w.shards) sum.packets += shard.total_packets;
        sum.snapshot_bytes = snapshot::write_window_snapshot(path, meta, w);
        retention.add_window(sum, path);
        const double stall = std::chrono::duration<double>(clock::now() - s0).count();
        stall_total += stall;
        stall_max = std::max(stall_max, stall);
        rss_peak = std::max(rss_peak, sample_rss_kb());
      };

      std::vector<PacketView> views(256);
      const auto t0 = clock::now();
      for (;;) {
        const std::size_t got = stream.next_batch(views.data(), views.size());
        if (got == 0) break;
        analyzer.feed(views.data(), got);
        while (analyzer.window_complete()) checkpoint(analyzer.rotate());
      }
      checkpoint(analyzer.finish(&stream));
      const double seconds = std::chrono::duration<double>(clock::now() - t0).count();

      if (r == 0 || seconds < out.seconds) {
        out.windows = analyzer.windows_rotated();
        out.seconds = seconds;
        out.pps = seconds > 0 ? static_cast<double>(packets) / seconds : 0.0;
        out.max_stall_s = stall_max;
        out.mean_stall_s =
            analyzer.windows_rotated() > 0
                ? stall_total / static_cast<double>(analyzer.windows_rotated())
                : 0.0;
        out.peak_rss_kb = rss_peak;
        out.evicted = analyzer.evicted_total();
        out.drained = analyzer.drained_total();
      }
    }
  }
  std::filesystem::remove_all(dir);

  for (const DaemonRun& r : runs) {
    std::printf(
        "  windows@%-4zu %8.3fs  %12.0f pps  (rotated %llu, stall max %.4fs mean %.4fs, "
        "peak rss %llu KB, evicted %llu)\n",
        r.target_windows, r.seconds, r.pps, static_cast<unsigned long long>(r.windows),
        r.max_stall_s, r.mean_stall_s, static_cast<unsigned long long>(r.peak_rss_kb),
        static_cast<unsigned long long>(r.evicted));
  }

  g_daemon_study.scale = scale;
  g_daemon_study.reps = reps;
  g_daemon_study.packets = packets;
  g_daemon_study.runs = runs;
  g_daemon_study.ok = true;
}

// ---- retention tiering study ------------------------------------------------

// What the sketch tiers cost at the daemon's default geometry: the same
// ~128-window replay aged through keep_full 4 with sketching on
// (sketch_every 8 — tier-1/2 folds run inside the rotation path) versus
// off (summary-only aging, the pre-sketch scheme).  Per mode: sustained
// ingest pps, the rotation stall the fold inflicts (max and mean), fold
// count, and the peak bytes retained on disk across the run — the number
// that shows sketching buys full-history /report coverage for bounded disk.
struct RetentionRun {
  bool sketches = false;
  std::uint64_t windows = 0;
  double seconds = 0.0;
  double pps = 0.0;
  double max_stall_s = 0.0;
  double mean_stall_s = 0.0;
  std::uint64_t folds = 0;
  std::uint64_t peak_retained_bytes = 0;
  std::uint64_t final_retained_bytes = 0;
  std::uint64_t final_esnap_files = 0;
};

struct RetentionStudy {
  double scale = 0.0;
  int reps = 0;
  std::uint64_t packets = 0;
  std::size_t keep_full = 0;
  std::size_t sketch_every = 0;
  std::vector<RetentionRun> runs;
  bool ok = false;
};

RetentionStudy g_retention_study;  // picked up by the JSON writer

void run_retention_study() {
  const double scale = env_double("ENTRACE_DAEMON_SCALE", 0.02);
  const int reps = env_int("ENTRACE_BENCH_REPS", 3);
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D3", scale);
  const TraceSet set = generate_dataset(spec, model);
  const std::uint64_t packets = set.total_packets();
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;  // serial: fold stalls are not hidden by idle workers

  double span = 0.0;
  {
    const MergedPacketStream probe = merged_stream(set);
    double lo = 1e300, hi = -1e300;
    for (std::size_t i = 0; i < probe.source_count(); ++i) {
      const TraceMeta& m = probe.source(i).meta();
      lo = std::min(lo, m.start_ts);
      hi = std::max(hi, m.start_ts + m.duration);
    }
    span = hi - lo;
  }
  if (span <= 0.0 || packets == 0) return;

  constexpr std::size_t kKeepFull = 4;
  constexpr std::size_t kSketchEvery = 8;
  constexpr std::size_t kTargetWindows = 128;
  std::vector<RetentionRun> runs(2);
  runs[0].sketches = false;
  runs[1].sketches = true;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "entrace_bench_retention").string();

  std::printf(
      "---- retention tiering (D3, scale %.3f, %llu packets, ~%zu windows, retain %zu, "
      "sketch-every %zu, interleaved best of %d) ----\n",
      scale, static_cast<unsigned long long>(packets), kTargetWindows, kKeepFull, kSketchEvery,
      reps);
  for (int r = 0; r < reps; ++r) {
    for (RetentionRun& out : runs) {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      MergedPacketStream stream = merged_stream(set);
      std::vector<TraceMeta> metas;
      for (std::size_t s = 0; s < stream.source_count(); ++s) {
        metas.push_back(stream.source(s).meta());
      }
      IncrementalOptions opts;
      opts.window_seconds = span / static_cast<double>(kTargetWindows);
      opts.evict = true;
      opts.reclaim = true;
      IncrementalAnalyzer analyzer(std::move(metas), config, opts);
      const snapshot::SnapshotMeta meta{spec.name, scale,
                                        static_cast<std::uint32_t>(set.traces.size())};
      std::unique_ptr<snapshot::RetentionManager> retention;
      if (out.sketches) {
        snapshot::RetentionOptions ropts;
        ropts.keep_full = kKeepFull;
        ropts.sketch_every = kSketchEvery;
        retention = std::make_unique<snapshot::RetentionManager>(dir, ropts, config, meta);
      } else {
        retention = std::make_unique<snapshot::RetentionManager>(dir, kKeepFull);
      }

      using clock = std::chrono::steady_clock;
      double stall_total = 0.0, stall_max = 0.0;
      std::uint64_t peak_bytes = 0;
      const auto checkpoint = [&](WindowShard&& w) {
        const auto s0 = clock::now();
        const std::string path = dir + "/" + snapshot::window_file_name(w.index);
        snapshot::WindowSummary sum = snapshot::summarize_window(w);
        sum.snapshot_bytes = snapshot::write_window_snapshot(path, meta, w);
        retention->add_window(sum, path);
        const double stall = std::chrono::duration<double>(clock::now() - s0).count();
        stall_total += stall;
        stall_max = std::max(stall_max, stall);
        peak_bytes = std::max(peak_bytes, retention->bytes_retained());
      };

      std::vector<PacketView> views(256);
      const auto t0 = clock::now();
      for (;;) {
        const std::size_t got = stream.next_batch(views.data(), views.size());
        if (got == 0) break;
        analyzer.feed(views.data(), got);
        while (analyzer.window_complete()) checkpoint(analyzer.rotate());
      }
      checkpoint(analyzer.finish(&stream));
      const double seconds = std::chrono::duration<double>(clock::now() - t0).count();

      if (r == 0 || seconds < out.seconds) {
        out.windows = analyzer.windows_rotated();
        out.seconds = seconds;
        out.pps = seconds > 0 ? static_cast<double>(packets) / seconds : 0.0;
        out.max_stall_s = stall_max;
        out.mean_stall_s =
            analyzer.windows_rotated() > 0
                ? stall_total / static_cast<double>(analyzer.windows_rotated())
                : 0.0;
        out.folds = retention->sketch_folds();
        out.peak_retained_bytes = peak_bytes;
        out.final_retained_bytes = retention->bytes_retained();
        std::uint64_t esnaps = 0;
        for (const auto& e : std::filesystem::directory_iterator(dir)) {
          if (e.path().extension() == ".esnap") ++esnaps;
        }
        out.final_esnap_files = esnaps;
      }
    }
  }
  std::filesystem::remove_all(dir);

  for (const RetentionRun& r : runs) {
    std::printf(
        "  sketches=%-3s %8.3fs  %12.0f pps  (rotated %llu, stall max %.4fs mean %.4fs, "
        "folds %llu, peak retained %llu KB, final %llu KB in %llu esnaps)\n",
        r.sketches ? "on" : "off", r.seconds, r.pps,
        static_cast<unsigned long long>(r.windows), r.max_stall_s, r.mean_stall_s,
        static_cast<unsigned long long>(r.folds),
        static_cast<unsigned long long>(r.peak_retained_bytes / 1024),
        static_cast<unsigned long long>(r.final_retained_bytes / 1024),
        static_cast<unsigned long long>(r.final_esnap_files));
  }

  g_retention_study.scale = scale;
  g_retention_study.reps = reps;
  g_retention_study.packets = packets;
  g_retention_study.keep_full = kKeepFull;
  g_retention_study.sketch_every = kSketchEvery;
  g_retention_study.runs = runs;
  g_retention_study.ok = true;
}

void run_pipeline_scaling() {
  const double scale = benchutil::env_scale();
  const int reps = env_int("ENTRACE_BENCH_REPS", 3);
  EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name("D3", scale);
  const TraceSet set = generate_dataset(spec, model);
  const std::uint64_t packets = set.total_packets();
  AnalyzerConfig config = default_config_for_model(model.site());

  std::printf("---- pipeline scaling (D3, scale %.3f, %llu packets over %zu traces, best of %d) ----\n",
              scale, static_cast<unsigned long long>(packets), set.traces.size(), reps);

  // Serial win first: seed two-pass double-decode vs fused single-decode.
  const ScalingRun baseline = time_run("twopass-serial", 1, packets, reps, [&] {
    const DatasetAnalysis a = analyze_dataset_twopass_baseline(set, config);
    benchmark::DoNotOptimize(a.total_packets);
  });
  std::printf("  %-16s %8.3fs  %12.0f pps  (seed baseline: 2 decode passes)\n",
              baseline.label.c_str(), baseline.seconds, baseline.pps);

  std::set<std::size_t> counts = {1, 2, 4, ThreadPool::env_thread_count()};
  std::vector<ScalingRun> runs;
  for (const std::size_t t : counts) {
    config.threads = t;
    runs.push_back(time_run("fused@" + std::to_string(t), t, packets, reps, [&] {
      const DatasetAnalysis a = analyze_dataset(set, config);
      benchmark::DoNotOptimize(a.total_packets);
    }));
    const ScalingRun& r = runs.back();
    // Per-thread efficiency: fraction of the 1-thread rate each extra
    // thread contributes (1.0 = perfect scaling).  On a single-core host
    // every t > 1 run reports efficiency ~1/t — threads only add job
    // scheduling overhead, so the 1-thread configuration is the crossover.
    const double eff =
        runs.front().pps > 0 ? r.pps / (static_cast<double>(t) * runs.front().pps) : 0.0;
    std::printf("  %-16s %8.3fs  %12.0f pps  (%.2fx vs baseline, eff %.2f)\n",
                r.label.c_str(), r.seconds, r.pps, baseline.seconds / r.seconds, eff);
  }
  std::printf("  single-decode fusion speedup (1 thread): %.2fx\n",
              baseline.seconds / runs.front().seconds);
  const auto fastest =
      std::min_element(runs.begin(), runs.end(),
                       [](const ScalingRun& a, const ScalingRun& b) { return a.seconds < b.seconds; });
  std::printf("  thread crossover: fastest configuration is %s (per-trace jobs on %u hardware threads)\n",
              fastest->label.c_str(), std::thread::hardware_concurrency());

  FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"benchmark\": \"pipeline_scaling\",\n");
    std::fprintf(json, "  \"dataset\": \"D3\",\n  \"scale\": %.4f,\n  \"reps\": %d,\n", scale,
                 reps);
    std::fprintf(json,
                 "  \"baseline_twopass\": {\"threads\": 1, \"packets\": %llu, \"seconds\": "
                 "%.6f, \"pps\": %.1f},\n",
                 static_cast<unsigned long long>(baseline.packets), baseline.seconds,
                 baseline.pps);
    std::fprintf(json, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const double eff = runs.front().pps > 0
                             ? runs[i].pps / (static_cast<double>(runs[i].threads) *
                                              runs.front().pps)
                             : 0.0;
      std::fprintf(json,
                   "    {\"threads\": %zu, \"packets\": %llu, \"seconds\": %.6f, \"pps\": "
                   "%.1f, \"efficiency_vs_1t\": %.3f}%s\n",
                   runs[i].threads, static_cast<unsigned long long>(runs[i].packets),
                   runs[i].seconds, runs[i].pps, eff, i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
    // Batch-size study (see run_batch_study): interleaved reps, stage
    // seconds from the analyzer's obs::stage_timer.
    if (g_batch_study.ok) {
      std::fprintf(json,
                   "  \"batch\": {\n    \"dataset\": \"D3\",\n    \"scale\": %.4f,\n"
                   "    \"reps\": %d,\n    \"interleaved\": true,\n    \"packets\": %llu,\n",
                   g_batch_study.scale, g_batch_study.reps,
                   static_cast<unsigned long long>(g_batch_study.packets));
      const std::vector<BatchRun>& runs = g_batch_study.runs;
      std::fprintf(json, "    \"sweep\": [\n");
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const BatchRun& r = runs[i];
        std::fprintf(json,
                     "      {\"batch_size\": %zu, \"seconds\": %.6f, \"pps\": %.1f, "
                     "\"speedup_vs_batch1\": %.3f, \"stages\": {\"source\": %.6f, "
                     "\"decode\": %.6f, \"tally\": %.6f, \"flow\": %.6f}}%s\n",
                     r.batch_size, r.seconds, r.pps,
                     r.seconds > 0 ? runs.front().seconds / r.seconds : 0.0, r.source_s,
                     r.decode_s, r.tally_s, r.flow_s, i + 1 < runs.size() ? "," : "");
      }
      std::fprintf(json, "    ]\n  },\n");
    }
    // Peak-RSS study results (see run_memory_study; empty on platforms
    // without fork/getrusage).
    std::fprintf(json, "  \"memory\": [\n");
    for (std::size_t i = 0; i < g_memory_runs.size(); ++i) {
      const MemoryRun& r = g_memory_runs[i];
      std::fprintf(
          json,
          "    {\"label\": \"%s\", \"packets\": %llu, \"seconds\": %.3f, \"peak_rss_kb\": %llu}%s\n",
          r.label.c_str(), static_cast<unsigned long long>(r.packets), r.seconds,
          static_cast<unsigned long long>(r.peak_rss_kb),
          i + 1 < g_memory_runs.size() ? "," : "");
    }
    if (g_memory_runs.size() == 2 && g_memory_runs[0].ok && g_memory_runs[1].ok &&
        g_memory_runs[1].peak_rss_kb > 0) {
      std::fprintf(json, "  ],\n  \"memory_rss_reduction\": %.2f,\n",
                   static_cast<double>(g_memory_runs[0].peak_rss_kb) /
                       static_cast<double>(g_memory_runs[1].peak_rss_kb));
    } else {
      std::fprintf(json, "  ],\n");
    }
    // Telemetry overhead study (see run_telemetry_overhead).
    if (g_telemetry_study.ok) {
      std::fprintf(json,
                   "  \"telemetry\": {\"dataset\": \"D1\", \"scale\": %.4f, \"packets\": %llu, "
                   "\"metrics_off_seconds\": %.6f, \"metrics_on_seconds\": %.6f, "
                   "\"overhead_pct\": %.2f, \"budget_pct\": 2.0},\n",
                   g_telemetry_study.scale,
                   static_cast<unsigned long long>(g_telemetry_study.packets),
                   g_telemetry_study.off_seconds, g_telemetry_study.on_seconds,
                   g_telemetry_study.overhead_pct);
    }
    // Orchestration study (see run_orchestrate_study).
    if (g_orchestrate_study.ok) {
      std::fprintf(json,
                   "  \"orchestrate\": {\n    \"dataset\": \"D0\",\n    \"scale\": %.4f,\n"
                   "    \"workers\": %zu,\n    \"direct_seconds\": %.4f,\n    \"runs\": [\n",
                   g_orchestrate_study.scale, g_orchestrate_study.workers,
                   g_orchestrate_study.direct_seconds);
      for (std::size_t i = 0; i < g_orchestrate_study.runs.size(); ++i) {
        const OrchestrateRun& r = g_orchestrate_study.runs[i];
        std::fprintf(json,
                     "      {\"fault_rate\": %.2f, \"seconds\": %.4f, "
                     "\"overhead_vs_direct\": %.3f, \"attempts\": %llu, \"retries\": %llu, "
                     "\"faults\": %llu, \"complete\": %s}%s\n",
                     r.fault_rate, r.seconds,
                     g_orchestrate_study.direct_seconds > 0
                         ? r.seconds / g_orchestrate_study.direct_seconds
                         : 0.0,
                     static_cast<unsigned long long>(r.attempts),
                     static_cast<unsigned long long>(r.retries),
                     static_cast<unsigned long long>(r.faults),
                     r.complete ? "true" : "false",
                     i + 1 < g_orchestrate_study.runs.size() ? "," : "");
      }
      std::fprintf(json, "    ]\n  },\n");
    }
    // Cluster dispatch study (see run_cluster_study).
    if (g_cluster_study.ok) {
      std::fprintf(json,
                   "  \"cluster\": {\n    \"dataset\": \"D0\",\n    \"scale\": %.4f,\n"
                   "    \"direct_seconds\": %.4f,\n    \"runs\": [\n",
                   g_cluster_study.scale, g_cluster_study.direct_seconds);
      for (std::size_t i = 0; i < g_cluster_study.runs.size(); ++i) {
        const ClusterRun& r = g_cluster_study.runs[i];
        std::fprintf(json,
                     "      {\"workers\": %zu, \"fault_rate\": %.2f, \"seconds\": %.4f, "
                     "\"overhead_vs_direct\": %.3f, \"attempts\": %llu, \"retries\": %llu, "
                     "\"faults\": %llu, \"complete\": %s}%s\n",
                     r.workers, r.fault_rate, r.seconds,
                     g_cluster_study.direct_seconds > 0
                         ? r.seconds / g_cluster_study.direct_seconds
                         : 0.0,
                     static_cast<unsigned long long>(r.attempts),
                     static_cast<unsigned long long>(r.retries),
                     static_cast<unsigned long long>(r.faults),
                     r.complete ? "true" : "false",
                     i + 1 < g_cluster_study.runs.size() ? "," : "");
      }
      std::fprintf(json, "    ]\n  },\n");
    }
    // Daemon steady-state study (see run_daemon_study).
    if (g_daemon_study.ok) {
      std::fprintf(json,
                   "  \"daemon\": {\n    \"dataset\": \"D3\",\n    \"scale\": %.4f,\n"
                   "    \"reps\": %d,\n    \"interleaved\": true,\n    \"packets\": %llu,\n"
                   "    \"runs\": [\n",
                   g_daemon_study.scale, g_daemon_study.reps,
                   static_cast<unsigned long long>(g_daemon_study.packets));
      for (std::size_t i = 0; i < g_daemon_study.runs.size(); ++i) {
        const DaemonRun& r = g_daemon_study.runs[i];
        std::fprintf(json,
                     "      {\"target_windows\": %zu, \"windows\": %llu, \"seconds\": %.4f, "
                     "\"pps\": %.1f, \"rotation_stall_max_s\": %.6f, "
                     "\"rotation_stall_mean_s\": %.6f, \"peak_rss_kb\": %llu, "
                     "\"evicted\": %llu, \"drained\": %llu}%s\n",
                     r.target_windows, static_cast<unsigned long long>(r.windows), r.seconds,
                     r.pps, r.max_stall_s, r.mean_stall_s,
                     static_cast<unsigned long long>(r.peak_rss_kb),
                     static_cast<unsigned long long>(r.evicted),
                     static_cast<unsigned long long>(r.drained),
                     i + 1 < g_daemon_study.runs.size() ? "," : "");
      }
      std::fprintf(json, "    ]\n  },\n");
    }
    // Retention tiering study (see run_retention_study).
    if (g_retention_study.ok) {
      std::fprintf(json,
                   "  \"retention\": {\n    \"dataset\": \"D3\",\n    \"scale\": %.4f,\n"
                   "    \"reps\": %d,\n    \"interleaved\": true,\n    \"packets\": %llu,\n"
                   "    \"keep_full\": %zu,\n    \"sketch_every\": %zu,\n    \"runs\": [\n",
                   g_retention_study.scale, g_retention_study.reps,
                   static_cast<unsigned long long>(g_retention_study.packets),
                   g_retention_study.keep_full, g_retention_study.sketch_every);
      for (std::size_t i = 0; i < g_retention_study.runs.size(); ++i) {
        const RetentionRun& r = g_retention_study.runs[i];
        std::fprintf(json,
                     "      {\"sketches\": %s, \"windows\": %llu, \"seconds\": %.4f, "
                     "\"pps\": %.1f, \"rotation_stall_max_s\": %.6f, "
                     "\"rotation_stall_mean_s\": %.6f, \"sketch_folds\": %llu, "
                     "\"peak_retained_bytes\": %llu, \"final_retained_bytes\": %llu, "
                     "\"final_esnap_files\": %llu}%s\n",
                     r.sketches ? "true" : "false",
                     static_cast<unsigned long long>(r.windows), r.seconds, r.pps,
                     r.max_stall_s, r.mean_stall_s, static_cast<unsigned long long>(r.folds),
                     static_cast<unsigned long long>(r.peak_retained_bytes),
                     static_cast<unsigned long long>(r.final_retained_bytes),
                     static_cast<unsigned long long>(r.final_esnap_files),
                     i + 1 < g_retention_study.runs.size() ? "," : "");
      }
      std::fprintf(json, "    ]\n  },\n");
    }
    // Snapshot shard study (see run_snapshot_study; empty without fork).
    std::fprintf(json,
                 "  \"snapshot\": {\n    \"dataset\": \"D1\",\n    \"scale\": %.4f,\n"
                 "    \"traces\": %zu,\n    \"encode_seconds\": %.4f,\n"
                 "    \"encode_bytes\": %llu,\n    \"runs\": [\n",
                 g_snapshot_study.scale, g_snapshot_study.traces,
                 g_snapshot_study.encode_seconds,
                 static_cast<unsigned long long>(g_snapshot_study.encode_bytes));
    for (std::size_t i = 0; i < g_snapshot_study.runs.size(); ++i) {
      const ShardRun& r = g_snapshot_study.runs[i];
      std::fprintf(json,
                   "      {\"shards\": %d, \"packets\": %llu, \"snapshot_bytes\": %llu, "
                   "\"shard_seconds\": %.3f, \"decode_seconds\": %.4f, \"merge_seconds\": "
                   "%.4f}%s\n",
                   r.shards, static_cast<unsigned long long>(r.packets),
                   static_cast<unsigned long long>(r.bytes), r.shard_seconds, r.decode_seconds,
                   r.merge_seconds, i + 1 < g_snapshot_study.runs.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  }\n}\n");
    std::fclose(json);
    std::printf("  wrote BENCH_pipeline.json\n");
  }
}

}  // namespace
}  // namespace entrace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // Harness self-test (CTest label "bench-smoke"): a tiny interleaved
      // batch-size pass that exercises generation, the ingest loop at
      // batch@1 and larger sizes, and the stage timers without writing
      // BENCH_pipeline.json (only run_pipeline_scaling holds the
      // JSON pen, and it does not run in smoke mode).
      entrace::run_batch_study(0.002, 1);
      if (!entrace::g_batch_study.ok || entrace::g_batch_study.packets == 0) {
        std::fprintf(stderr, "smoke: batch study produced no packets\n");
        return 1;
      }
      std::printf("smoke ok\n");
      return 0;
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster-only") == 0) {
      // Just the loopback-worker dispatch study, no JSON (only
      // run_pipeline_scaling holds the JSON pen).
      entrace::run_cluster_study();
      return entrace::g_cluster_study.ok ? 0 : 1;
    }
  }
  // The memory study must run before anything creates a thread: each
  // measurement forks, and fork() from a multi-threaded parent is unsafe.
  entrace::run_memory_study();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--memory-only") == 0) return 0;
  }
  // Also fork()-based, so it too runs before any thread is created.
  entrace::run_snapshot_study();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot-only") == 0) return 0;
  }
  entrace::run_telemetry_overhead();
  entrace::run_batch_study(entrace::benchutil::env_scale(),
                           entrace::cli::env_int("ENTRACE_BENCH_REPS", 3));
  // Spawns workers via fork+exec (async-signal-safe), so unlike the studies
  // above it is fine to run after threads have existed.
  entrace::run_orchestrate_study();
  // Loopback TCP workers on in-process threads (thread-safe by now: the
  // fork-based studies above have already finished).
  entrace::run_cluster_study();
  entrace::run_daemon_study();
  entrace::run_retention_study();
  entrace::run_pipeline_scaling();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling-only") == 0) return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
