#include "catalog.h"

#include <stdexcept>
#include <string>

namespace perfbench {

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> w = {
      {"batch",
       "the canonical D3 capture (18 traces, 1500-byte snaplen, every parser runs) as pcap "
       "files, through analyze_trace_shards at 4 threads, fold_shards and full_report: the "
       "per-packet path and pool scaling; snapshot, retention, cluster and synth sit idle. "
       "The seed orders the files"},
      {"daemon",
       "the same pcaps replayed as one MergedPacketStream through IncrementalAnalyzer "
       "(1 thread, 60 s windows, exact), write_window_snapshot, RetentionManager (keep 4, "
       "K 8) and /report every 128 windows and at the end: rotation, checkpoints, sketch "
       "folds. It drives the library calls of entrace_daemon's loop, so it sees only what "
       "sits behind them"},
      {"fleet",
       "D1 (44 traces, 68-byte snaplen, parsers idle) through run_cluster on 4 in-process "
       "loopback WorkerServers, 8 jobs, refuse/disconnect/corrupt faults of 5% each drawn "
       "from the seed: synth, cluster, snapshot transfer and retries. The traffic is fixed "
       "by dataset and scale because JobMsg carries no seed"},
  };
  return w;
}

const std::vector<MetricDef>& metrics() {
  using K = MetricKind;
  static const std::vector<MetricDef> m = {
      // ---- end to end (untraced passes) ----
      {"setup_s", "s", K::kEndToEnd, "all",
       "wall time from process start to the first timed packet: inputs from the seed, the "
       "1-thread reference report, program set-up and the warm-up",
       "work moved out of the timed passes"},
      {"pps", "1/s", K::kEndToEnd, "all",
       "packets / wall time summed over the timed passes; a pass ends once its report is "
       "rendered and verified",
       "-"},
      {"cpu_us_per_pkt", "us", K::kEndToEnd, "all",
       "process CPU time (user+sys, all threads) / packets, summed over the timed passes",
       "-"},
      {"peak_rss_mb", "MiB", K::kEndToEnd, "all",
       "peak resident set of the process from the warm-up on (VmHWM, reset after set-up "
       "and malloc_trim, so input generation does not set it)",
       "-"},
      {"report_ms", "ms", K::kEndToEnd, "all",
       "median time to turn analyzed state into the rendered report: batch fold_shards + "
       "full_report; daemon render_windowed_report(report_paths()) every 128 windows and at "
       "the end; fleet orchestrate::render_report",
       "-"},
      {"stall_p50_ms", "ms", K::kEndToEnd, "all",
       "median time packet ingest is blocked at a boundary: daemon each window (rotate + "
       "write_window_snapshot + add_window, ~1,100 per pass); batch and fleet the pass's "
       "serial tail after the packets are analyzed (one per pass)",
       "-"},
      {"stall_p99_ms", "ms", K::kEndToEnd, "all",
       "99th percentile (nearest rank) of the same samples where ten or more lie beyond it "
       "(daemon); with fewer samples (batch, fleet) the highest percentile that has ten "
       "beyond it",
       "-"},

      // ---- per layer (traced passes) ----
      {"pcap.read_s", "s", K::kPerLayer, "pcap", "stage.batch.source timer, summed over threads",
       "batch/pps, batch/cpu_us_per_pkt"},
      {"pcap.merge_s", "s", K::kPerLayer, "pcap",
       "self time of the span around MergedPacketStream::next_batch (reads the pcaps too)",
       "daemon/pps"},
      {"pcap.input_mb", "MiB", K::kPerLayer, "pcap", "size of the generated pcap files",
       "setup_s"},
      {"net.decode_s", "s", K::kPerLayer, "net", "stage.batch.decode timer, summed over threads",
       "batch/pps, cpu_us_per_pkt; daemon/pps"},
      {"net.dropped", "count", K::kPerLayer, "net", "decode.packets_dropped; repeats exactly",
       "-"},
      {"flow.track_s", "s", K::kPerLayer, "flow",
       "stage.batch.flow timer (flow table and protocol dispatch), summed over threads",
       "batch/pps; little on fleet"},
      {"flow.conns_opened", "count", K::kPerLayer, "flow", "flow.conns_opened; repeats exactly",
       "-"},
      {"flow.live_max", "count", K::kPerLayer, "flow",
       "daemon: max IncrementalAnalyzer::live_entries() over window boundaries",
       "daemon/peak_rss_mb"},
      {"proto.events", "count", K::kPerLayer, "proto", "app.events.total; repeats exactly", "-"},
      {"core.tally_s", "s", K::kPerLayer, "core", "stage.batch.tally timer, summed over threads",
       "batch/pps"},
      {"core.shards_s", "s", K::kPerLayer, "core", "self time of the analyze_trace_shards span",
       "batch/pps"},
      {"core.fold_s", "s", K::kPerLayer, "core", "self time of the fold_shards span",
       "batch/pps, batch/report_ms; daemon/report_ms"},
      {"core.report_s", "s", K::kPerLayer, "core", "self time of the full_report span",
       "batch/pps, report_ms"},
      {"core.feed_s", "s", K::kPerLayer, "core", "self time of IncrementalAnalyzer::feed spans",
       "daemon/pps"},
      {"core.rotate_s", "s", K::kPerLayer, "core",
       "self time of IncrementalAnalyzer::rotate spans", "daemon/stall_p50_ms"},
      {"core.finish_s", "s", K::kPerLayer, "core",
       "self time of IncrementalAnalyzer::finish (end-of-stream drain)", "daemon/pps"},
      {"core.release_s", "s", K::kPerLayer, "core",
       "self time of destroying the batch pass's DatasetAnalysis (its connection tables)",
       "batch/pps"},
      {"util.pool_busy_s", "s", K::kPerLayer, "util", "pool.busy_seconds of the batch pass",
       "batch/pps"},
      {"util.pool_max_task_s", "s", K::kPerLayer, "util", "pool.max_task_seconds (slowest trace)",
       "batch/pps"},
      {"util.pool_efficiency", "ratio", K::kPerLayer, "util",
       "pool busy seconds / (threads x analyze_trace_shards wall)",
       "batch/pps; a scaling gain leaves cpu_us_per_pkt unchanged"},
      {"util.parallelism", "ratio", K::kPerLayer, "util",
       "median over timed passes of process CPU / pass wall", "pps"},
      {"util.parallelism_min", "ratio", K::kPerLayer, "util",
       "lowest CPU / wall of any timed pass: a pass caught in the host's wake-up stretch "
       "shows here",
       "-"},
      {"snapshot.encode_s", "s", K::kPerLayer, "snapshot",
       "self time of write_window_snapshot spans", "daemon/stall_p99_ms, daemon/pps"},
      {"snapshot.encode_mb", "MiB", K::kPerLayer, "snapshot",
       "bytes write_window_snapshot wrote in the pass", "daemon/stall_p99_ms"},
      {"snapshot.age_s", "s", K::kPerLayer, "snapshot",
       "self time of RetentionManager::add_window spans", "daemon/stall_p99_ms, daemon/pps"},
      {"snapshot.age_max_ms", "ms", K::kPerLayer, "snapshot",
       "slowest add_window of the pass (a sketch fold)", "daemon/stall_p99_ms"},
      {"snapshot.folds", "count", K::kPerLayer, "snapshot", "AgeResult::folds summed over the pass",
       "daemon/stall_p99_ms"},
      {"snapshot.decode_s", "s", K::kPerLayer, "snapshot",
       "self time of read_window_snapshot spans in the decomposed /report",
       "daemon/report_ms"},
      {"snapshot.merge_s", "s", K::kPerLayer, "snapshot",
       "self time of merge_window_shards spans in the decomposed /report", "daemon/report_ms"},
      {"snapshot.report_s", "s", K::kPerLayer, "snapshot",
       "self time of the decomposed /report outside its decode, merge, fold and render",
       "daemon/report_ms"},
      {"snapshot.windows", "count", K::kPerLayer, "snapshot", "windows rotated per pass",
       "daemon/stall_p50_ms"},
      {"disk_mb", "MiB", K::kPerLayer, "snapshot",
       "RetentionManager::bytes_retained() at the end of the pass: every tier; a count, so "
       "it repeats exactly for a seed",
       "-"},
      {"cluster.run_s", "s", K::kPerLayer, "cluster", "self time of the run_cluster span",
       "fleet/pps"},
      {"cluster.attempts", "count", K::kPerLayer, "cluster", "OrchestrateResult::attempts",
       "fleet/pps"},
      {"cluster.retries", "count", K::kPerLayer, "cluster", "OrchestrateResult::retries",
       "fleet/pps"},
      {"cluster.bytes", "B", K::kPerLayer, "cluster",
       "cluster.bytes.rx from ClusterConfig::metrics", "fleet/pps"},
      {"cluster.retry_frac", "ratio", K::kPerLayer, "cluster",
       "retries / attempts over all timed passes", "fleet/pps"},
      {"orchestrate.render_s", "s", K::kPerLayer, "orchestrate",
       "self time of the render_report span", "fleet/report_ms"},
      {"synth.generate_s", "s", K::kPerLayer, "synth",
       "batch, daemon: set-up generation of the pcaps (4 threads, writing included); fleet: "
       "draining the D1 SyntheticTraceSourceSet at 4 threads after the timed passes",
       "fleet/pps, setup_s"},
      {"bench.verify_s", "s", K::kPerLayer, "bench", "self time of the byte-for-byte report check",
       "-"},
      {"bench.trace_overhead_pct", "%", K::kPerLayer, "bench",
       "pps of the untraced timed passes / pps of the traced ones - 1", "-"},
      {"bench.attributed_pct", "%", K::kPerLayer, "bench",
       "share of a traced pass's wall time inside named child spans (the rest is the pass "
       "root's own self time)",
       "-"},
      {"fail_frac", "ratio", K::kPerLayer, "bench",
       "failed / attempted: passes (batch, daemon) or jobs (fleet) whose report differs from "
       "the reference or ended incomplete",
       "-"},
  };
  return m;
}

const MetricDef& metric(std::string_view name) {
  for (const MetricDef& d : metrics()) {
    if (name == d.name) return d;
  }
  throw std::out_of_range("perfbench: no metric named '" + std::string(name) + "'");
}

}  // namespace perfbench
