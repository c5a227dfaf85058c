// EnterpriseAnalyzer: the end-to-end pipeline of the paper.
//
//   packet traces -> decode -> scanner identification & removal (§3)
//     -> connection summaries (flow table)  -> application parsing
//     -> per-section analyses (§3-§6)
//
// analyze_dataset() consumes one dataset (one of D0-D4) and produces a
// DatasetAnalysis holding connection summaries, application events, load
// statistics and everything the report/benches need.  The primary input is
// a TraceSourceSet — a factory of streaming per-trace PacketSources (pcap
// file, in-memory trace, or incremental synthetic generator), so analysis
// memory is bounded by per-trace buffers plus result state, never by the
// dataset's packet count.  A thin TraceSet overload adapts materialized
// traces through MemoryTraceSource for existing callers.
//
// The datasets are sets of independently captured per-subnet traces, so
// the pipeline shards at trace granularity: each thread-pool job opens its
// own source and runs the whole decode -> tallies -> scanner-observation
// -> flow -> application chain as one fused pass (a single decode per
// packet) with private state, and the shards fold on the caller's thread
// in trace-index order — results are bit-identical for every thread count
// and for every source kind that yields the same packet stream.  Scanner
// *identification* needs the global cross-trace view, so the
// scanner-removal filter runs after the fold.  Dynamic DCE/RPC endpoints
// learned from Endpoint Mapper traffic apply within the trace that
// observed them (EPM mappings and the ephemeral-port connections they
// describe share a subnet trace).
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/breakdown.h"
#include "analysis/load.h"
#include "analysis/scanner.h"
#include "analysis/site.h"
#include "flow/flow_table.h"
#include "net/anomaly.h"
#include "obs/metrics.h"
#include "pcap/packet_source.h"
#include "pcap/trace.h"
#include "proto/dispatcher.h"
#include "proto/events.h"
#include "proto/registry.h"

namespace entrace {

struct AnalyzerConfig {
  SiteConfig site;
  FlowConfig flow;
  ScannerDetector::Config scanner;
  bool remove_scanners = true;
  // Override the per-trace snaplen-based payload-analysis decision.
  std::optional<bool> payload_analysis;
  // Worker threads for the per-trace analysis jobs.  0 = auto: honour
  // ENTRACE_THREADS, else hardware_concurrency.  Results are bit-identical
  // for every thread count (shards fold in trace-index order).
  std::size_t threads = 0;
  // Runtime telemetry (src/obs): per-layer metrics and per-stage timing
  // scopes recorded into TraceShard::metrics / DatasetAnalysis::metrics.
  // Off disables all collection (no registry lookups, no histogram on the
  // hot loop) — the toggle the bench overhead study flips.
  bool collect_metrics = true;
  // Packets pulled, decoded, tallied and flow-processed per batch.  Results
  // are byte-identical for every value: the stage loops only regroup work
  // that is order-independent across stages (tallies are additive, flow
  // processing preserves packet order).  0 is treated as 1.
  std::size_t batch_size = 256;
};

// IP packets tallied by transport protocol number.  A flat 256-entry array
// instead of a std::map: the increment sits in the per-packet hot loop and
// must not pay red-black-tree costs.  as_map() keeps the old map-like view
// for report code.
class IpProtoCounts {
 public:
  std::uint64_t& operator[](std::uint8_t proto) { return counts_[proto]; }
  std::uint64_t operator[](std::uint8_t proto) const { return counts_[proto]; }

  void merge(const IpProtoCounts& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  }

  // Nonzero entries ordered by protocol number (the old std::map interface).
  std::map<std::uint8_t, std::uint64_t> as_map() const {
    std::map<std::uint8_t, std::uint64_t> out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] != 0) out.emplace(static_cast<std::uint8_t>(i), counts_[i]);
    }
    return out;
  }

 private:
  std::array<std::uint64_t, 256> counts_{};
};

class DatasetAnalysis {
 public:
  std::string name;
  SiteConfig site;
  std::vector<int> monitored_subnets;

  // ---- packet-level tallies (Tables 1-2) ----------------------------------
  // Accounting rule: every headline tally — total_packets, total_wire_bytes,
  // l3, ip_proto_packets, the host sets and the load series — counts only
  // packets that survived decode and checksum verification, i.e. exactly
  // quality.packets_ok.  Packets dropped for undecodable or demonstrably
  // corrupt headers are accounted solely in `quality`
  // (packets_seen == packets_ok + packets_dropped), so the invariant
  //   total_packets == quality.packets_ok == l3.total
  // holds for every dataset and every source kind (asserted by the
  // corruption and streaming test suites).
  std::uint64_t total_packets = 0;
  std::uint64_t total_wire_bytes = 0;
  NetworkLayerBreakdown l3;
  // IP packets by transport protocol number (rare transports of §3).
  IpProtoCounts ip_proto_packets;
  std::set<std::uint32_t> monitored_hosts;  // hosts in monitored subnets
  std::set<std::uint32_t> lbnl_hosts;
  std::set<std::uint32_t> remote_hosts;

  // ---- capture quality -------------------------------------------------------
  // Every packet of every trace is accounted for here:
  //   packets_seen == packets_ok + packets_dropped.
  // Dropped packets (empty/Ethernet-truncated captures, checksum failures)
  // are excluded from the tallies above and from flow/application analysis;
  // anomalies classifies both the drops and the informational flags
  // (snaplen clipping, partial L3/L4 decodes, parser bails).
  CaptureQuality quality;

  // ---- connections -----------------------------------------------------------
  // Flow state (owns the Connection objects everything else points into).
  std::vector<std::unique_ptr<FlowTable>> tables;
  std::vector<const Connection*> all_connections;
  std::vector<const Connection*> connections;  // scanner traffic removed
  std::set<Ipv4Address> scanners;
  std::uint64_t scanner_conns_removed = 0;
  double scanner_removed_fraction() const {
    return all_connections.empty()
               ? 0.0
               : static_cast<double>(scanner_conns_removed) /
                     static_cast<double>(all_connections.size());
  }

  // ---- application events -----------------------------------------------------
  AppEvents events;
  AppRegistry registry;

  // ---- load (§6) -----------------------------------------------------------------
  std::vector<TraceLoadRaw> load_raw;

  // ---- runtime telemetry -----------------------------------------------------
  // Folded from the per-shard registries plus fold/post-fold recordings.
  // Semantic-class metrics are deterministic (same dataset => same values
  // at any thread count or shard partition); timing-class metrics describe
  // this particular run.  Render with report::telemetry (semantic table)
  // or obs::render_json / obs::render_prometheus (--metrics-out).
  obs::Registry metrics;

  bool is_monitored_host(Ipv4Address a) const {
    return monitored_hosts.count(a.value()) > 0;
  }
  std::uint64_t payload_bytes() const;
};

// Everything one per-trace job produces.  Shards are private to their job
// and folded into the DatasetAnalysis on the caller's thread in trace-index
// order, so results are identical for every thread count.  A shard is also
// the unit of the snapshot subsystem (src/snapshot): every member either
// merges associatively or is per-trace state carried through the fold, so
// shards computed by different processes — or decoded from .esnap files —
// fold to the same DatasetAnalysis as a single-process run.
struct TraceShard {
  TraceShard() = default;
  explicit TraceShard(const ScannerDetector::Config& scanner_config)
      : detector(scanner_config) {}

  int subnet_id = -1;
  std::uint64_t total_packets = 0;
  std::uint64_t total_wire_bytes = 0;
  NetworkLayerBreakdown l3;
  IpProtoCounts ip_proto_packets;
  std::set<std::uint32_t> monitored_hosts;
  std::set<std::uint32_t> lbnl_hosts;
  std::set<std::uint32_t> remote_hosts;
  ScannerDetector detector;
  AppRegistry registry;
  AppEvents events;
  std::unique_ptr<FlowTable> table;
  TraceLoadRaw load;
  CaptureQuality quality;
  // Per-trace telemetry (empty when AnalyzerConfig::collect_metrics is
  // off).  Semantic-class entries travel through snapshots; timing stays
  // process-local.
  obs::Registry metrics;
};

// One fused streaming pass over a trace source: pull -> decode -> tallies
// -> scanner observation -> flow table -> protocol dispatch, with a single
// decode per packet.  Fills `shard` (which must be fresh).
void analyze_trace(PacketSource& source, const AnalyzerConfig& config, TraceShard& shard);

// Analyze traces [begin, end) of the set — one shard per trace, in trace-
// index order, computed in parallel per config.threads.  This is the
// sharding half of analyze_dataset, exposed so a shard process can analyze
// its slice of a dataset and snapshot the result (tools/entrace_shard).
// When `process_metrics` is non-null (and collect_metrics on), thread-pool
// scheduling telemetry (`pool.*`, timing class) is recorded into it.
std::vector<TraceShard> analyze_trace_shards(const TraceSourceSet& sources,
                                             const AnalyzerConfig& config,
                                             std::size_t begin, std::size_t end,
                                             obs::Registry* process_metrics = nullptr);

// Deterministic fold: consumes one shard per trace of the dataset, in
// trace-index order, and produces the final DatasetAnalysis (global scanner
// identification and removal run post-fold).  Whether the shards came from
// this process's analyze_trace_shards or were decoded from snapshot files,
// the result is bit-identical.
DatasetAnalysis fold_shards(std::string dataset_name, std::vector<TraceShard>&& shards,
                            const AnalyzerConfig& config);

// Streaming entry point: each per-trace job opens its own PacketSource
// from the set, so whole traces are never materialized by the analyzer.
DatasetAnalysis analyze_dataset(const TraceSourceSet& sources, const AnalyzerConfig& config);

// Materialized adapter: analyzes an in-memory TraceSet through
// MemoryTraceSource, bit-identical to the streaming path.
DatasetAnalysis analyze_dataset(const TraceSet& traces, const AnalyzerConfig& config);

// Convenience: the AnalyzerConfig matching the synthetic EnterpriseModel.
AnalyzerConfig default_config_for_model(const SiteConfig& site);

}  // namespace entrace
