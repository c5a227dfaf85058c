// Windowed incremental analysis — the continuous-operation core.
//
// The batch pipeline (core/analyzer.h) analyzes a trace as one shot:
// open source, fused pass, fold.  This header refactors that pass into a
// resumable per-trace engine, TraceStream, that consumes packet batches
// continuously and can be harvested at any window boundary, plus a
// multi-trace front end, IncrementalAnalyzer, that demuxes a merged
// time-ordered stream (MergedPacketStream's view.source attribution) into
// per-trace streams and rotates completed windows.
//
// The contract that makes the daemon trustworthy: a windowed run's rotated
// window shards, merged back per trace (snapshot/window.h) and folded,
// produce a DatasetAnalysis byte-identical to the one-shot batch run over
// the same packets — at any thread count and any window length.  Each
// window shard is an ordinary TraceShard whose accumulators are
// window-fresh deltas:
//
//   - additive tallies (packet/byte counts, L3/proto breakdowns, interval
//     series, capture quality) sum across windows exactly (every summed
//     double is integer-valued);
//   - host sets and scanner first-contact observations union/merge
//     idempotently in window order, reproducing the serial observation
//     order;
//   - connections are carried as copies of exactly the connections touched
//     this window (FlowTable::take_dirty), ordered and keyed by
//     Connection::open_seq so cross-window upsert (last writer wins)
//     reassembles the exact batch connection order;
//   - application events reference the window's own connection copies, so
//     every window shard is self-contained for the unmodified snapshot
//     writer (format v3).
//
// Trace-total metrics (source.*, decode.*, flow.*, app.events.*) are
// recorded once, into the final window, from cumulative counters the
// stream maintains — folding all windows therefore yields the batch
// registry.
//
// analyze_trace() in core/analyzer.cc is now a thin wrapper: one
// TraceStream fed to exhaustion and finished in place (finish_batch moves
// state out without the windowed copy step), so batch and windowed runs
// share one engine and cannot drift.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/analyzer.h"
#include "pcap/packet_source.h"
#include "util/thread_pool.h"

namespace entrace {

namespace detail {

// Direct-mapped filter in front of the per-shard host std::sets.  Which set
// an address lands in is a pure function of the address (site config and
// subnet id are fixed per trace) and the sets dedup anyway, so suppressing
// repeats of recently seen addresses cannot change any result — it only
// skips the rb-tree walk that otherwise runs twice per IPv4 packet.
// Persisting the cache across window rotations is equally harmless: a
// suppressed repeat lands in some earlier window's set, and the sets union
// at fold.  Sentinel 0xFFFFFFFF is the broadcast address, which is filtered
// out before the cache is consulted.
class HostSeenCache {
 public:
  HostSeenCache() { slots_.fill(0xFFFFFFFFu); }

  // Returns true if addr was already in the cache (safe to skip).
  bool test_and_set(std::uint32_t addr) {
    std::uint32_t& slot = slots_[(addr * 0x9E3779B1u) >> (32 - kBits)];
    if (slot == addr) return true;
    slot = addr;
    return false;
  }

 private:
  static constexpr unsigned kBits = 10;
  std::array<std::uint32_t, 1u << kBits> slots_;
};

// Same idea for ScannerDetector::observe, which is idempotent per
// (src, dst) pair — a repeat insert into the per-source seen-set changes
// nothing — so suppressing recently seen pairs cannot alter the verdict
// (ScannerDetector::merge drops already-seen destinations the same way).
// Packet streams are bursty per connection, so a small direct-mapped cache
// absorbs most of the per-packet hash-map lookups.  A separate valid flag
// (not a sentinel key) keeps even degenerate pairs like broadcast->broadcast
// exact under fuzzed traces.
class PairSeenCache {
 public:
  PairSeenCache() { valid_.fill(0); }

  bool test_and_set(std::uint32_t src, std::uint32_t dst) {
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
    const std::size_t i =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - kBits));
    if (valid_[i] != 0 && keys_[i] == key) return true;
    keys_[i] = key;
    valid_[i] = 1;
    return false;
  }

 private:
  static constexpr unsigned kBits = 12;
  std::array<std::uint64_t, 1u << kBits> keys_;
  std::array<std::uint8_t, 1u << kBits> valid_;
};

}  // namespace detail

// Cumulative per-trace totals for the end-of-stream metrics recording,
// maintained by TraceStream across rotations (the per-window shard
// registries carry only the per-packet histogram; the scalar trace totals
// are recorded once, into the final window).
struct TraceTotals {
  SourceStats source;
  CaptureQuality quality;
  FlowStats flow;
  std::uint64_t flow_packets = 0;
  // http, smtp, dns, nbns, nbss, cifs, dcerpc, epm, nfs, ncp
  std::array<std::uint64_t, 10> events{};
  std::uint64_t events_total = 0;
};

// Record the source.* / decode.* / flow.* / app.events.* semantic counters
// into `reg` — shared by the batch finish (totals == the single shard's own
// numbers) and the windowed finish (totals accumulated across windows).
void record_trace_metrics(const TraceTotals& totals, obs::Registry& reg);

// One trace's resumable analysis state: everything analyze_trace used to
// hold in locals, owned across feed() calls so the stream can be cut at
// window boundaries.  Single-threaded, like a per-trace analyzer job.
class TraceStream {
 public:
  TraceStream(const TraceMeta& meta, const AnalyzerConfig& config);
  ~TraceStream();
  TraceStream(const TraceStream&) = delete;
  TraceStream& operator=(const TraceStream&) = delete;

  // Decode -> tally -> flow staged loops over the views (which must stay
  // valid for the duration of the call only).
  void feed(const PacketView* views, std::size_t n);

  // ---- windowed operation ---------------------------------------------------
  // Harvest the current window as a self-contained TraceShard delta and
  // start a fresh window.  See the header comment for why the deltas fold
  // back byte-identically.
  TraceShard rotate();

  // Time-driven flow expiry / slot recycling for endless streams (soak
  // mode; both change post-close attribution, so exact-equality runs leave
  // them off).  reclaim() must run after rotate() so every connection's
  // final state has been snapshotted.
  std::size_t evict_idle(double now) { return table_->evict_idle(now); }
  void enable_reclaim() { table_->enable_reclaim(); }
  std::size_t reclaim() { return table_->reclaim_closed(); }

  // End of stream, windowed: drain still-open flows (flow.drained), fold in
  // end-of-stream anomalies, harvest the final window, and record the
  // cumulative trace totals into it.  `source_anomalies` carries the
  // originating sub-source's file-layer anomalies when the caller can
  // attribute them (null otherwise).
  TraceShard finish_window(const AnomalyCounts* source_anomalies);

  // End of stream, batch: drain and move all state into `shard` without the
  // windowed copy step — byte-identical to the historical analyze_trace.
  // `source_seconds`/`source_batches` are the caller-timed ingest stage.
  void finish_batch(PacketSource& source, TraceShard& shard, double source_seconds,
                    std::uint64_t source_batches);

  std::size_t live_entries() const { return table_->live_entries(); }
  const FlowStats& flow_stats() const { return table_->stats(); }

 private:
  void tally_one(const DecodedPacket& d);
  void flow_one(const DecodedPacket& d, std::uint64_t key_lo, std::uint64_t key_hi, bool keyed);
  void reset_window_metrics();
  void accumulate_window_totals();
  void record_stage_timing(obs::Registry& reg, double source_seconds,
                           std::uint64_t source_batches) const;

  AnalyzerConfig config_;
  TraceMeta meta_;
  bool collect_;

  // Persistent across windows.  Declaration order matters: the dispatcher
  // holds references into registry_/events_/quality_.
  AppRegistry registry_;
  AppEvents events_;       // current window's events (vectors stable, contents move out)
  CaptureQuality quality_; // current window's delta (dispatcher points at .anomalies)
  ProtocolDispatcher dispatcher_;
  std::unique_ptr<FlowTable> table_;
  detail::HostSeenCache host_cache_;
  detail::PairSeenCache pair_cache_;
  TraceTotals totals_;     // cumulative (excludes the current window until rotate)

  // Window-fresh accumulators.
  std::uint64_t win_packets_ = 0;
  std::uint64_t win_wire_bytes_ = 0;
  NetworkLayerBreakdown l3_;
  IpProtoCounts ip_proto_;
  std::set<std::uint32_t> monitored_hosts_;
  std::set<std::uint32_t> lbnl_hosts_;
  std::set<std::uint32_t> remote_hosts_;
  ScannerDetector detector_;
  TraceLoadRaw load_;
  obs::Registry metrics_;
  obs::Histogram* pkt_bytes_ = nullptr;

  // Batch-stage scratch, reused across feed() calls.
  std::vector<DecodedPacket> decoded_;
  std::vector<std::uint64_t> key_lo_, key_hi_;
  std::vector<std::uint8_t> ok_, keyed_;

  // Stage timing (timing class; recorded at finish).
  double decode_s_ = 0.0, tally_s_ = 0.0, flow_s_ = 0.0;
};

// One completed window across every trace of the stream set.
struct WindowShard {
  std::uint64_t index = 0;
  double start_ts = 0.0;
  double end_ts = 0.0;
  std::vector<TraceShard> shards;  // one per trace, trace-index order
};

struct IncrementalOptions {
  double window_seconds = 60.0;
  // Time-driven flow eviction at each rotation (evict_idle at the window
  // boundary) and slot recycling after harvest.  Both bound daemon memory;
  // both are off for exact-equality replays.
  bool evict = false;
  bool reclaim = false;
};

// Multi-trace windowed engine: demuxes merged batches by view.source into
// one TraceStream per trace (dispatched on a thread pool, deterministic
// because each trace's packets stay in order and shards assemble by trace
// index) and harvests WindowShards at rotation.
class IncrementalAnalyzer {
 public:
  IncrementalAnalyzer(std::vector<TraceMeta> metas, const AnalyzerConfig& config,
                      const IncrementalOptions& options);
  ~IncrementalAnalyzer();

  // Feed one merged batch (views die at the caller's next next_batch).
  void feed(const PacketView* views, std::size_t n);

  // Stream time: the latest timestamp fed so far.
  double max_ts() const { return max_ts_; }
  // First boundary not yet rotated past; valid once a packet has been fed.
  double window_end() const { return window_end_; }
  bool saw_packets() const { return saw_packets_; }
  // True when the stream has moved past the current window's end boundary.
  bool window_complete() const { return saw_packets_ && max_ts_ >= window_end_; }

  // Harvest the current window from every trace and advance the boundary.
  WindowShard rotate();

  // Drain every stream and harvest the final (partial) window.  `merged`
  // lets per-trace source anomalies reach the right shard; may be null.
  WindowShard finish(const MergedPacketStream* merged);

  std::size_t trace_count() const { return streams_.size(); }
  std::uint64_t windows_rotated() const { return next_window_index_; }
  // Bounded-memory observability: live flow-table entries across traces.
  std::size_t live_entries() const;
  std::uint64_t drained_total() const;
  std::uint64_t evicted_total() const;

 private:
  void dispatch_buffers();

  AnalyzerConfig config_;
  IncrementalOptions options_;
  std::vector<std::unique_ptr<TraceStream>> streams_;
  std::vector<std::vector<PacketView>> buffers_;  // per-trace demux, reused
  ThreadPool pool_;
  double max_ts_ = 0.0;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  bool saw_packets_ = false;
  std::uint64_t next_window_index_ = 0;
  bool finished_ = false;
};

}  // namespace entrace
