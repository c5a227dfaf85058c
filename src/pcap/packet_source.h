// Pull-based packet sources: the streaming ingest layer of the pipeline.
//
// The paper's datasets are 17-65M packets each; materializing a whole
// TraceSet before analysis caps dataset size by RAM instead of disk/CPU.
// A PacketSource yields batches of zero-copy PacketViews plus the trace
// metadata the analyzer needs up front (name, subnet, snaplen, capture
// window) and the source-layer anomalies accumulated while reading, so the
// analyzer can run the fused single-decode pass without ever holding a
// trace in memory.  Implementations:
//
//   - MemoryTraceSource    adapts an in-memory Trace (views alias the
//                          Trace's own packets; keeps every TraceSet caller
//                          working),
//   - PcapFileSource       streams straight off disk through PcapReader's
//                          recoverable mode, applying snaplen and record-
//                          level anomaly accounting inline,
//   - SyntheticTraceSource (src/synth/synth_source.h) regenerates the
//                          trace in bounded time slices,
//   - MergedPacketStream   merges several sources in timestamp order,
//   - PacedReplaySource    (pcap/replay.h) releases an inner source's
//                          batches on the capture's own timeline.
//
// A TraceSourceSet is the per-dataset factory: analyze_dataset's thread-
// pool jobs each open() their own source, so per-trace streams never share
// state and results stay bit-identical for every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/anomaly.h"
#include "net/packet.h"
#include "pcap/trace.h"

namespace entrace {

// Zero-copy view of one captured packet — the unit of batched ingest.
// `data` aliases storage owned by the source and stays valid only until
// the next next_batch() call on that source.
struct PacketView {
  double ts = 0.0;
  std::uint32_t wire_len = 0;
  std::span<const std::uint8_t> data;
  // Originating sub-source for multi-trace streams: MergedPacketStream sets
  // it to the merged source's index so a consumer (the incremental
  // analyzer's per-trace demux) can attribute each packet without a side
  // channel.  Single-trace sources leave it 0.
  std::uint32_t source = 0;
};

// Trace-level metadata a source knows before the first packet is pulled.
// File-backed sources that cannot know the capture window up front leave
// start_ts/duration at 0.
struct TraceMeta {
  std::string name;
  int subnet_id = -1;
  std::uint32_t snaplen = 1500;
  double start_ts = 0.0;
  double duration = 0.0;
};

// Ingest volume a source has delivered so far — the telemetry ground truth
// for `source.*` metrics.  Maintained by PacketSource::next_batch() itself
// so every implementation self-counts without duplicated bookkeeping.
struct SourceStats {
  std::uint64_t packets = 0;
  std::uint64_t captured_bytes = 0;  // sum of data.size() after snaplen clip
  std::uint64_t wire_bytes = 0;      // sum of original on-the-wire lengths
};

class PacketSource {
 public:
  virtual ~PacketSource();

  virtual const TraceMeta& meta() const = 0;

  // Fill up to n views, returning the count (0 = end of stream).  Views
  // stay valid until the next next_batch() call on this source.  Sources
  // may return short batches at internal buffer boundaries (slice refills,
  // merged-stream head exhaustion) — a short batch is NOT end-of-stream;
  // only 0 is.  Non-virtual template method: one virtual dispatch and one
  // stats update per batch.
  std::size_t next_batch(PacketView* out, std::size_t n) {
    const std::size_t got = pull_batch(out, n);
    std::uint64_t captured = 0, wire = 0;
    for (std::size_t i = 0; i < got; ++i) {
      captured += out[i].data.size();
      wire += out[i].wire_len;
    }
    stats_.packets += got;
    stats_.captured_bytes += captured;
    stats_.wire_bytes += wire;
    return got;
  }

  // Volume delivered so far; complete once next_batch() has returned 0.
  const SourceStats& stats() const { return stats_; }

  // Source-layer anomalies (pcap record damage, salvaged truncations)
  // accumulated so far; complete once next_batch() has returned 0.
  virtual const AnomalyCounts& anomalies() const = 0;

 protected:
  // Implementation hook with next_batch()'s contract (views alias storage
  // the source owns until its next call).
  virtual std::size_t pull_batch(PacketView* out, std::size_t n) = 0;

 private:
  SourceStats stats_;
};

// Factory of per-trace sources for one dataset.  open() may be called
// concurrently from different threads for different indices (each
// analyze_dataset job opens its own trace), so implementations must not
// mutate shared state in open().
class TraceSourceSet {
 public:
  virtual ~TraceSourceSet();

  virtual const std::string& dataset_name() const = 0;
  virtual std::size_t size() const = 0;
  virtual std::unique_ptr<PacketSource> open(std::size_t index) const = 0;
};

// ---- in-memory adapters -----------------------------------------------------

// Streams an existing Trace without copying packets; the Trace must outlive
// the source.
class MemoryTraceSource final : public PacketSource {
 public:
  explicit MemoryTraceSource(const Trace& trace);

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override { return trace_->file_anomalies; }

 protected:
  // Views alias the Trace's own packet storage.
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    const std::vector<RawPacket>& pkts = trace_->packets;
    std::size_t i = 0;
    for (; i < n && pos_ < pkts.size(); ++i, ++pos_) {
      const RawPacket& p = pkts[pos_];
      out[i] = PacketView{p.ts, p.wire_len, p.data};
    }
    return i;
  }

 private:
  const Trace* trace_;
  TraceMeta meta_;
  std::size_t pos_ = 0;
};

// Adapts a materialized TraceSet; the TraceSet must outlive the set and
// every source opened from it.
class MemoryTraceSourceSet final : public TraceSourceSet {
 public:
  explicit MemoryTraceSourceSet(const TraceSet& traces) : traces_(&traces) {}

  const std::string& dataset_name() const override { return traces_->dataset_name; }
  std::size_t size() const override { return traces_->traces.size(); }
  std::unique_ptr<PacketSource> open(std::size_t index) const override;

 private:
  const TraceSet* traces_;
};

// ---- pcap files -------------------------------------------------------------

// Streams a capture file through PcapReader's recoverable mode: corrupt
// trailing records are salvaged/skipped and counted in anomalies(), and
// captured bytes beyond the file's declared snaplen are clipped inline.
// Throws std::runtime_error when the file cannot be opened or its global
// header is malformed (same message as PcapReader).
class PcapFileSource final : public PacketSource {
 public:
  explicit PcapFileSource(const std::string& path, std::string name = "",
                          int subnet_id = -1);
  ~PcapFileSource() override;

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override;

 protected:
  // Reads up to n records into an owned per-batch buffer (one read loop,
  // no per-packet virtual dispatch from the analyzer side).
  std::size_t pull_batch(PacketView* out, std::size_t n) override;

 private:
  std::unique_ptr<class PcapReader> reader_;
  TraceMeta meta_;
  std::vector<RawPacket> batch_;
};

// One file of a pcap-backed dataset.
struct PcapTraceSpec {
  std::string path;
  std::string name;     // defaults to path when empty
  int subnet_id = -1;
};

class PcapFileSourceSet final : public TraceSourceSet {
 public:
  PcapFileSourceSet(std::string dataset_name, std::vector<PcapTraceSpec> files)
      : dataset_name_(std::move(dataset_name)), files_(std::move(files)) {}

  const std::string& dataset_name() const override { return dataset_name_; }
  std::size_t size() const override { return files_.size(); }
  std::unique_ptr<PacketSource> open(std::size_t index) const override;

 private:
  std::string dataset_name_;
  std::vector<PcapTraceSpec> files_;
};

// ---- k-way timestamp merge --------------------------------------------------

// Streams the union of several PacketSources in global timestamp order
// (ties broken by source index, matching the old TraceSet::merged()
// stable sort) while holding only one buffered batch per source in memory.
// Precondition: each source yields nondecreasing timestamps, which holds
// for generated traces (sorted at emission) and normal captures.
//
// A PacketSource itself, so it composes with any source consumer — the
// paced replay wrapper (pcap/replay.h) and the daemon's ingest loop run on
// the same next_batch() contract as single-trace analysis.  The merge runs
// at batch granularity (no per-packet virtual call); each view's `source`
// field carries the originating sub-source index so a demuxing consumer
// can attribute packets per trace.
class MergedPacketStream final : public PacketSource {
 public:
  explicit MergedPacketStream(std::vector<std::unique_ptr<PacketSource>> sources);

  // Synthesized metadata: name "merged", snaplen = max over sub-sources,
  // start_ts = min, duration spanning all sub-source windows.
  const TraceMeta& meta() const override { return meta_; }

  // Aggregated source-layer anomalies across every sub-source (recomputed
  // per call; complete once the stream is drained).
  const AnomalyCounts& anomalies() const override;

  // Sub-source access for per-trace accounting (stats / anomalies of one
  // constituent trace).
  std::size_t source_count() const { return sources_.size(); }
  const PacketSource& source(std::size_t i) const { return *sources_[i]; }

 protected:
  // Each source keeps a buffered batch of heads, and the merge pops the
  // global (ts, source index) minimum into `out`.  When a source's buffer
  // runs dry mid-batch the call returns short (refilling would invalidate
  // views already handed out); 0 means fully drained.
  std::size_t pull_batch(PacketView* out, std::size_t n) override;

 private:
  // One buffered batch of views per source.
  struct SourceBuf {
    std::vector<PacketView> views;
    std::size_t pos = 0;
    bool eof = false;
  };

  std::vector<std::unique_ptr<PacketSource>> sources_;
  std::vector<SourceBuf> bufs_;
  TraceMeta meta_;
  mutable AnomalyCounts merged_anomalies_;
};

// Convenience: a merged stream over the traces of an in-memory TraceSet
// (each trace wrapped in a MemoryTraceSource; the set must outlive it).
MergedPacketStream merged_stream(const TraceSet& traces);

}  // namespace entrace
