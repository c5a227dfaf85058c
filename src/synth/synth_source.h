// SyntheticTraceSource: the generator's per-trace emission as an
// incremental, bounded-memory producer.
//
// The application generators are deterministic (all randomness comes from
// RNGs seeded by the TracePlan), so a trace can be regenerated at will.
// The source exploits that to trade CPU for memory: the capture window is
// cut into `slices` equal time slices, and for each slice the generators
// are re-run with the PacketSink restricted to that slice's [lo, hi)
// timestamp range.  Only one slice is ever buffered, so peak memory is
// ~1/slices of the trace at slices x generation CPU.  Concatenating the
// per-slice stably-sorted buffers reproduces the materialized trace's
// stable_sort-by-timestamp order bit for bit: slice assignment is
// monotonic in ts and packets with equal ts share a slice, so emission
// order is preserved exactly where the stable sort preserves it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pcap/packet_source.h"
#include "synth/dataset_spec.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace entrace {

struct SyntheticSourceOptions {
  // Regeneration slices per trace; 1 buffers the whole trace (the cheapest
  // CPU-wise, equivalent to materializing one trace at a time).
  int slices = 8;
  // Generate slice k+1 on a producer thread while the analyzer consumes
  // slice k.  Bit-identical output either way (slices swap in order); costs
  // one extra buffered slice of memory while the producer runs ahead.
  bool double_buffer = true;
};

class SyntheticTraceSource final : public PacketSource {
 public:
  // The model must outlive the source; the spec is copied.
  SyntheticTraceSource(const DatasetSpec& spec, const EnterpriseModel& model, TracePlan plan,
                       SyntheticSourceOptions options = {});
  ~SyntheticTraceSource() override;

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override { return no_anomalies_; }

 protected:
  // Serves views straight from the current slice buffer; short batches at
  // slice boundaries (the refill happens on the next call, never while
  // handed-out views are live).
  std::size_t pull_batch(PacketView* out, std::size_t n) override;

 private:
  // Regenerates the next non-empty slice into `out` (advancing
  // next_slice_); false when the trace is exhausted.  Runs on the caller's
  // thread (sync mode) or the producer thread (double-buffer mode) — never
  // both: next_slice_ has exactly one owner per mode.
  bool generate_slice_into(std::vector<RawPacket>& out);
  // Makes buffer_ hold the next non-empty slice; false when done.
  bool fill_next_slice();
  // Double-buffer path: wait for the producer's back buffer and swap it in.
  bool swap_in_next_slice();
  void producer_loop();

  DatasetSpec spec_;
  const EnterpriseModel& model_;
  TracePlan plan_;
  int slices_;
  bool double_buffer_;
  int next_slice_ = 0;
  std::vector<RawPacket> buffer_;
  std::size_t pos_ = 0;
  bool exhausted_ = false;  // consumer saw the producer's EOF marker
  TraceMeta meta_;
  AnomalyCounts no_anomalies_;  // generated packets carry no file-layer damage

  // ---- producer state (double_buffer mode) ----------------------------------
  // Protocol: the producer fills back_ and sets back_ready_; the consumer
  // swaps it out and clears the flag.  An empty ready back_ is the EOF
  // marker.  The thread starts lazily on the first refill so sources that
  // are opened but never read stay thread-free (and construction stays
  // fork-safe for the bench's fork()-based studies).
  std::vector<RawPacket> back_;
  bool back_ready_ = false;
  bool stop_ = false;
  bool producer_started_ = false;
  std::thread producer_;
  std::mutex mu_;
  std::condition_variable cv_;
};

// Factory over a whole dataset: one SyntheticTraceSource per planned trace,
// in tap-rotation order (matching generate_dataset).  The model must
// outlive the set and every source opened from it.
class SyntheticTraceSourceSet final : public TraceSourceSet {
 public:
  SyntheticTraceSourceSet(DatasetSpec spec, const EnterpriseModel& model,
                          SyntheticSourceOptions options = {});

  const std::string& dataset_name() const override { return spec_.name; }
  std::size_t size() const override { return plans_.size(); }
  std::unique_ptr<PacketSource> open(std::size_t index) const override;

 private:
  DatasetSpec spec_;
  const EnterpriseModel& model_;
  SyntheticSourceOptions options_;
  std::vector<TracePlan> plans_;
};

}  // namespace entrace
