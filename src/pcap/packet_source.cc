#include "pcap/packet_source.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "pcap/reader.h"

namespace entrace {

PacketSource::~PacketSource() = default;
TraceSourceSet::~TraceSourceSet() = default;

// ---- MemoryTraceSource ------------------------------------------------------

MemoryTraceSource::MemoryTraceSource(const Trace& trace) : trace_(&trace) {
  meta_.name = trace.name;
  meta_.subnet_id = trace.subnet_id;
  meta_.snaplen = trace.snaplen;
  meta_.start_ts = trace.start_ts;
  meta_.duration = trace.duration;
}

std::unique_ptr<PacketSource> MemoryTraceSourceSet::open(std::size_t index) const {
  return std::make_unique<MemoryTraceSource>(traces_->traces.at(index));
}

// ---- PcapFileSource ---------------------------------------------------------

PcapFileSource::PcapFileSource(const std::string& path, std::string name, int subnet_id) {
  std::string error;
  reader_ = PcapReader::open(path, &error);
  if (reader_ == nullptr) throw std::runtime_error(error);
  meta_.name = name.empty() ? path : std::move(name);
  meta_.subnet_id = subnet_id;
  meta_.snaplen = reader_->snaplen();
}

PcapFileSource::~PcapFileSource() = default;

std::size_t PcapFileSource::pull_batch(PacketView* out, std::size_t n) {
  batch_.clear();
  batch_.reserve(n);
  while (batch_.size() < n) {
    auto pkt = reader_->next();
    if (!pkt) break;
    if (pkt->data.size() > meta_.snaplen) pkt->data.resize(meta_.snaplen);
    batch_.push_back(std::move(*pkt));
  }
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    out[i] = PacketView{batch_[i].ts, batch_[i].wire_len, batch_[i].data};
  }
  return batch_.size();
}

const AnomalyCounts& PcapFileSource::anomalies() const { return reader_->anomalies(); }

std::unique_ptr<PacketSource> PcapFileSourceSet::open(std::size_t index) const {
  const PcapTraceSpec& spec = files_.at(index);
  return std::make_unique<PcapFileSource>(spec.path, spec.name, spec.subnet_id);
}

// ---- MergedPacketStream -----------------------------------------------------

MergedPacketStream::MergedPacketStream(std::vector<std::unique_ptr<PacketSource>> sources)
    : sources_(std::move(sources)), bufs_(sources_.size()) {
  meta_.name = "merged";
  meta_.subnet_id = -1;
  meta_.snaplen = 0;
  double start = 0.0, end = 0.0;
  bool have_window = false;
  for (const auto& src : sources_) {
    const TraceMeta& m = src->meta();
    meta_.snaplen = std::max(meta_.snaplen, m.snaplen);
    if (m.duration > 0.0) {
      if (!have_window || m.start_ts < start) start = m.start_ts;
      if (!have_window || m.start_ts + m.duration > end) end = m.start_ts + m.duration;
      have_window = true;
    }
  }
  if (have_window) {
    meta_.start_ts = start;
    meta_.duration = end - start;
  }
}

const AnomalyCounts& MergedPacketStream::anomalies() const {
  merged_anomalies_ = AnomalyCounts{};
  for (const auto& src : sources_) merged_anomalies_.merge(src->anomalies());
  return merged_anomalies_;
}

std::size_t MergedPacketStream::pull_batch(PacketView* out, std::size_t n) {
  constexpr std::size_t kHeadBatch = 64;
  // Refill exhausted buffers only on entry: the caller is done with the
  // previous batch's views by contract, so they may die now.
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    SourceBuf& b = bufs_[i];
    if (b.eof || b.pos < b.views.size()) continue;
    b.views.resize(kHeadBatch);
    const std::size_t got = sources_[i]->next_batch(b.views.data(), kHeadBatch);
    b.views.resize(got);
    b.pos = 0;
    if (got == 0) b.eof = true;
    // Stamp attribution once per refill; consumers demux on view.source.
    for (PacketView& v : b.views) v.source = static_cast<std::uint32_t>(i);
  }
  std::size_t k = 0;
  while (k < n) {
    // Global minimum over buffer heads by (ts, source index): the strict
    // `<` keeps the lowest index on ties.  Source counts are small (one per
    // trace), so a linear scan beats heap maintenance here.
    std::size_t best = SIZE_MAX;
    for (std::size_t i = 0; i < bufs_.size(); ++i) {
      const SourceBuf& b = bufs_[i];
      if (b.pos >= b.views.size()) continue;
      if (best == SIZE_MAX || b.views[b.pos].ts < bufs_[best].views[bufs_[best].pos].ts) {
        best = i;
      }
    }
    if (best == SIZE_MAX) break;  // every buffer empty: drained or refill needed
    SourceBuf& b = bufs_[best];
    out[k++] = b.views[b.pos++];
    if (b.pos >= b.views.size() && !b.eof) break;  // short batch; refill next call
  }
  return k;
}

MergedPacketStream merged_stream(const TraceSet& traces) {
  std::vector<std::unique_ptr<PacketSource>> sources;
  sources.reserve(traces.traces.size());
  for (const Trace& t : traces.traces) sources.push_back(std::make_unique<MemoryTraceSource>(t));
  return MergedPacketStream(std::move(sources));
}

}  // namespace entrace
