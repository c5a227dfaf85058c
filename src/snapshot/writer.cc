#include "snapshot/writer.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

namespace entrace::snapshot {

namespace {

// Map every connection of the shard's flow table to its deque index, so
// events can reference connections positionally across the process gap.
using ConnIndex = std::unordered_map<const Connection*, std::uint32_t>;
inline constexpr std::uint32_t kNoConn = 0xFFFFFFFFu;

ConnIndex index_connections(const FlowTable* table) {
  ConnIndex index;
  if (table == nullptr) return index;
  std::uint32_t i = 0;
  for (const Connection& conn : table->connections()) index.emplace(&conn, i++);
  return index;
}

std::uint32_t conn_ref(const ConnIndex& index, const Connection* conn) {
  if (conn == nullptr) return kNoConn;
  const auto it = index.find(conn);
  if (it == index.end()) {
    // An event pointing outside its own trace's flow table cannot be
    // snapshotted positionally; the per-trace pipeline never produces one.
    throw std::runtime_error(
        "snapshot writer: application event references a connection outside its trace shard");
  }
  return it->second;
}

void encode_connection(ByteWriter& w, const Connection& c) {
  w.u32(c.key.src.value());
  w.u32(c.key.dst.value());
  w.u16(c.key.src_port);
  w.u16(c.key.dst_port);
  w.u8(c.key.proto);
  w.f64(c.start_ts);
  w.f64(c.last_ts);
  w.u64(c.orig_pkts);
  w.u64(c.resp_pkts);
  w.u64(c.orig_bytes);
  w.u64(c.resp_bytes);
  w.u8(static_cast<std::uint8_t>(c.state));
  w.u8(c.saw_syn ? 1 : 0);
  w.u8(c.saw_synack ? 1 : 0);
  w.u8(c.saw_fin ? 1 : 0);
  w.u8(c.saw_rst ? 1 : 0);
  w.u32(c.orig_isn);
  w.u32(c.resp_isn);
  w.u32(c.retransmissions);
  w.u32(c.keepalive_retx);
  w.u8(c.icmp_type);
  w.u16(c.app_id);
  w.u8(c.multicast ? 1 : 0);
  w.u64(c.open_seq);  // v3: per-trace open order (windowed reassembly key)
}

void encode_series(ByteWriter& w, const IntervalSeries& s) {
  w.f64(s.bin_width());
  w.u64(s.bins().size());
  for (const auto& [bin, value] : s.bins()) {
    w.i64(bin);
    w.f64(value);
  }
}

void encode_events(ByteWriter& w, const AppEvents& ev, const ConnIndex& conns) {
  w.u64(ev.http.size());
  for (const HttpTransaction& e : ev.http) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.req_ts);
    w.f64(e.resp_ts);
    w.str(e.method);
    w.str(e.uri);
    w.str(e.host);
    w.str(e.user_agent);
    w.u8(e.conditional ? 1 : 0);
    w.u8(e.has_response ? 1 : 0);
    w.i32(e.status);
    w.str(e.content_type);
    w.u64(e.resp_body_len);
  }
  w.u64(ev.smtp.size());
  for (const SmtpCommand& e : ev.smtp) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.ts);
    w.str(e.verb);
  }
  w.u64(ev.dns.size());
  for (const DnsTransaction& e : ev.dns) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.query_ts);
    w.f64(e.resp_ts);
    w.u16(e.qtype);
    w.str(e.qname);
    w.u8(e.has_response ? 1 : 0);
    w.i32(e.rcode);
  }
  w.u64(ev.nbns.size());
  for (const NbnsTransaction& e : ev.nbns) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.query_ts);
    w.f64(e.resp_ts);
    w.u8(static_cast<std::uint8_t>(e.opcode));
    w.u8(static_cast<std::uint8_t>(e.name_type));
    w.str(e.name);
    w.u8(e.has_response ? 1 : 0);
    w.i32(e.rcode);
  }
  w.u64(ev.nbss.size());
  for (const NbssEvent& e : ev.nbss) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.ts);
    w.u8(static_cast<std::uint8_t>(e.type));
  }
  w.u64(ev.cifs.size());
  for (const CifsCommand& e : ev.cifs) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.ts);
    w.u8(e.command);
    w.u8(static_cast<std::uint8_t>(e.category));
    w.u8(static_cast<std::uint8_t>(e.dir));
    w.u32(e.msg_bytes);
  }
  w.u64(ev.dcerpc.size());
  for (const DceRpcCall& e : ev.dcerpc) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.ts);
    w.u8(static_cast<std::uint8_t>(e.iface));
    w.u16(e.opnum);
    w.u8(e.over_pipe ? 1 : 0);
    w.u8(e.is_request ? 1 : 0);
    w.u32(e.bytes);
  }
  w.u64(ev.epm.size());
  for (const EpmMapping& e : ev.epm) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.ts);
    w.u32(e.server.value());
    w.u16(e.port);
    w.u8(static_cast<std::uint8_t>(e.iface));
  }
  w.u64(ev.nfs.size());
  for (const NfsCall& e : ev.nfs) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.req_ts);
    w.f64(e.resp_ts);
    w.u32(e.proc);
    w.u8(e.has_reply ? 1 : 0);
    w.u32(e.status);
    w.u32(e.req_bytes);
    w.u32(e.resp_bytes);
  }
  w.u64(ev.ncp.size());
  for (const NcpCall& e : ev.ncp) {
    w.u32(conn_ref(conns, e.conn));
    w.f64(e.req_ts);
    w.f64(e.resp_ts);
    w.u8(static_cast<std::uint8_t>(e.function));
    w.u8(e.has_reply ? 1 : 0);
    w.u8(e.completion_code);
    w.u32(e.req_bytes);
    w.u32(e.resp_bytes);
  }
}

void encode_host_set(ByteWriter& w, const std::set<std::uint32_t>& hosts) {
  w.u64(hosts.size());
  for (const std::uint32_t h : hosts) w.u32(h);
}

}  // namespace

SnapshotWriter::SnapshotWriter(const std::string& path, const SnapshotMeta& meta)
    : path_(path),
      tmp_path_(path + ".tmp"),
      out_(tmp_path_, std::ios::binary | std::ios::trunc),
      sink_(&out_) {
  if (!out_) throw std::runtime_error("snapshot writer: cannot create " + tmp_path_);
  write_header(meta);
}

SnapshotWriter::SnapshotWriter(std::ostream& sink, const SnapshotMeta& meta) : sink_(&sink) {
  write_header(meta);
}

SnapshotWriter::~SnapshotWriter() {
  // Abandoned without close() (exception unwind): nothing was ever renamed
  // onto the destination, so just drop the partial .tmp.  A hard-killed
  // process skips this too, which is fine — the .tmp is not the
  // destination name and the next attempt truncates it.  Stream-sink mode
  // has nothing to clean up; the caller owns the (now end-marker-less,
  // reader-rejected) bytes.
  if (!closed_ && !tmp_path_.empty()) {
    out_.close();
    std::remove(tmp_path_.c_str());
  }
}

void SnapshotWriter::write_raw(const std::uint8_t* bytes, std::size_t n) {
  sink_->write(reinterpret_cast<const char*>(bytes), static_cast<std::streamsize>(n));
}

void SnapshotWriter::write_header(const SnapshotMeta& meta) {
  std::uint8_t header[kHeaderSize];
  std::memcpy(header, kMagic, kMagicSize);
  store_le(header + kMagicSize, kFormatVersion, 4);
  write_raw(header, kHeaderSize);
  offset_ = kHeaderSize;

  ByteWriter w;
  w.str(meta.dataset);
  w.f64(meta.scale);
  w.u32(meta.trace_count);
  write_section(SectionType::kDatasetMeta, w);
}

void SnapshotWriter::write_section(SectionType type, const ByteWriter& payload) {
  const std::span<const std::uint8_t> bytes = payload.bytes();
  std::uint8_t frame[kSectionHeaderSize];
  store_le(frame, static_cast<std::uint32_t>(type), 4);
  store_le(frame + 4, bytes.size(), 8);
  std::uint8_t trailer[kSectionTrailerSize];
  store_le(trailer, crc32(bytes), 4);
  write_raw(frame, kSectionHeaderSize);
  write_raw(bytes.data(), bytes.size());
  write_raw(trailer, kSectionTrailerSize);
  if (!*sink_) throw std::runtime_error("snapshot writer: write failed on " + path_);
  offset_ += kSectionHeaderSize + bytes.size() + kSectionTrailerSize;
}

void SnapshotWriter::add_shard(std::uint32_t trace_index, const TraceShard& shard) {
  if (static_cast<std::int64_t>(trace_index) <= last_index_) {
    throw std::runtime_error("snapshot writer: trace index " + std::to_string(trace_index) +
                             " not ascending (previous " + std::to_string(last_index_) + ")");
  }
  last_index_ = static_cast<std::int64_t>(trace_index);
  {
    ByteWriter w;
    w.u32(trace_index);
    w.i32(shard.subnet_id);
    w.u64(shard.total_packets);
    w.u64(shard.total_wire_bytes);
    w.u64(shard.l3.total);
    w.u64(shard.l3.ip);
    w.u64(shard.l3.arp);
    w.u64(shard.l3.ipx);
    w.u64(shard.l3.other);
    write_section(SectionType::kTraceHeader, w);
  }
  {
    ByteWriter w;
    w.u32(trace_index);
    for (int p = 0; p < 256; ++p) w.u64(shard.ip_proto_packets[static_cast<std::uint8_t>(p)]);
    write_section(SectionType::kIpProtoCounts, w);
  }
  {
    ByteWriter w;
    w.u32(trace_index);
    encode_host_set(w, shard.monitored_hosts);
    encode_host_set(w, shard.lbnl_hosts);
    encode_host_set(w, shard.remote_hosts);
    write_section(SectionType::kHostSets, w);
  }
  {
    ByteWriter w;
    w.u32(trace_index);
    const auto observations = shard.detector.export_observations();
    w.u64(observations.size());
    for (const auto& obs : observations) {
      w.u32(obs.source);
      w.u32(static_cast<std::uint32_t>(obs.order.size()));
      for (const std::uint32_t dst : obs.order) w.u32(dst);
      w.u32(static_cast<std::uint32_t>(obs.extra_seen.size()));
      for (const std::uint32_t dst : obs.extra_seen) w.u32(dst);
    }
    const auto& known = shard.detector.known_scanners();
    w.u32(static_cast<std::uint32_t>(known.size()));
    for (const Ipv4Address addr : known) w.u32(addr.value());
    write_section(SectionType::kScannerState, w);
  }
  {
    ByteWriter w;
    w.u32(trace_index);
    const auto& endpoints = shard.registry.dynamic_endpoints();
    w.u64(endpoints.size());
    for (const auto& [key, enabled] : endpoints) {
      w.u32(key.first);
      w.u16(key.second);
      w.u8(enabled ? 1 : 0);
    }
    write_section(SectionType::kDynamicEndpoints, w);
  }
  const ConnIndex conns = index_connections(shard.table.get());
  {
    ByteWriter w;
    w.u32(trace_index);
    const std::uint64_t n = shard.table != nullptr ? shard.table->connections().size() : 0;
    w.u64(n);
    if (shard.table != nullptr) {
      for (const Connection& c : shard.table->connections()) encode_connection(w, c);
    }
    write_section(SectionType::kConnections, w);
  }
  {
    ByteWriter w;
    w.u32(trace_index);
    encode_events(w, shard.events, conns);
    write_section(SectionType::kAppEvents, w);
  }
  {
    ByteWriter w;
    w.u32(trace_index);
    w.str(shard.load.trace_name);
    encode_series(w, shard.load.bits_1s);
    encode_series(w, shard.load.bits_10s);
    encode_series(w, shard.load.bits_60s);
    w.u64(shard.load.ent_tcp_pkts);
    w.u64(shard.load.ent_retx);
    w.u64(shard.load.wan_tcp_pkts);
    w.u64(shard.load.wan_retx);
    w.u64(shard.load.keepalive_excluded);
    write_section(SectionType::kTraceLoad, w);
  }
  {
    ByteWriter w;
    w.u32(trace_index);
    w.u64(shard.quality.packets_seen);
    w.u64(shard.quality.packets_ok);
    w.u64(shard.quality.packets_dropped);
    w.u32(static_cast<std::uint32_t>(kAnomalyKindCount));
    for (std::size_t k = 0; k < kAnomalyKindCount; ++k) {
      w.u64(shard.quality.anomalies[static_cast<AnomalyKind>(k)]);
    }
    write_section(SectionType::kCaptureQuality, w);
  }
  {
    // Semantic-class telemetry only: timing metrics describe the shard
    // *process*, not the dataset, and must not survive the process gap (or
    // merged runs would stop being bit-identical to direct runs).
    ByteWriter w;
    w.u32(trace_index);
    std::vector<const obs::Metric*> semantic;
    for (const obs::Metric* m : shard.metrics.metrics()) {
      if (m->cls == obs::MetricClass::kSemantic) semantic.push_back(m);
    }
    w.u32(static_cast<std::uint32_t>(semantic.size()));
    for (const obs::Metric* m : semantic) {
      w.str(m->name);
      w.str(m->help);
      w.u8(static_cast<std::uint8_t>(m->kind));
      switch (m->kind) {
        case obs::MetricKind::kCounter:
          w.u64(m->counter.value());
          break;
        case obs::MetricKind::kGauge:
          w.f64(m->gauge.value());
          break;
        case obs::MetricKind::kHistogram: {
          const obs::Histogram& h = *m->histogram;
          w.u32(static_cast<std::uint32_t>(h.bounds().size()));
          for (const double b : h.bounds()) w.f64(b);
          for (const std::uint64_t c : h.buckets()) w.u64(c);
          w.u64(h.count());
          w.f64(h.sum());
          break;
        }
      }
    }
    write_section(SectionType::kTraceMetrics, w);
  }
}

void SnapshotWriter::close() {
  if (closed_) return;
  write_section(SectionType::kEnd, ByteWriter());
  sink_->flush();
  if (!*sink_) throw std::runtime_error("snapshot writer: flush failed on " + tmp_path_);
  if (tmp_path_.empty()) {
    closed_ = true;
    return;
  }
  out_.close();
  // The rename is the commit point: only a byte-complete snapshot (end
  // marker flushed) ever appears under the destination name.
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    throw std::runtime_error("snapshot writer: cannot rename " + tmp_path_ + " to " + path_);
  }
  closed_ = true;
}

}  // namespace entrace::snapshot
