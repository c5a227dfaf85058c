#include "proto/dcerpc.h"

#include "net/bytes.h"

namespace entrace {
namespace {

constexpr std::size_t kPduHeaderSize = 16;
constexpr std::size_t kRequestExtra = 8;  // alloc_hint + context_id + opnum

// Real interface UUIDs (first bytes shown in registry order).
constexpr DceUuid kNetLogonUuid = {0x78, 0x56, 0x34, 0x12, 0x34, 0x12, 0xcd, 0xab,
                                   0xef, 0x00, 0x01, 0x23, 0x45, 0x67, 0xcf, 0xfb};
constexpr DceUuid kLsaRpcUuid = {0x78, 0x57, 0x34, 0x12, 0x34, 0x12, 0xcd, 0xab,
                                 0xef, 0x00, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab};
constexpr DceUuid kSpoolssUuid = {0x78, 0x56, 0x34, 0x12, 0x34, 0x12, 0xcd, 0xab,
                                  0xef, 0x00, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab};
constexpr DceUuid kEpmUuid = {0x08, 0x83, 0xaf, 0xe1, 0x1f, 0x5d, 0xc9, 0x11,
                              0x91, 0xa4, 0x08, 0x00, 0x2b, 0x14, 0xa0, 0xfa};
constexpr DceUuid kSamrUuid = {0x78, 0x57, 0x34, 0x12, 0x34, 0x12, 0xcd, 0xab,
                               0xef, 0x00, 0x01, 0x23, 0x45, 0x67, 0x89, 0xac};
constexpr DceUuid kWkssvcUuid = {0x98, 0xd0, 0xff, 0x6b, 0x12, 0xa1, 0x10, 0x36,
                                 0x98, 0x33, 0x46, 0xc3, 0xf8, 0x7e, 0x34, 0x5a};
constexpr DceUuid kOtherUuid = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00, 0x00,
                                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01};

void encode_pdu_header(ByteWriter& w, std::uint8_t ptype, std::uint16_t frag_len,
                       std::uint32_t call_id) {
  w.u8(5);  // version
  w.u8(0);  // minor
  w.u8(ptype);
  w.u8(0x03);        // first+last fragment
  w.u32le(0x10);     // data representation: little-endian
  w.u16le(frag_len);
  w.u16le(0);        // auth length
  w.u32le(call_id);
}

}  // namespace

const DceUuid& dce_uuid(DceIface iface) {
  switch (iface) {
    case DceIface::kNetLogon:
      return kNetLogonUuid;
    case DceIface::kLsaRpc:
      return kLsaRpcUuid;
    case DceIface::kSpoolss:
      return kSpoolssUuid;
    case DceIface::kEpm:
      return kEpmUuid;
    case DceIface::kSamr:
      return kSamrUuid;
    case DceIface::kWkssvc:
      return kWkssvcUuid;
    case DceIface::kOther:
      break;
  }
  return kOtherUuid;
}

DceIface dce_iface_from_uuid(const DceUuid& uuid) {
  if (uuid == kNetLogonUuid) return DceIface::kNetLogon;
  if (uuid == kLsaRpcUuid) return DceIface::kLsaRpc;
  if (uuid == kSpoolssUuid) return DceIface::kSpoolss;
  if (uuid == kEpmUuid) return DceIface::kEpm;
  if (uuid == kSamrUuid) return DceIface::kSamr;
  if (uuid == kWkssvcUuid) return DceIface::kWkssvc;
  return DceIface::kOther;
}

std::vector<std::uint8_t> encode_dce_bind(std::uint32_t call_id, const DceUuid& iface) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  // header + max_xmit/max_recv/assoc_group + 1 context item
  const std::uint16_t frag_len = kPduHeaderSize + 8 + 4 + 4 + 16 + 4 + 16 + 4;
  encode_pdu_header(w, dce_ptype::kBind, frag_len, call_id);
  w.u16le(4280);  // max xmit frag
  w.u16le(4280);  // max recv frag
  w.u32le(0);     // assoc group
  w.u8(1);        // num context items
  w.zeros(3);
  w.u16le(0);  // context id
  w.u8(1);     // num transfer syntaxes
  w.u8(0);
  w.bytes(std::span<const std::uint8_t>(iface.data(), iface.size()));
  w.u32le(1);  // interface version
  // NDR transfer syntax uuid (abbreviated as zeros) + version
  w.zeros(16);
  w.u32le(2);
  return out;
}

std::vector<std::uint8_t> encode_dce_bind_ack(std::uint32_t call_id) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  const std::uint16_t frag_len = kPduHeaderSize + 12;
  encode_pdu_header(w, dce_ptype::kBindAck, frag_len, call_id);
  w.u16le(4280);
  w.u16le(4280);
  w.u32le(0x12345);  // assoc group
  w.u32le(0);        // secondary address len + pad (simplified)
  return out;
}

std::vector<std::uint8_t> encode_dce_request(std::uint32_t call_id, std::uint16_t opnum,
                                             std::size_t stub_len) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  const auto frag_len =
      static_cast<std::uint16_t>(kPduHeaderSize + kRequestExtra + stub_len);
  encode_pdu_header(w, dce_ptype::kRequest, frag_len, call_id);
  w.u32le(static_cast<std::uint32_t>(stub_len));  // alloc hint
  w.u16le(0);                                     // context id
  w.u16le(opnum);
  // Stub data: opaque filler.
  const std::size_t base = out.size();
  out.resize(base + stub_len);
  for (std::size_t i = 0; i < stub_len; ++i) out[base + i] = static_cast<std::uint8_t>(i);
  return out;
}

std::vector<std::uint8_t> encode_dce_request_stub(std::uint32_t call_id, std::uint16_t opnum,
                                                  std::span<const std::uint8_t> stub) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  const auto frag_len =
      static_cast<std::uint16_t>(kPduHeaderSize + kRequestExtra + stub.size());
  encode_pdu_header(w, dce_ptype::kRequest, frag_len, call_id);
  w.u32le(static_cast<std::uint32_t>(stub.size()));
  w.u16le(0);
  w.u16le(opnum);
  w.bytes(stub);
  return out;
}

std::vector<std::uint8_t> encode_dce_response(std::uint32_t call_id, std::size_t stub_len) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  const auto frag_len =
      static_cast<std::uint16_t>(kPduHeaderSize + kRequestExtra + stub_len);
  encode_pdu_header(w, dce_ptype::kResponse, frag_len, call_id);
  w.u32le(static_cast<std::uint32_t>(stub_len));
  w.u16le(0);  // context id
  w.u16le(0);  // cancel count + pad
  for (std::size_t i = 0; i < stub_len; ++i) out.push_back(static_cast<std::uint8_t>(i));
  return out;
}

std::vector<std::uint8_t> encode_dce_response_stub(std::uint32_t call_id,
                                                   std::span<const std::uint8_t> stub) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  const auto frag_len =
      static_cast<std::uint16_t>(kPduHeaderSize + kRequestExtra + stub.size());
  encode_pdu_header(w, dce_ptype::kResponse, frag_len, call_id);
  w.u32le(static_cast<std::uint32_t>(stub.size()));
  w.u16le(0);
  w.u16le(0);
  w.bytes(stub);
  return out;
}

std::vector<std::uint8_t> encode_epm_map_stub(const DceUuid& iface, Ipv4Address server,
                                              std::uint16_t port) {
  // Seeded from the UUID rather than appended: gcc 12 at -O3 misreads the
  // insert into an empty vector as an overflow (-Wstringop-overflow).
  std::vector<std::uint8_t> out(iface.begin(), iface.end());
  ByteWriter w(out);
  w.u32be(server.value());
  w.u16be(port);
  return out;
}

bool decode_epm_map_stub(std::span<const std::uint8_t> stub, DceUuid& iface, Ipv4Address& server,
                         std::uint16_t& port) {
  if (stub.size() < 22) return false;
  ByteReader r(stub);
  auto u = r.bytes(16);
  std::copy(u.begin(), u.end(), iface.begin());
  server = Ipv4Address(r.u32be());
  port = r.u16be();
  return r.ok();
}

std::optional<DcePdu> decode_dce_pdu(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint8_t version = r.u8();
  r.u8();  // minor
  DcePdu pdu;
  pdu.ptype = r.u8();
  r.u8();      // flags
  r.u32le();   // drep
  pdu.frag_len = r.u16le();
  r.u16le();   // auth len
  pdu.call_id = r.u32le();
  if (!r.ok() || version != 5) return std::nullopt;

  switch (pdu.ptype) {
    case dce_ptype::kRequest: {
      r.u32le();  // alloc hint
      r.u16le();  // context id
      pdu.opnum = r.u16le();
      auto stub = r.rest();
      pdu.stub.assign(stub.begin(), stub.end());
      break;
    }
    case dce_ptype::kResponse: {
      r.u32le();
      r.u16le();
      r.u16le();
      auto stub = r.rest();
      pdu.stub.assign(stub.begin(), stub.end());
      break;
    }
    case dce_ptype::kBind: {
      r.u16le();  // max xmit
      r.u16le();  // max recv
      r.u32le();  // assoc group
      r.u8();     // num ctx
      r.skip(3);
      r.u16le();  // ctx id
      r.u8();     // num transfer syntaxes
      r.u8();
      auto u = r.bytes(16);
      if (!r.ok()) return std::nullopt;
      DceUuid uuid;
      std::copy(u.begin(), u.end(), uuid.begin());
      pdu.bind_uuid = uuid;
      break;
    }
    default:
      break;
  }
  if (!r.ok()) return std::nullopt;
  return pdu;
}

void DceRpcStream::feed(std::span<const std::uint8_t> data, std::vector<DcePdu>& out,
                        AnomalyCounts* anomalies) {
  buf_.append(data);
  if (buf_.overflowed()) {
    if (anomalies && !overflow_noted_) anomalies->add(AnomalyKind::kAppParseError);
    overflow_noted_ = true;
    return;
  }
  bool resynced = false;  // count a contiguous resync run once, not per byte
  for (;;) {
    auto avail = buf_.data();
    if (avail.size() < kPduHeaderSize) break;
    // Resync on garbage: a PDU must start with version 5 and a known ptype.
    if (avail[0] != 5 || avail[2] > 13) {
      resynced = true;
      buf_.consume(1);
      continue;
    }
    // frag_len lives at offset 8 (little-endian).
    const std::uint16_t frag_len = static_cast<std::uint16_t>(avail[8]) |
                                   static_cast<std::uint16_t>(avail[9]) << 8;
    if (frag_len < kPduHeaderSize) {  // malformed: resync by dropping a byte
      resynced = true;
      buf_.consume(1);
      continue;
    }
    if (avail.size() < frag_len) break;
    if (auto pdu = decode_dce_pdu(avail.first(frag_len))) {
      out.push_back(std::move(*pdu));
    } else {
      resynced = true;  // header looked sane but the PDU body was malformed
    }
    buf_.consume(frag_len);
  }
  if (resynced && anomalies) anomalies->add(AnomalyKind::kAppParseError);
}

DceRpcSession::DceRpcSession(std::vector<DceRpcCall>& calls, std::vector<EpmMapping>& mappings,
                             bool over_pipe)
    : calls_(calls), mappings_(mappings), over_pipe_(over_pipe) {}

void DceRpcSession::handle_pdu(Connection& conn, double ts, const DcePdu& pdu) {
  switch (pdu.ptype) {
    case dce_ptype::kBind:
      if (pdu.bind_uuid) iface_ = dce_iface_from_uuid(*pdu.bind_uuid);
      break;
    case dce_ptype::kRequest: {
      call_opnums_[pdu.call_id] = pdu.opnum;
      DceRpcCall call;
      call.conn = &conn;
      call.ts = ts;
      call.iface = iface_;
      call.opnum = pdu.opnum;
      call.over_pipe = over_pipe_;
      call.is_request = true;
      call.bytes = pdu.frag_len;
      calls_.push_back(call);
      break;
    }
    case dce_ptype::kResponse: {
      DceRpcCall call;
      call.conn = &conn;
      call.ts = ts;
      call.iface = iface_;
      auto it = call_opnums_.find(pdu.call_id);
      call.opnum = it != call_opnums_.end() ? it->second : 0;
      if (it != call_opnums_.end()) call_opnums_.erase(it);
      call.over_pipe = over_pipe_;
      call.is_request = false;
      call.bytes = pdu.frag_len;
      calls_.push_back(call);
      if (iface_ == DceIface::kEpm) {
        DceUuid uuid;
        Ipv4Address server;
        std::uint16_t port;
        if (decode_epm_map_stub(pdu.stub, uuid, server, port)) {
          EpmMapping m;
          m.conn = &conn;
          m.ts = ts;
          m.server = server;
          m.port = port;
          m.iface = dce_iface_from_uuid(uuid);
          mappings_.push_back(m);
        }
      }
      break;
    }
    default:
      break;
  }
}

DceRpcParser::DceRpcParser(std::vector<DceRpcCall>& calls, std::vector<EpmMapping>& mappings)
    : session_(calls, mappings, /*over_pipe=*/false) {}

void DceRpcParser::on_data(Connection& conn, Direction dir, double ts,
                           std::span<const std::uint8_t> data) {
  std::vector<DcePdu> pdus;
  (dir == Direction::kOrigToResp ? orig_stream_ : resp_stream_).feed(data, pdus, anomaly_sink());
  for (const auto& pdu : pdus) session_.handle_pdu(conn, ts, pdu);
}

}  // namespace entrace
