// Tests for the flow table: TCP state machine, retransmission/keepalive
// detection, stream delivery, UDP/ICMP flow handling.
#include <gtest/gtest.h>

#include "flow/flow_table.h"
#include "net/encoder.h"

namespace entrace {
namespace {

const FrameEndpoints kAb{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                         Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10)};
const FrameEndpoints kBa{MacAddress::from_host_id(2), MacAddress::from_host_id(1),
                         Ipv4Address(128, 3, 2, 10), Ipv4Address(128, 3, 1, 10)};

class Recorder : public FlowObserver {
 public:
  void on_data(Connection&, Direction dir, double, std::span<const std::uint8_t> data,
               std::uint32_t) override {
    auto& buf = dir == Direction::kOrigToResp ? orig : resp;
    buf.insert(buf.end(), data.begin(), data.end());
  }
  void on_close(Connection&) override { ++closes; }
  void on_new_connection(Connection&) override { ++opens; }

  std::vector<std::uint8_t> orig, resp;
  int opens = 0;
  int closes = 0;
};

struct Driver {
  FlowTable table;
  Recorder* recorder;
  explicit Driver(Recorder* rec = nullptr) : table(FlowConfig{}, rec), recorder(rec) {}

  PacketVerdict tcp(bool a_to_b, double ts, std::uint32_t seq, std::uint32_t ack,
                    std::uint8_t flags, std::size_t payload_len = 0) {
    const auto frame = make_tcp_frame(a_to_b ? kAb : kBa, a_to_b ? 5000 : 80,
                                      a_to_b ? 80 : 5000, seq, ack, flags,
                                      filler_payload(payload_len));
    RawPacket pkt{ts, static_cast<std::uint32_t>(frame.size()), frame};
    auto d = decode_packet(pkt);
    EXPECT_TRUE(d.has_value());
    return table.process(*d);
  }

  PacketVerdict udp(bool a_to_b, double ts, std::size_t payload_len) {
    const auto frame = make_udp_frame(a_to_b ? kAb : kBa, a_to_b ? 5000 : 53,
                                      a_to_b ? 53 : 5000, filler_payload(payload_len));
    RawPacket pkt{ts, static_cast<std::uint32_t>(frame.size()), frame};
    auto d = decode_packet(pkt);
    EXPECT_TRUE(d.has_value());
    return table.process(*d);
  }
};

TEST(FlowTable, TcpHandshakeEstablishesAndCloses) {
  Recorder rec;
  Driver d(&rec);
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck);
  d.tcp(true, 0.003, 101, 501, tcpflag::kAck | tcpflag::kPsh, 10);
  d.tcp(false, 0.004, 501, 111, tcpflag::kAck | tcpflag::kPsh, 20);
  d.tcp(true, 0.005, 111, 521, tcpflag::kFin | tcpflag::kAck);
  d.tcp(false, 0.006, 521, 112, tcpflag::kFin | tcpflag::kAck);
  d.table.flush();

  ASSERT_EQ(d.table.connections().size(), 1u);
  const Connection& c = d.table.connections().front();
  EXPECT_EQ(c.state, ConnState::kClosed);
  EXPECT_TRUE(c.successful());
  EXPECT_EQ(c.orig_bytes, 10u);
  EXPECT_EQ(c.resp_bytes, 20u);
  EXPECT_EQ(c.key.src, kAb.src_ip);  // originator = SYN sender
  EXPECT_EQ(rec.orig.size(), 10u);
  EXPECT_EQ(rec.resp.size(), 20u);
  EXPECT_EQ(rec.opens, 1);
  EXPECT_EQ(rec.closes, 1);
  EXPECT_NEAR(c.duration(), 0.006, 1e-9);
}

TEST(FlowTable, RejectedConnection) {
  Driver d;
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 0, 101, tcpflag::kRst | tcpflag::kAck);
  d.table.flush();
  ASSERT_EQ(d.table.connections().size(), 1u);
  EXPECT_EQ(d.table.connections().front().state, ConnState::kRejected);
  EXPECT_FALSE(d.table.connections().front().successful());
}

TEST(FlowTable, UnansweredSyn) {
  Driver d;
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(true, 3.0, 100, 0, tcpflag::kSyn);  // retry
  d.table.flush();
  ASSERT_EQ(d.table.connections().size(), 1u);
  const Connection& c = d.table.connections().front();
  EXPECT_EQ(c.state, ConnState::kUnanswered);
  EXPECT_EQ(c.retransmissions, 1u);  // duplicate SYN
}

TEST(FlowTable, EstablishedThenReset) {
  Driver d;
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 5);
  d.tcp(true, 0.003, 106, 501, tcpflag::kRst);
  d.table.flush();
  EXPECT_EQ(d.table.connections().front().state, ConnState::kReset);
  EXPECT_TRUE(d.table.connections().front().successful());
}

TEST(FlowTable, RetransmissionDetected) {
  Recorder rec;
  Driver d(&rec);
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 100);
  auto v = d.tcp(true, 0.010, 101, 501, tcpflag::kAck, 100);  // same data again
  EXPECT_TRUE(v.tcp_retransmission);
  EXPECT_FALSE(v.keepalive_retx);
  d.table.flush();
  const Connection& c = d.table.connections().front();
  EXPECT_EQ(c.retransmissions, 1u);
  EXPECT_EQ(c.orig_bytes, 100u);       // retransmitted bytes not double-counted
  EXPECT_EQ(rec.orig.size(), 100u);    // delivered exactly once
}

TEST(FlowTable, PartialOverlapDeliversOnlyNewBytes) {
  Recorder rec;
  Driver d(&rec);
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 100);
  // Overlapping segment: bytes [151, 251) are new.
  d.tcp(true, 0.003, 151, 501, tcpflag::kAck, 100);
  d.table.flush();
  EXPECT_EQ(d.table.connections().front().orig_bytes, 150u);
  EXPECT_EQ(rec.orig.size(), 150u);
}

TEST(FlowTable, KeepaliveProbesCounted) {
  Driver d;
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 10);  // real byte(s)
  // 1-byte probe re-sending the last byte: seq = next-1.
  auto v = d.tcp(true, 30.0, 110, 501, tcpflag::kAck, 1);
  EXPECT_TRUE(v.tcp_retransmission);
  EXPECT_TRUE(v.keepalive_retx);
  d.tcp(true, 60.0, 110, 501, tcpflag::kAck, 1);
  d.table.flush();
  const Connection& c = d.table.connections().front();
  EXPECT_EQ(c.keepalive_retx, 2u);
  EXPECT_EQ(c.orig_bytes, 10u);
}

TEST(FlowTable, SequenceGapStillDelivers) {
  Recorder rec;
  Driver d(&rec);
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 50);
  // A 50-byte hole (capture drop), then more data.
  d.tcp(true, 0.003, 201, 501, tcpflag::kAck, 50);
  d.table.flush();
  EXPECT_EQ(rec.orig.size(), 100u);
  EXPECT_EQ(d.table.connections().front().orig_bytes, 150u);  // seq-based accounting
}

TEST(FlowTable, NewSynAfterCloseStartsNewConnection) {
  Driver d;
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kRst);
  d.tcp(true, 5.0, 9000, 0, tcpflag::kSyn);
  d.tcp(false, 5.001, 400, 9001, tcpflag::kSyn | tcpflag::kAck);
  d.table.flush();
  EXPECT_EQ(d.table.connections().size(), 2u);
}

TEST(FlowTable, MidstreamPickupCountsAsEstablished) {
  Driver d;
  // No handshake observed (trace started mid-connection).
  d.tcp(true, 0.0, 1000, 2000, tcpflag::kAck, 100);
  d.tcp(false, 0.001, 2000, 1100, tcpflag::kAck, 200);
  d.tcp(true, 0.002, 1100, 2200, tcpflag::kAck, 50);
  d.table.flush();
  ASSERT_EQ(d.table.connections().size(), 1u);
  const Connection& c = d.table.connections().front();
  EXPECT_TRUE(c.successful());
  EXPECT_EQ(c.orig_bytes, 150u);
  EXPECT_EQ(c.resp_bytes, 200u);
}

TEST(FlowTable, UdpFlowAggregation) {
  Recorder rec;
  Driver d(&rec);
  d.udp(true, 0.0, 30);
  d.udp(false, 0.001, 60);
  d.udp(true, 1.0, 30);
  d.table.flush();
  ASSERT_EQ(d.table.connections().size(), 1u);
  const Connection& c = d.table.connections().front();
  EXPECT_EQ(c.orig_bytes, 60u);
  EXPECT_EQ(c.resp_bytes, 60u);
  EXPECT_TRUE(c.successful());
  EXPECT_EQ(rec.orig.size(), 60u);
}

TEST(FlowTable, UdpIdleTimeoutSplitsFlows) {
  Driver d;
  d.udp(true, 0.0, 10);
  d.udp(true, 30.0, 10);
  d.udp(true, 200.0, 10);  // > 60 s gap: new flow
  d.table.flush();
  EXPECT_EQ(d.table.connections().size(), 2u);
}

TEST(FlowTable, IcmpEchoPairsIntoOneFlow) {
  Driver d;
  auto frame1 = make_icmp_frame(kAb, IcmpHeader::kEchoRequest, 0, 77, 1, 56);
  auto frame2 = make_icmp_frame(kBa, IcmpHeader::kEchoReply, 0, 77, 1, 56);
  for (auto* f : {&frame1, &frame2}) {
    RawPacket pkt{0.0, static_cast<std::uint32_t>(f->size()), *f};
    auto dec = decode_packet(pkt);
    ASSERT_TRUE(dec.has_value());
    d.table.process(*dec);
  }
  d.table.flush();
  ASSERT_EQ(d.table.connections().size(), 1u);
  EXPECT_EQ(d.table.connections().front().orig_pkts, 1u);
  EXPECT_EQ(d.table.connections().front().resp_pkts, 1u);
}

TEST(FlowTable, SynWithNewIsnOnLiveTupleStartsFreshConnection) {
  // Port reuse: a client reuses the same ephemeral port for a second
  // connection while the table still holds the first (no FIN/RST seen).
  // The pure SYN carries a new ISN, so it must close the old entry and
  // start a fresh Connection — not be miscounted as a retransmission that
  // silently overwrites orig_isn.
  Recorder rec;
  Driver d(&rec);
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 10);
  // Second connection on the identical 5-tuple, new ISN, old one never closed.
  d.tcp(true, 5.0, 9000, 0, tcpflag::kSyn);
  d.tcp(false, 5.001, 7000, 9001, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 5.002, 9001, 7001, tcpflag::kAck, 25);
  d.table.flush();

  ASSERT_EQ(d.table.connections().size(), 2u);
  const Connection& first = d.table.connections()[0];
  const Connection& second = d.table.connections()[1];
  EXPECT_EQ(first.orig_isn, 100u);
  EXPECT_EQ(first.orig_bytes, 10u);
  EXPECT_EQ(first.retransmissions, 0u);
  EXPECT_EQ(second.orig_isn, 9000u);
  EXPECT_EQ(second.orig_bytes, 25u);
  EXPECT_EQ(second.retransmissions, 0u);
  EXPECT_EQ(d.table.stats().tcp_tuple_reuse, 1u);
  EXPECT_EQ(d.table.stats().conns_opened, 2u);
  EXPECT_EQ(d.table.stats().conns_closed, 2u);
  EXPECT_EQ(rec.opens, 2);
  EXPECT_EQ(rec.closes, 2);
}

TEST(FlowTable, DuplicateSynSameIsnStaysOneConnection) {
  // A retransmitted SYN (same ISN) on an established connection must NOT
  // trigger the port-reuse split.
  Driver d;
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 10);
  d.tcp(true, 0.5, 100, 0, tcpflag::kSyn);  // stale duplicate of the original SYN
  d.table.flush();

  ASSERT_EQ(d.table.connections().size(), 1u);
  EXPECT_EQ(d.table.connections().front().orig_isn, 100u);
  EXPECT_EQ(d.table.connections().front().retransmissions, 1u);
  EXPECT_EQ(d.table.stats().tcp_tuple_reuse, 0u);
}

TEST(FlowTable, ChurnCountersTrackOpensAndCloses) {
  Driver d;
  d.tcp(true, 0.0, 100, 0, tcpflag::kSyn);
  d.tcp(false, 0.001, 500, 101, tcpflag::kSyn | tcpflag::kAck);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 10);
  d.tcp(true, 0.002, 101, 501, tcpflag::kAck, 10);  // retransmission
  d.udp(true, 0.1, 30);
  EXPECT_EQ(d.table.stats().conns_opened, 2u);
  EXPECT_EQ(d.table.stats().conns_closed, 0u);
  d.table.flush();
  EXPECT_EQ(d.table.stats().conns_closed, 2u);
  EXPECT_EQ(d.table.stats().tcp_retransmissions, 1u);
}

TEST(FlowTable, MulticastFlagSet) {
  Driver d;
  const FrameEndpoints mcast{MacAddress::from_host_id(1), MacAddress::from_host_id(3),
                             Ipv4Address(128, 3, 1, 10), Ipv4Address(239, 1, 2, 3)};
  auto frame = make_udp_frame(mcast, 427, 427, filler_payload(50));
  RawPacket pkt{0.0, static_cast<std::uint32_t>(frame.size()), frame};
  auto dec = decode_packet(pkt);
  d.table.process(*dec);
  d.table.flush();
  ASSERT_EQ(d.table.connections().size(), 1u);
  EXPECT_TRUE(d.table.connections().front().multicast);
  EXPECT_TRUE(d.table.connections().front().successful());
}

// A default-constructed map holds no slots until its first insert; lookups,
// clear() and growth past the initial capacity must all behave as if it
// had been allocated up front.
TEST(FlowMap, EmptyMapAllocatesOnFirstInsert) {
  FlowMap map;
  EXPECT_EQ(map.find_slot(1, 2), FlowMap::kNoSlot);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  constexpr std::uint32_t kKeys = 3000;  // several doublings past the first allocation
  for (std::uint32_t i = 0; i < kKeys; ++i) map.insert(i, ~std::uint64_t{i}, i);
  ASSERT_EQ(map.size(), kKeys);
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    const std::size_t slot = map.find_slot(i, ~std::uint64_t{i});
    ASSERT_NE(slot, FlowMap::kNoSlot) << i;
    EXPECT_EQ(map.value_at(slot), i);
  }
  for (std::uint32_t i = 0; i < kKeys; i += 2) map.erase_slot(map.find_slot(i, ~std::uint64_t{i}));
  EXPECT_EQ(map.size(), kKeys / 2);
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(map.find_slot(i, ~std::uint64_t{i}) != FlowMap::kNoSlot, i % 2 == 1) << i;
  }
}

}  // namespace
}  // namespace entrace
