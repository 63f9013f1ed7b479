// Test helpers: a packet with every field set away from its default, and a
// field-by-field comparison that honors the INT contract (only
// hops[0, num_hops) are ever read). Used by the ring round-trip tests.
#ifndef INCAST_TESTS_PACKET_FIELDS_H_
#define INCAST_TESTS_PACKET_FIELDS_H_

#include <gtest/gtest.h>

#include <cstdint>

#include "net/packet.h"

namespace incast::net {

// Packet `i` of a sequence, with 2 stamped INT hops and 3 SACK blocks.
// `payload` 0 makes a header-only packet (a CompositeQueue header-ring
// rider); every other field is non-default either way.
inline Packet full_packet(int i, std::int64_t payload = 1460) {
  Packet p;
  p.src = 10 + static_cast<NodeId>(i);
  p.dst = 20 + static_cast<NodeId>(i);
  p.payload_bytes = payload;
  p.size_bytes = payload + kHeaderBytes + i;
  p.ecn = Ecn::kEct1;
  p.tcp.flow_id = 1000 + static_cast<FlowId>(i);
  p.tcp.seq = 1460LL * i + 1;
  p.tcp.ack = 7LL * i + 3;
  p.tcp.syn = p.tcp.fin = p.tcp.has_ack = p.tcp.ece = p.tcp.cwr = p.tcp.nack = true;
  p.tcp.num_sack = kMaxSackBlocks;
  for (int b = 0; b < kMaxSackBlocks; ++b) {
    p.tcp.sack[static_cast<std::size_t>(b)] = SackBlock{100LL * i + 10 * b, 100LL * i + 10 * b + 5};
  }
  p.rdt = RdtHeader{RdtType::kGrant, 11LL * i + 1, 13LL * i + 2};
  p.ctrl = CtrlHeader{CtrlType::kPfcResume, 17LL * i + 4};
  p.viq = static_cast<std::int16_t>(3 + i);
  p.trimmed = p.is_retransmit = p.corrupted = p.flow_traced = true;
  p.trace_enqueue_ns = 19LL * i + 5;
  p.trace_paused_ns = 23LL * i + 6;
  p.sent_at = sim::Time::nanoseconds(29LL * i + 7);
  p.uid = 31ULL * static_cast<std::uint64_t>(i) + 8;
  p.int_stack.enabled = true;
  for (int h = 0; h < 2; ++h) {
    EXPECT_TRUE(p.int_stack.push(IntHopRecord{37LL * i + h, 41LL * i + h,
                                              43LL * i + h + 1, 47LL * i + h + 2}));
  }
  return p;
}

inline void expect_same_packet(const Packet& got, const Packet& want) {
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.size_bytes, want.size_bytes);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(got.ecn, want.ecn);
  EXPECT_EQ(got.tcp.flow_id, want.tcp.flow_id);
  EXPECT_EQ(got.tcp.seq, want.tcp.seq);
  EXPECT_EQ(got.tcp.ack, want.tcp.ack);
  EXPECT_EQ(got.tcp.syn, want.tcp.syn);
  EXPECT_EQ(got.tcp.fin, want.tcp.fin);
  EXPECT_EQ(got.tcp.has_ack, want.tcp.has_ack);
  EXPECT_EQ(got.tcp.ece, want.tcp.ece);
  EXPECT_EQ(got.tcp.cwr, want.tcp.cwr);
  EXPECT_EQ(got.tcp.nack, want.tcp.nack);
  EXPECT_EQ(got.tcp.num_sack, want.tcp.num_sack);
  EXPECT_EQ(got.tcp.sack, want.tcp.sack);
  EXPECT_EQ(got.rdt.type, want.rdt.type);
  EXPECT_EQ(got.rdt.offset, want.rdt.offset);
  EXPECT_EQ(got.rdt.length, want.rdt.length);
  EXPECT_EQ(got.ctrl.type, want.ctrl.type);
  EXPECT_EQ(got.ctrl.pause_ns, want.ctrl.pause_ns);
  EXPECT_EQ(got.viq, want.viq);
  EXPECT_EQ(got.trimmed, want.trimmed);
  EXPECT_EQ(got.is_retransmit, want.is_retransmit);
  EXPECT_EQ(got.corrupted, want.corrupted);
  EXPECT_EQ(got.flow_traced, want.flow_traced);
  EXPECT_EQ(got.trace_enqueue_ns, want.trace_enqueue_ns);
  EXPECT_EQ(got.trace_paused_ns, want.trace_paused_ns);
  EXPECT_EQ(got.sent_at, want.sent_at);
  EXPECT_EQ(got.uid, want.uid);
  EXPECT_EQ(got.int_stack.enabled, want.int_stack.enabled);
  ASSERT_EQ(got.int_stack.num_hops, want.int_stack.num_hops);
  for (int h = 0; h < want.int_stack.num_hops; ++h) {
    EXPECT_EQ(got.int_stack.hops[static_cast<std::size_t>(h)],
              want.int_stack.hops[static_cast<std::size_t>(h)])
        << "hop " << h;
  }
}

}  // namespace incast::net

#endif  // INCAST_TESTS_PACKET_FIELDS_H_
