// Tests for DropTailQueue: FIFO order, tail drop, ECN marking, watermarks.
#include "net/queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "packet_fields.h"
#include "tcp/cc/hpcc.h"

namespace incast::net {
namespace {

Packet data_packet(std::int64_t seq = 0) { return make_data_packet(1, 2, 1, seq, 1460); }

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q{{.capacity_packets = 10, .ecn_threshold_packets = 0}};
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.enqueue(data_packet(i * 1460)));
  Packet out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.dequeue(out));
    EXPECT_EQ(out.tcp.seq, i * 1460);
  }
  EXPECT_FALSE(q.dequeue(out));
  // An empty dequeue leaves the caller's storage untouched.
  EXPECT_EQ(out.tcp.seq, 2 * 1460);
}

TEST(DropTailQueue, TailDropAtCapacity) {
  DropTailQueue q{{.capacity_packets = 2, .ecn_threshold_packets = 0}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));
  EXPECT_EQ(q.packets(), 2);
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.stats().dropped_bytes, 1500);
}

TEST(DropTailQueue, DropFreesSlotAfterDequeue) {
  DropTailQueue q{{.capacity_packets = 1, .ecn_threshold_packets = 0}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));
  Packet out;
  EXPECT_TRUE(q.dequeue(out));
  EXPECT_TRUE(q.enqueue(data_packet()));
}

TEST(DropTailQueue, EcnMarksWhenOccupancyAtThreshold) {
  DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 3}};
  // Packets 1-3 arrive with occupancy 0,1,2 -> unmarked.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.enqueue(data_packet()));
  }
  // Packet 4 arrives with occupancy 3 >= K -> marked CE.
  EXPECT_TRUE(q.enqueue(data_packet()));
  Packet out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.dequeue(out));
    EXPECT_EQ(out.ecn, Ecn::kEct0);
  }
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(out.ecn, Ecn::kCe);
  EXPECT_EQ(q.stats().ecn_marked_packets, 1);
}

TEST(DropTailQueue, EcnDisabledNeverMarks) {
  DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 0}};
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_EQ(q.stats().ecn_marked_packets, 0);
  Packet out;
  while (q.dequeue(out)) EXPECT_NE(out.ecn, Ecn::kCe);
}

TEST(DropTailQueue, NonEctPacketsAreNotMarked) {
  DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 1}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  Packet ack = make_ack_packet(1, 2, 1, 0, false);
  EXPECT_TRUE(q.enqueue(std::move(ack)));  // occupancy 1 >= K but NotEct
  Packet out;
  ASSERT_TRUE(q.dequeue(out));
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(out.ecn, Ecn::kNotEct);
  EXPECT_EQ(q.stats().ecn_marked_packets, 0);
}

TEST(DropTailQueue, BytesTracked) {
  DropTailQueue q{{.capacity_packets = 10, .ecn_threshold_packets = 0}};
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_EQ(q.bytes(), 1500);
  EXPECT_TRUE(q.enqueue(make_ack_packet(1, 2, 1, 0, false)));
  EXPECT_EQ(q.bytes(), 1540);
  Packet out;
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(q.bytes(), 40);
}

TEST(DropTailQueue, WatermarkTracksPeakSinceLastRead) {
  DropTailQueue q{{.capacity_packets = 10, .ecn_threshold_packets = 0}};
  for (int i = 0; i < 5; ++i) (void)q.enqueue(data_packet());
  Packet out;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(q.peak_packets(), 5);
  EXPECT_EQ(q.take_watermark(), 5);
  // After reading, the watermark restarts from the current occupancy (1).
  EXPECT_EQ(q.peak_packets(), 1);
  (void)q.enqueue(data_packet());
  EXPECT_EQ(q.take_watermark(), 2);
}

TEST(DropTailQueue, StatsCountEnqueuesAndDequeues) {
  DropTailQueue q{{.capacity_packets = 2, .ecn_threshold_packets = 0}};
  (void)q.enqueue(data_packet());
  (void)q.enqueue(data_packet());
  (void)q.enqueue(data_packet());  // dropped
  Packet out;
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(q.stats().enqueued_packets, 2);
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.stats().dequeued_packets, 1);
  EXPECT_EQ(q.stats().dequeued_bytes, 1500);
}

TEST(DropTailQueue, ByteCapacityLimitsMixedSizes) {
  // 10,000-packet slot budget but only 5 KB of memory: three MTU frames
  // fit, the fourth tail-drops on bytes.
  DropTailQueue q{{.capacity_packets = 10'000, .capacity_bytes = 5'000,
                   .ecn_threshold_packets = 0}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));  // 6000 > 5000
  // Small packets still fit in the remaining bytes.
  EXPECT_TRUE(q.enqueue(make_ack_packet(1, 2, 1, 0, false)));
  EXPECT_EQ(q.stats().dropped_packets, 1);
}

TEST(DropTailQueue, ByteCapacityDisabledByDefault) {
  DropTailQueue q{{.capacity_packets = 2, .ecn_threshold_packets = 0}};
  EXPECT_EQ(q.config().capacity_bytes, 0);
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));  // packet cap still applies
}

// Property sweep: occupancy never exceeds capacity for any capacity.
class QueueCapacityProperty : public ::testing::TestWithParam<int> {};

TEST_P(QueueCapacityProperty, OccupancyNeverExceedsCapacity) {
  const int capacity = GetParam();
  DropTailQueue q{{.capacity_packets = capacity, .ecn_threshold_packets = 5}};
  for (int i = 0; i < capacity * 3 + 7; ++i) {
    (void)q.enqueue(data_packet());
    ASSERT_LE(q.packets(), capacity);
  }
  EXPECT_EQ(q.packets(), capacity);
  EXPECT_EQ(q.stats().dropped_packets, capacity * 2 + 7);
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueCapacityProperty,
                         ::testing::Values(1, 2, 3, 10, 65, 1333));

TEST(DropTailQueue, EveryFieldSurvivesRingGrowthAndWrap) {
  // Rounds of uneven enqueue/dequeue leave the ring's head mid-buffer, so
  // later rounds wrap around the end and grow (16 -> 32 -> 64 slots) while
  // wrapped. Every field and both INT hops must come out as they went in.
  DropTailQueue q{{.capacity_packets = 1000, .ecn_threshold_packets = 0}};
  std::deque<Packet> expected;
  int next = 0;
  Packet out;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 5 + 7 * round; ++i) {
      expected.push_back(full_packet(next));
      ASSERT_TRUE(q.enqueue(full_packet(next++)));
    }
    const std::size_t take = expected.size() / 2 + 1;
    for (std::size_t i = 0; i < take; ++i) {
      ASSERT_TRUE(q.dequeue(out));
      expect_same_packet(out, expected.front());
      expected.pop_front();
    }
  }
  while (!expected.empty()) {
    ASSERT_TRUE(q.dequeue(out));
    expect_same_packet(out, expected.front());
    expected.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

// A packet whose INT stack carries `hops` records of `qlen_bytes` each.
Packet int_packet(int hops, std::int64_t t_ns, std::int64_t qlen_bytes) {
  Packet p = make_data_packet(1, 2, 1, 0, 1460);
  p.int_stack.enabled = true;
  for (int h = 0; h < hops; ++h) {
    EXPECT_TRUE(p.int_stack.push(IntHopRecord{.qlen_bytes = qlen_bytes,
                                              .tx_bytes = t_ns / 10,
                                              .link_bps = 10'000'000'000,
                                              .timestamp_ns = t_ns}));
  }
  return p;
}

TEST(DropTailQueue, StaleHopRecordsPastNumHopsAreNeverRead) {
  // The ring and the caller's slot copy only a packet's stamped hops, so
  // a slot that last held a 3-hop packet keeps the old records past
  // num_hops. Those records report a saturated hop (a queue far above a
  // BDP) and the live ones an idle hop, so HPCC reading a stale record
  // would crush its window; it must see exactly what a clean stack shows.
  DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 0}};
  tcp::HpccCc from_slot{tcp::HpccConfig{}};
  tcp::HpccCc from_clean{tcp::HpccConfig{}};
  Packet slot;
  for (int k = 1; k <= 6; ++k) {
    const std::int64_t t = 1000 * k;
    ASSERT_TRUE(q.enqueue(int_packet(3, t, 10'000'000)));
    ASSERT_TRUE(q.dequeue(slot));
    const int live_hops = k % 2;  // alternately 0 and 1 stamped hop
    ASSERT_TRUE(q.enqueue(int_packet(live_hops, t + 500, 0)));
    ASSERT_TRUE(q.dequeue(slot));
    ASSERT_EQ(slot.int_stack.num_hops, live_hops);

    tcp::AckEvent ev;
    ev.newly_acked_bytes = 1460;
    ev.now = sim::Time::nanoseconds(t + 500);
    ev.int_stack = slot.int_stack;
    from_slot.on_ack(ev);
    ev.int_stack = int_packet(live_hops, t + 500, 0).int_stack;
    from_clean.on_ack(ev);
    EXPECT_EQ(from_slot.cwnd_bytes(), from_clean.cwnd_bytes()) << "ack " << k;
  }
}

}  // namespace
}  // namespace incast::net
