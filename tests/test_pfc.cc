// PFC lossless-Ethernet tests: LosslessInputQueue XOFF/XON hysteresis and
// headroom accounting, Port pause auto-expiry (the deadlock watchdog), the
// strict-priority control-frame path, the switch's VIQ unwind when its
// egress trims or drops, and an end-to-end run where resume frames are lost
// on the wire yet the fabric never deadlocks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/node.h"
#include "net/pfc.h"
#include "net/switch.h"
#include "net/topology.h"
#include "tcp/tcp_connection.h"

namespace incast::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

using Action = LosslessInputQueue::Action;

LosslessInputQueue::Config small_pfc() {
  LosslessInputQueue::Config cfg;
  cfg.xoff_bytes = 10'000;
  cfg.xon_bytes = 6'000;
  cfg.headroom_bytes = 5'000;
  cfg.pause_ns = 100'000;
  return cfg;
}

TEST(PfcViq, ArrivalsBelowXoffAreSilent) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(4'000), Action::kNone);
  EXPECT_EQ(q.on_arrival(4'000), Action::kNone);
  EXPECT_EQ(q.bytes(), 8'000);
  EXPECT_FALSE(q.paused_upstream());
  EXPECT_EQ(q.stats().pause_frames, 0);
}

TEST(PfcViq, CrossingXoffPausesAndEveryFurtherArrivalRefreshes) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(9'000), Action::kNone);
  // This charge lands at 10'500 >= XOFF: pause.
  EXPECT_EQ(q.on_arrival(1'500), Action::kSendPause);
  EXPECT_TRUE(q.paused_upstream());
  // PFC quanta expire upstream, so every in-flight arrival at/above XOFF
  // re-arms the pause — a single stale frame must not be the only thing
  // holding the congestion tree up.
  EXPECT_EQ(q.on_arrival(1'500), Action::kSendPause);
  EXPECT_EQ(q.on_arrival(1'500), Action::kSendPause);
  EXPECT_EQ(q.stats().pause_frames, 3);
}

TEST(PfcViq, ResumeFiresOnceCrossingXon) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(12'000), Action::kSendPause);
  // Draining from 12'000: still above XON at 8'000, nothing yet.
  EXPECT_EQ(q.on_departure(4'000), Action::kNone);
  EXPECT_TRUE(q.paused_upstream());
  // Crossing below XON = 6'000: exactly one resume.
  EXPECT_EQ(q.on_departure(4'000), Action::kSendResume);
  EXPECT_FALSE(q.paused_upstream());
  EXPECT_EQ(q.on_departure(2'000), Action::kNone);
  EXPECT_EQ(q.stats().resume_frames, 1);
  // The hysteresis band re-arms: fill back up and it pauses again.
  EXPECT_EQ(q.on_arrival(9'000), Action::kSendPause);
  EXPECT_EQ(q.stats().pause_frames, 2);
}

TEST(PfcViq, HeadroomAbsorbsInFlightBytesAfterPause) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(10'000), Action::kSendPause);
  // Bytes already serialized upstream keep landing; headroom absorbs them
  // up to xoff + headroom = 15'000.
  EXPECT_EQ(q.on_arrival(5'000), Action::kSendPause);
  EXPECT_EQ(q.bytes(), 15'000);
  EXPECT_EQ(q.stats().overflow_dropped_packets, 0);
  EXPECT_EQ(q.stats().peak_bytes, 15'000);
}

TEST(PfcViq, HeadroomOverflowDropsWithoutCharging) {
  LosslessInputQueue q{small_pfc()};
  EXPECT_EQ(q.on_arrival(15'000), Action::kSendPause);
  // Beyond xoff + headroom the lossless guarantee is broken: the packet is
  // dropped and NOT charged to the queue.
  EXPECT_EQ(q.on_arrival(1'500), Action::kDropOverflow);
  EXPECT_EQ(q.bytes(), 15'000);
  EXPECT_EQ(q.stats().overflow_dropped_packets, 1);
  EXPECT_EQ(q.stats().overflow_dropped_bytes, 1'500);
  // Draining afterwards still balances to zero: the drop never entered.
  EXPECT_EQ(q.on_departure(15'000), Action::kSendResume);
  EXPECT_EQ(q.bytes(), 0);
}

// ---------------------------------------------------------------------------
// Port-level pause behaviour.

class SinkNode final : public Node {
 public:
  using Node::Node;
  void receive(Packet&& p, std::size_t) override {
    arrivals.push_back({sim_.now(), std::move(p)});
  }
  struct Arrival {
    Time at;
    Packet packet;
  };
  std::vector<Arrival> arrivals;
};

class SourceNode final : public Node {
 public:
  using Node::Node;
  void receive(Packet&&, std::size_t) override {}
};

struct PauseFixture {
  Simulator sim;
  SourceNode src{sim, 0, "src"};
  SinkNode dst{sim, 1, "dst"};

  // 10 Gbps, 1 us propagation: 1500 B serializes in 1.2 us.
  PauseFixture() {
    src.add_port(sim::Bandwidth::gigabits_per_second(10), 1_us,
                 DropTailQueue::Config{.capacity_packets = 100, .ecn_threshold_packets = 0});
    src.port(0).connect(dst, 0);
  }
};

TEST(PfcPort, PauseHoldsDataUntilAutoExpiry) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(50));
  f.src.port(0).send(make_data_packet(0, 1, 1, 0, 1460));
  EXPECT_TRUE(f.src.port(0).pfc_paused());
  f.sim.run();
  // No resume frame ever arrived; the quantum expired on its own and the
  // packet went out at 50 us (+1.2 us serialization, +1 us propagation).
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(52.2));
  EXPECT_FALSE(f.src.port(0).pfc_paused());
  EXPECT_EQ(f.src.port(0).pause_count(), 1);
  EXPECT_EQ(f.src.port(0).paused_ns(), 50'000);
}

TEST(PfcPort, RepeatedPauseFramesExtendTheQuantum) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(20));
  // A refresh at t=10 us re-arms expiry to 10 + 20 = 30 us; the stale
  // expiry at 20 us must not resume the port early.
  f.sim.schedule_at(10_us, [&] { f.src.port(0).pause_for(Time::microseconds(20)); });
  f.src.port(0).send(make_data_packet(0, 1, 1, 0, 1460));
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(32.2));
  // One contiguous paused interval, even though two frames arrived.
  EXPECT_EQ(f.src.port(0).pause_count(), 1);
  EXPECT_EQ(f.src.port(0).paused_ns(), 30'000);
}

TEST(PfcPort, ResumeFrameLiftsPauseEarly) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(100));
  f.src.port(0).send(make_data_packet(0, 1, 1, 0, 1460));
  f.sim.schedule_at(5_us, [&] { f.src.port(0).resume(); });
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(7.2));
  EXPECT_EQ(f.src.port(0).paused_ns(), 5'000);
}

TEST(PfcPort, ControlFramesBypassAPausedPort) {
  PauseFixture f;
  f.src.port(0).pause_for(Time::microseconds(100));
  f.src.port(0).send(make_data_packet(0, 1, 1, 0, 1460));
  f.src.port(0).send_control(make_resume_frame(0, 1));
  f.sim.run_until(50_us);
  // The control frame went out despite the pause; the data did not.
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  EXPECT_EQ(f.dst.arrivals[0].packet.ctrl.type, CtrlType::kPfcResume);
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 2u);
  EXPECT_TRUE(f.dst.arrivals[1].packet.is_data());
}

// ---------------------------------------------------------------------------
// VIQ unwind at the switch. A packet charged to its ingress VIQ is credited
// back when it leaves the egress queue — or, when the egress drops or trims
// it on the way in, by Switch::receive right after the send. The egress
// queue marks, trims and consumes the switch's own packet object, so that
// unwind must work from values read before the hand-off; a leak here leaves
// the VIQ above XON forever and the upstream pause never lifts.

// Three line-rate sources into one PFC switch whose single egress toward
// the sink is `egress_queue`. The sources ignore pause frames, so the
// egress, not PFC, has to absorb the 3x overload — by trimming or dropping.
struct LosslessFanIn {
  static constexpr int kSources = 3;
  Simulator sim;
  std::vector<std::unique_ptr<SourceNode>> sources;
  Switch sw{sim, 100, "sw"};
  SinkNode sink{sim, 200, "sink"};
  std::size_t egress{0};

  explicit LosslessFanIn(const DropTailQueue::Config& egress_queue) {
    const auto bw = sim::Bandwidth::gigabits_per_second(10);
    const DropTailQueue::Config roomy{.capacity_packets = 1000, .ecn_threshold_packets = 0};
    for (int i = 0; i < kSources; ++i) {
      sources.push_back(std::make_unique<SourceNode>(sim, static_cast<NodeId>(i),
                                                     "src" + std::to_string(i)));
      sources.back()->add_port(bw, 1_us, roomy);
      const std::size_t in = sw.add_port(bw, 1_us, roomy);
      connect_duplex(*sources.back(), 0, sw, in);
    }
    egress = sw.add_port(bw, 1_us, egress_queue);
    sink.add_port(bw, 1_us, roomy);
    connect_duplex(sw, egress, sink, 0);
    sw.set_route(sink.id(), egress);
    // Headroom far beyond the burst: every arrival is charged (no overflow
    // drops), and the VIQs cross XOFF so pause and resume both fire.
    LosslessInputQueue::Config pfc;
    pfc.xoff_bytes = 3'000;
    pfc.xon_bytes = 1'500;
    pfc.headroom_bytes = 10'000'000;
    sw.enable_pfc(pfc);
  }

  // Queues `per_source` MTU data packets at every source at t = 0.
  void blast(int per_source) {
    for (int i = 0; i < kSources; ++i) {
      for (int k = 0; k < per_source; ++k) {
        sources[static_cast<std::size_t>(i)]->port(0).send(make_data_packet(
            static_cast<NodeId>(i), sink.id(), static_cast<FlowId>(i + 1), k * 1460, 1460));
      }
    }
  }

  void expect_viqs_drained() const {
    ASSERT_EQ(sw.num_viqs(), sw.num_ports());
    for (std::size_t i = 0; i < sw.num_viqs(); ++i) {
      EXPECT_EQ(sw.viq(i)->bytes(), 0) << "viq " << i;
      EXPECT_FALSE(sw.viq(i)->paused_upstream()) << "viq " << i;
      EXPECT_EQ(sw.viq(i)->stats().overflow_dropped_packets, 0) << "viq " << i;
    }
    for (int i = 0; i < kSources; ++i) {
      const LosslessInputQueue& viq = *sw.viq(static_cast<std::size_t>(i));
      EXPECT_GT(viq.stats().pause_frames, 0) << "source " << i;
      EXPECT_GT(viq.stats().resume_frames, 0) << "source " << i;
    }
  }
};

TEST(PfcSwitch, TrimmingEgressUnwindsEveryViqCharge) {
  LosslessFanIn f{DropTailQueue::Config{.capacity_packets = 4,
                                        .ecn_threshold_packets = 0,
                                        .discipline = QueueDiscipline::kTrimming}};
  constexpr int kPerSource = 20;
  f.blast(kPerSource);
  f.sim.run();

  const DropTailQueue::Stats& out = f.sw.port(f.egress).queue().stats();
  EXPECT_GT(out.trimmed_packets, 0);
  EXPECT_EQ(out.dropped_packets, 0);
  // Every packet reached the sink, trimmed ones as 64 B headers.
  ASSERT_EQ(f.sink.arrivals.size(),
            static_cast<std::size_t>(LosslessFanIn::kSources * kPerSource));
  std::int64_t trimmed = 0;
  for (const auto& a : f.sink.arrivals) {
    if (a.packet.trimmed) {
      ++trimmed;
      EXPECT_EQ(a.packet.size_bytes, 64);
    } else {
      EXPECT_EQ(a.packet.size_bytes, 1500);
    }
  }
  EXPECT_EQ(trimmed, out.trimmed_packets);
  f.expect_viqs_drained();
}

TEST(PfcSwitch, DroppingEgressUnwindsEveryViqCharge) {
  LosslessFanIn f{DropTailQueue::Config{.capacity_packets = 4, .ecn_threshold_packets = 0}};
  constexpr int kPerSource = 20;
  f.blast(kPerSource);
  f.sim.run();

  const DropTailQueue::Stats& out = f.sw.port(f.egress).queue().stats();
  EXPECT_GT(out.dropped_packets, 0);
  EXPECT_EQ(f.sink.arrivals.size() + static_cast<std::size_t>(out.dropped_packets),
            static_cast<std::size_t>(LosslessFanIn::kSources * kPerSource));
  f.expect_viqs_drained();
}

// ---------------------------------------------------------------------------
// Deadlock watchdog: resume frames lost on the wire must degrade into
// shorter pauses, never a hang.

// Drops every PFC resume frame, passes everything else untouched.
class ResumeEater final : public LinkHook {
 public:
  Verdict on_transmit(const Packet& p, Time) override {
    if (p.ctrl.type == CtrlType::kPfcResume) {
      ++eaten;
      return {.drop = true};
    }
    return {};
  }
  std::int64_t eaten{0};
};

TEST(PfcPort, LostResumeFramesDoNotDeadlockTheFabric) {
  Simulator sim;
  net::DumbbellConfig cfg;
  cfg.num_senders = 8;
  cfg.pfc = LosslessInputQueue::Config{};
  // PFC backpressure, not tail drop, is the binding constraint.
  cfg.switch_queue.capacity_packets = 100'000;
  cfg.switch_queue.ecn_threshold_packets = 65;
  net::Dumbbell topo{sim, cfg};

  // Eat every resume frame the receiver ToR sends back up the core link.
  // The sender ToR's uplink then un-pauses only via quantum expiry.
  ResumeEater eater;
  topo.link("tor_r->tor_s").set_link_hook(&eater);

  tcp::TcpConfig tcp;
  tcp.cc = tcp::CcAlgorithm::kDcqcn;
  tcp.rtt.min_rto = 10_ms;
  std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
  for (int i = 0; i < 8; ++i) {
    conns.push_back(std::make_unique<tcp::TcpConnection>(
        sim, topo.sender(i), topo.receiver(0), static_cast<FlowId>(i + 1), tcp));
    conns.back()->sender().add_app_data(500'000);
  }
  sim.run_until(5_s);

  // The incast congested the receiver ToR hard enough to pause upstream
  // and to strand at least one resume in the eater...
  EXPECT_GT(eater.eaten, 0);
  EXPECT_GT(topo.link("tor_s->tor_r").pause_count(), 0);
  // ...yet every transfer still completed: auto-expiry is the watchdog.
  for (const auto& c : conns) {
    EXPECT_TRUE(c->sender().all_acked());
    EXPECT_EQ(c->receiver().rcv_nxt(), 500'000);
  }
  // Nothing was dropped along the lossless path.
  for (net::Switch* sw : topo.switches()) {
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      EXPECT_EQ(sw->port(i).queue().stats().dropped_packets, 0);
    }
  }
}

}  // namespace
}  // namespace incast::net
