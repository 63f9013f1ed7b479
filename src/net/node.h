// Node and Port: devices and their egress interfaces.
//
// A Node is anything with network ports (Host, Switch). A Port is one
// unidirectional egress interface: it owns a DropTailQueue and a transmitter
// that serializes packets at the port's line rate, then delivers them to the
// connected peer after the link's propagation delay. Full-duplex links are
// simply a pair of Ports, one on each endpoint.
#ifndef INCAST_NET_NODE_H_
#define INCAST_NET_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "sim/stable_arena.h"
#include "sim/units.h"

namespace incast::obs {
class FlowTracer;
class Hub;
enum class HopTier : std::uint8_t;
}  // namespace incast::obs

namespace incast::net {

class Node;

// Intercepts packets at the moment they leave a Port for the wire. The
// fault-injection layer (src/fault) installs these; with no hook installed a
// Port delivers every packet unchanged, on exactly the code path it always
// had. The hook is consulted once per transmitted packet, after
// serialization completes and before propagation is scheduled, so a dropped
// packet still consumed its serialization time (as a real lossy link would).
class LinkHook {
 public:
  virtual ~LinkHook() = default;

  struct Verdict {
    bool drop{false};       // packet vanishes on the wire
    bool corrupt{false};    // delivered, but with a failed checksum
    bool duplicate{false};  // a second copy arrives right after the original
    sim::Time extra_delay{sim::Time::zero()};  // added propagation (reordering)
  };

  virtual Verdict on_transmit(const Packet& p, sim::Time now) = 0;
};

// Read-only observer of every packet a Port transmits, notified when
// serialization completes (the moment the frame hits the wire), before any
// fault hook can drop it — matching real port counters, which count
// transmitted frames whether or not the wire later loses them. This is how
// switch-side telemetry (per-port Millisampler-style byte counters) attaches
// without perturbing the data path.
class TxTap {
 public:
  virtual ~TxTap() = default;
  virtual void on_transmit(const Packet& p, sim::Time now) = 0;
};

// Observes every packet the moment it is pulled off the egress queue for
// serialization (control frames excluded — they never entered the queue).
// This is how a PFC switch credits the ingress virtual input queue a
// departing packet was charged to.
class DequeueTap {
 public:
  virtual ~DequeueTap() = default;
  virtual void on_dequeue(const Packet& p, sim::Time now) = 0;
};

class Port {
 public:
  Port(sim::Simulator& sim, sim::Bandwidth bandwidth, sim::Time propagation_delay,
       const DropTailQueue::Config& queue_config)
      : sim_{sim},
        bandwidth_{bandwidth},
        propagation_delay_{propagation_delay},
        queue_{make_queue(queue_config)},
        flow_tracer_{sim.flow_tracer()} {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Wires this port's output to `peer`; delivered packets arrive via
  // peer.receive(packet, peer_in_port).
  void connect(Node& peer, std::size_t peer_in_port) noexcept {
    peer_ = &peer;
    peer_in_port_ = peer_in_port;
  }

  [[nodiscard]] bool connected() const noexcept { return peer_ != nullptr; }
  [[nodiscard]] Node* peer() const noexcept { return peer_; }

  // Queues `p` for transmission, starting the transmitter if idle. The
  // queue may ECN-mark, trim, or drop the packet — in place, in the
  // caller's object — so the caller reads nothing from `p` afterwards.
  void send(Packet&& p);

  // Queues a MAC control frame (PFC pause/resume) for transmission on a
  // strict-priority path: control frames bypass the egress queue entirely
  // and are emitted even while the port itself is paused — otherwise a
  // congestion tree could never be torn down.
  void send_control(Packet&& p);

  // PFC pause of this port's data transmission. pause_for() (re)arms an
  // auto-expiry at now + duration — real PFC quanta time out, which is the
  // deadlock watchdog: a lost resume frame degrades into a shorter pause,
  // never a hang. resume() lifts the pause early (the resume frame case).
  void pause_for(sim::Time duration);
  void resume();
  [[nodiscard]] bool pfc_paused() const noexcept { return paused_; }
  // Times this port entered the paused state.
  [[nodiscard]] std::int64_t pause_count() const noexcept { return pause_count_; }
  // Cumulative time spent paused, including the currently open pause.
  [[nodiscard]] std::int64_t paused_ns() const noexcept;

  [[nodiscard]] DropTailQueue& queue() noexcept { return *queue_; }
  [[nodiscard]] const DropTailQueue& queue() const noexcept { return *queue_; }
  [[nodiscard]] sim::Bandwidth bandwidth() const noexcept { return bandwidth_; }
  [[nodiscard]] sim::Time propagation_delay() const noexcept { return propagation_delay_; }
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  // Switch egress ports stamp INT telemetry onto INT-enabled packets at
  // dequeue (HPCC-style). Off by default; the topology builder enables it
  // on switch ports.
  void set_int_stamping(bool enabled) noexcept { int_stamping_ = enabled; }
  [[nodiscard]] bool int_stamping() const noexcept { return int_stamping_; }

  // Installs (or clears, with nullptr) the link-fault hook for this port's
  // outgoing direction. The hook must outlive the port or be cleared first.
  void set_link_hook(LinkHook* hook) noexcept { hook_ = hook; }
  [[nodiscard]] LinkHook* link_hook() const noexcept { return hook_; }

  // Adds a read-only observer of transmitted packets (e.g. a PortSampler).
  // Taps must outlive the port's traffic.
  void add_tx_tap(TxTap* tap) { tx_taps_.push_back(tap); }

  // Installs (or clears) the dequeue observer. At most one; it must
  // outlive the port's traffic.
  void set_dequeue_tap(DequeueTap* tap) noexcept { dequeue_tap_ = tap; }

  // Which topology tier this port's egress queue belongs to, for the
  // flow tracer's per-tier queueing attribution (obs::HopTier). Builders
  // tag ports once at construction; untagged ports report kUnknown.
  void set_trace_tier(obs::HopTier tier) noexcept { trace_tier_ = tier; }
  [[nodiscard]] obs::HopTier trace_tier() const noexcept { return trace_tier_; }

  // INT hop records that could not be stamped because the packet's stack
  // was already at kMaxIntHops — silent truncation made loud (satellite of
  // the tail-autopsy work; surfaced as the net.int.hop_overflow metric).
  [[nodiscard]] std::int64_t int_hop_overflows() const noexcept {
    return int_hop_overflows_;
  }

  // Names this port for the observability layer: drop and ECN-mark events
  // are then emitted as "<label>.drop" / "<label>.ecn_mark" instants on the
  // queue track. Only labeled ports trace — unlabeled ports keep the exact
  // historical send() path. No-op when the simulator carries no hub.
  void set_trace_label(const std::string& label);

  // Bytes currently in flight on this port (being serialized or
  // propagating) — the wire half of the auditor's residual-bytes walk.
  // Maintained only when the audit hooks are compiled in; always 0 under
  // -DINCAST_AUDIT=OFF.
  [[nodiscard]] std::int64_t wire_bytes() const noexcept { return wire_bytes_; }

  // Peak number of packets simultaneously in flight on this port — the
  // in-flight pool's slot count, for bytes-per-flow accounting.
  [[nodiscard]] std::size_t pool_high_water() const noexcept { return pool_.high_water(); }

 private:
  void maybe_transmit();
  // Consults the hook (if any) and schedules the packet's arrival at the
  // peer after propagation. `p` is a pooled handle owned by this port; it
  // is released (or handed to the propagation event) before returning.
  void deliver(Packet* p);
  // Fires when a packet finishes propagating: hands the pool slot itself to
  // the peer's receive(), then releases it.
  void arrive(Packet* p);
  // Closes the open pause interval and restarts transmission.
  void finish_pause();

  sim::Simulator& sim_;
  sim::Bandwidth bandwidth_;
  sim::Time propagation_delay_;
  std::unique_ptr<DropTailQueue> queue_;
  // Storage for packets in flight on this port (being serialized or
  // propagating). Closures capture {this, Packet*} — 16 bytes — instead of
  // moving the full struct (INT stack included) through the event kernel.
  PacketPool pool_;
  Node* peer_{nullptr};
  std::size_t peer_in_port_{0};
  bool busy_{false};
  bool int_stamping_{false};
  std::int64_t wire_bytes_{0};
  LinkHook* hook_{nullptr};
  std::vector<TxTap*> tx_taps_;
  DequeueTap* dequeue_tap_{nullptr};
  // Pending control frames, strictly ahead of the data queue. Control
  // traffic is rare (state transitions only), so a plain vector FIFO is
  // fine here.
  std::vector<Packet> ctrl_fifo_;
  std::size_t ctrl_head_{0};
  // PFC pause state. The epoch invalidates stale auto-expiry events when a
  // refresh or an early resume supersedes them.
  bool paused_{false};
  std::uint64_t pause_epoch_{0};
  std::int64_t pause_started_ns_{0};
  std::int64_t pause_count_{0};
  std::int64_t paused_ns_total_{0};
  obs::Hub* trace_hub_{nullptr};
  // Cached at construction, like trace_hub_: nullptr (no tracer attached)
  // keeps the per-packet hooks to a single predictable branch.
  obs::FlowTracer* flow_tracer_{nullptr};
  obs::HopTier trace_tier_{};  // zero-initialized = kUnknown
  std::int64_t int_hop_overflows_{0};
  std::string drop_event_name_;
  std::string mark_event_name_;
  std::string trim_event_name_;
  std::string pause_event_name_;
  std::string resume_event_name_;
};

class Node {
 public:
  Node(sim::Simulator& sim, NodeId id, std::string name)
      : sim_{sim}, id_{id}, name_{std::move(name)} {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Delivers a packet that finished traversing a link into this node. The
  // node may forward, mark or consume `p`; the caller (Port::arrive) owns
  // the storage and reads nothing from it afterwards.
  virtual void receive(Packet&& p, std::size_t in_port) = 0;

  // Adds an egress port. Returns its index.
  std::size_t add_port(sim::Bandwidth bandwidth, sim::Time propagation_delay,
                       const DropTailQueue::Config& queue_config) {
    ports_.emplace_back(sim_, bandwidth, propagation_delay, queue_config);
    return ports_.size() - 1;
  }

  [[nodiscard]] Port& port(std::size_t i) { return ports_[i]; }
  [[nodiscard]] const Port& port(std::size_t i) const { return ports_[i]; }
  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  // Total INT hop-stamp overflows across this node's ports (see
  // Port::int_hop_overflows).
  [[nodiscard]] std::int64_t int_hop_overflows() const noexcept {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < ports_.size(); ++i) total += ports_[i].int_hop_overflows();
    return total;
  }

 protected:
  sim::Simulator& sim_;

 private:
  NodeId id_;
  std::string name_;
  // Ports are address-pinned (their closures capture `this`), so they live
  // in a chunked arena: stable addresses, 8 ports per heap allocation
  // instead of one each, and chunk-local contiguity for the port walks the
  // auditor and telemetry layers do.
  sim::StableChunkArena<Port, 8> ports_;
};

// Connects a full-duplex link: a.port(ap) -> b as b's in-port bp, and
// b.port(bp) -> a as a's in-port ap.
void connect_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp);

}  // namespace incast::net

#endif  // INCAST_NET_NODE_H_
