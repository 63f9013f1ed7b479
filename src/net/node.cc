#include "net/node.h"

#include <cassert>
#include <utility>

#include "obs/flow_trace.h"
#include "obs/hub.h"

namespace incast::net {

void Port::set_trace_label(const std::string& label) {
  obs::Hub* hub = INCAST_OBS_HUB(sim_);
  if (hub == nullptr || !hub->enabled()) {
    trace_hub_ = nullptr;
    return;
  }
  trace_hub_ = hub;
  drop_event_name_ = label + ".drop";
  mark_event_name_ = label + ".ecn_mark";
  trim_event_name_ = label + ".trim";
  pause_event_name_ = label + ".pfc_pause";
  resume_event_name_ = label + ".pfc_resume";
}

void Port::send(Packet&& p) {
  assert(connected() && "port must be connected before sending");
  if (flow_tracer_ != nullptr && p.flow_traced) {
    // Stamp admission time and the pause ledger; read back at dequeue to
    // attribute this hop's residency (queue wait vs. PFC pause overlap).
    p.trace_enqueue_ns = sim_.now().ns();
    p.trace_paused_ns = paused_ns();
  }
  const std::int64_t size = p.size_bytes;
  const std::int64_t trims_before = queue_->stats().trimmed_bytes;
  if (trace_hub_ == nullptr) {
    if (queue_->enqueue(std::move(p))) {
      if (auto* a = INCAST_AUDITOR(sim_)) {
        const std::int64_t cut = queue_->stats().trimmed_bytes - trims_before;
        if (cut > 0) a->on_bytes_trimmed(cut);
      }
      maybe_transmit();
    } else if (auto* a = INCAST_AUDITOR(sim_)) {
      a->on_bytes_dropped(size);  // tail-drop at enqueue
    }
    return;
  }

  // Traced path: detect this enqueue's drop/trim/ECN-mark outcome from the
  // queue stats delta and emit an instant on the queue track.
  const bool tracing = trace_hub_->tracing();
  const std::int64_t marks_before = queue_->stats().ecn_marked_packets;
  const FlowId flow = p.tcp.flow_id;
  if (queue_->enqueue(std::move(p))) {
    const std::int64_t cut = queue_->stats().trimmed_bytes - trims_before;
    if (cut > 0) {
      if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_trimmed(cut);
      if (tracing) {
        trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                            trim_event_name_, obs::kQueueTid, "flow", flow, "qlen",
                            queue_->packets());
      }
    } else if (tracing && queue_->stats().ecn_marked_packets > marks_before) {
      trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                          mark_event_name_, obs::kQueueTid, "flow", flow, "qlen",
                          queue_->packets());
    }
    maybe_transmit();
  } else {
    if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_dropped(size);
    if (tracing) {
      trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                          drop_event_name_, obs::kQueueTid, "flow", flow, "qlen",
                          queue_->packets());
    }
  }
}

void Port::send_control(Packet&& p) {
  assert(connected() && "port must be connected before sending");
  assert(p.is_ctrl());
  if (auto* a = INCAST_AUDITOR(sim_)) a->on_control_injected(p.size_bytes);
  // Compact the drained prefix before appending, keeping the FIFO bounded
  // by the number of in-flight control frames.
  if (ctrl_head_ > 0 && ctrl_head_ == ctrl_fifo_.size()) {
    ctrl_fifo_.clear();
    ctrl_head_ = 0;
  }
  ctrl_fifo_.push_back(std::move(p));
  maybe_transmit();
}

void Port::pause_for(sim::Time duration) {
  if (!paused_) {
    paused_ = true;
    ++pause_count_;
    pause_started_ns_ = sim_.now().ns();
    if (trace_hub_ != nullptr && trace_hub_->tracing()) {
      trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                          pause_event_name_, obs::kQueueTid, "pause_ns",
                          duration.ns(), "qlen", queue_->packets());
    }
  }
  // (Re)arm the auto-expiry; a newer pause supersedes any pending one.
  const std::uint64_t epoch = ++pause_epoch_;
  sim_.schedule_in(duration, [this, epoch] {
    if (paused_ && epoch == pause_epoch_) finish_pause();
  }, sim::EventCategory::kNet);
}

void Port::resume() {
  if (!paused_) return;
  finish_pause();
}

void Port::finish_pause() {
  paused_ = false;
  ++pause_epoch_;  // invalidate any pending auto-expiry
  paused_ns_total_ += sim_.now().ns() - pause_started_ns_;
  if (trace_hub_ != nullptr && trace_hub_->tracing()) {
    trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                        resume_event_name_, obs::kQueueTid, "paused_ns",
                        sim_.now().ns() - pause_started_ns_, "qlen",
                        queue_->packets());
  }
  maybe_transmit();
}

std::int64_t Port::paused_ns() const noexcept {
  std::int64_t total = paused_ns_total_;
  if (paused_) total += sim_.now().ns() - pause_started_ns_;
  return total;
}

void Port::maybe_transmit() {
  if (busy_) return;
  // Packets on the wire live in the port's pool; the next packet moves
  // straight from its queue into the slot and the events carry only the
  // handle.
  Packet* p;
  if (ctrl_head_ < ctrl_fifo_.size()) {
    // Control frames preempt data and ignore the pause state.
    p = pool_.acquire();
    *p = std::move(ctrl_fifo_[ctrl_head_]);
    ++ctrl_head_;
    if (ctrl_head_ == ctrl_fifo_.size()) {
      ctrl_fifo_.clear();
      ctrl_head_ = 0;
    }
  } else {
    if (paused_ || queue_->empty()) return;
    p = pool_.acquire();
    (void)queue_->dequeue(*p);

    if (auto* a = INCAST_AUDITOR(sim_)) {
      a->record_depth("port.queue", queue_->packets(), queue_->bytes());
    }

    if (dequeue_tap_ != nullptr) dequeue_tap_->on_dequeue(*p, sim_.now());

    if (flow_tracer_ != nullptr && p->trace_enqueue_ns >= 0) {
      const std::int64_t wait = sim_.now().ns() - p->trace_enqueue_ns;
      // Pause ledger delta = pause time overlapping this packet's residency
      // (an open pause at enqueue is included by paused_ns() on both reads).
      std::int64_t pause = paused_ns() - p->trace_paused_ns;
      if (pause < 0) pause = 0;
      if (pause > wait) pause = wait;
      flow_tracer_->on_hop(p->tcp.flow_id, trace_tier_, wait - pause, pause,
                           bandwidth_.serialization_time(p->size_bytes).ns(),
                           propagation_delay_.ns());
      p->trace_enqueue_ns = -1;  // consumed; next hop re-stamps
    }

    if (int_stamping_ && p->int_stack.enabled) {
      if (!p->int_stack.push(IntHopRecord{
              .qlen_bytes = queue_->bytes(),
              .tx_bytes = queue_->stats().dequeued_bytes,
              .link_bps = bandwidth_.bps(),
              .timestamp_ns = sim_.now().ns(),
          })) {
        ++int_hop_overflows_;  // stack full: surfaced as net.int.hop_overflow
      }
    }
  }

  busy_ = true;
  // Two-phase delivery: the transmitter frees up after serialization, then
  // the packet arrives at the peer one propagation delay later.
  const sim::Time serialization = bandwidth_.serialization_time(p->size_bytes);
#if INCAST_AUDIT_ENABLED
  wire_bytes_ += p->size_bytes;
#endif
  sim_.schedule_in(serialization, [this, p] {
    busy_ = false;
    deliver(p);
    maybe_transmit();
  }, sim::EventCategory::kNet);
}

void Port::deliver(Packet* p) {
  for (TxTap* tap : tx_taps_) tap->on_transmit(*p, sim_.now());
  sim::Time delay = propagation_delay_;
  bool duplicate = false;
  if (hook_ != nullptr) {
    const LinkHook::Verdict v = hook_->on_transmit(*p, sim_.now());
    if (v.drop) {  // lost on the wire; no buffer ever held it
#if INCAST_AUDIT_ENABLED
      wire_bytes_ -= p->size_bytes;
      if (auto* a = INCAST_AUDITOR(sim_)) {
        a->on_bytes_dropped(p->size_bytes);
        a->record_depth("port.wire", 0, wire_bytes_);
      }
#endif
      pool_.release(p);
      return;
    }
    if (v.corrupt) p->corrupted = true;
    delay += v.extra_delay;
    duplicate = v.duplicate;
  }
  if (duplicate) {
    // Scheduled after the original at the same timestamp, so FIFO
    // tie-breaking delivers original-then-copy.
    Packet* copy = pool_.acquire();
    *copy = *p;
#if INCAST_AUDIT_ENABLED
    // A duplicated packet is a fresh injection at the duplication point —
    // that keeps the conservation ledger balanced when the copy is later
    // delivered or dropped like any other packet.
    wire_bytes_ += copy->size_bytes;
    if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_injected(copy->size_bytes);
#endif
    sim_.schedule_in(delay, [this, p] { arrive(p); }, sim::EventCategory::kNet);
    sim_.schedule_in(delay, [this, copy] { arrive(copy); },
                     sim::EventCategory::kNet);
    return;
  }
  sim_.schedule_in(delay, [this, p] { arrive(p); }, sim::EventCategory::kNet);
}

void Port::arrive(Packet* p) {
#if INCAST_AUDIT_ENABLED
  wire_bytes_ -= p->size_bytes;
  if (auto* a = INCAST_AUDITOR(sim_)) {
    a->record_depth("port.wire", 0, wire_bytes_);
  }
#endif
  // receive() works on the pool slot itself, and the slot goes back on the
  // free list once it returns. That leaves the free list exactly as a
  // release-before-delivery would, because no synchronous path from
  // receive() re-enters this port's pool: a switch forwards and a host ACKs
  // through the peer node's own ports.
#ifndef NDEBUG
  const std::size_t in_use = pool_.in_use();
#endif
  peer_->receive(std::move(*p), peer_in_port_);
  assert(pool_.in_use() == in_use && "receive() re-entered the sending port's pool");
  pool_.release(p);
}

void connect_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp) {
  a.port(ap).connect(b, bp);
  b.port(bp).connect(a, ap);
}

}  // namespace incast::net
