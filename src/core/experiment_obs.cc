#include "core/experiment_obs.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "fault/fault_injector.h"
#include "net/link_directory.h"
#include "net/packet.h"
#include "net/pfc.h"
#include "net/queue.h"
#include "net/switch.h"
#include "obs/hub.h"
#include "sim/simulator.h"
#include "tcp/tcp_sender.h"

namespace incast::core {

WindowCounters WindowCounters::read(const std::vector<tcp::TcpSender*>& senders,
                                   const net::DropTailQueue& queue) {
  WindowCounters c;
  for (const tcp::TcpSender* s : senders) {
    c.timeouts += s->stats().timeouts;
    c.fast_retransmits += s->stats().fast_retransmits;
    c.retransmitted_packets += s->stats().retransmitted_packets;
    c.data_packets_sent += s->stats().data_packets_sent;
  }
  c.drops = queue.stats().dropped_packets;
  c.marks = queue.stats().ecn_marked_packets;
  c.enqueues = queue.stats().enqueued_packets;
  return c;
}

ExperimentObserver::ExperimentObserver(sim::Simulator& sim, const RunOptions& options,
                                       obs::Hub* hub)
    : sim_{sim} {
  if (hub != nullptr) sim.set_hub(hub);
#if INCAST_AUDIT_ENABLED
  // Relaxed mode only observes: results stay identical to an unaudited run.
  if (options.audit_mode != sim::AuditMode::kOff) {
    sim::Auditor::Config acfg = options.audit;
    acfg.strict = options.audit_mode == sim::AuditMode::kStrict;
    auditor_.emplace(acfg);
    sim.set_auditor(&*auditor_);
  }
#endif

  hub = INCAST_OBS_HUB(sim);  // nullptr under -DINCAST_OBS=OFF
  if (hub == nullptr || !hub->enabled()) return;
  hub_ = hub;
  auto& m = hub->metrics();
  m.register_counter("sim.events.processed", [&sim] {
    return static_cast<std::int64_t>(sim.events_processed());
  });
  m.register_counter("sim.events.peak_pending", [&sim] {
    return static_cast<std::int64_t>(sim.peak_events_pending());
  });
  m.register_counter("sim.events.slab_high_water", [&sim] {
    return static_cast<std::int64_t>(sim.slab_high_water());
  });
#if INCAST_AUDIT_ENABLED
  if (!auditor_) return;
  sim::Auditor& auditor = *auditor_;
  m.register_counter("sim.audit.violations", [&auditor] {
    return static_cast<std::int64_t>(auditor.total_violations());
  });
  for (std::size_t i = 0; i < sim::kNumAuditInvariants; ++i) {
    const auto inv = static_cast<sim::AuditInvariant>(i);
    m.register_counter(std::string{"sim.audit.violations."} + sim::to_string(inv),
                       [&auditor, inv] {
                         return static_cast<std::int64_t>(auditor.violations(inv));
                       });
  }
  m.register_counter("sim.audit.injected_bytes",
                     [&auditor] { return auditor.injected_bytes(); });
  m.register_counter("sim.audit.delivered_bytes",
                     [&auditor] { return auditor.delivered_bytes(); });
  m.register_counter("sim.audit.dropped_bytes",
                     [&auditor] { return auditor.dropped_bytes(); });
  m.register_counter("sim.audit.trimmed_bytes",
                     [&auditor] { return auditor.trimmed_bytes(); });
  m.register_counter("sim.audit.control_injected_bytes",
                     [&auditor] { return auditor.control_injected_bytes(); });
  m.register_counter("sim.audit.control_consumed_bytes",
                     [&auditor] { return auditor.control_consumed_bytes(); });

  // Violations are exactly the anomalies the flight recorder exists for:
  // dump the ring on every one, strict or relaxed. The sink runs before
  // strict mode throws, so the dump always lands.
  auditor.set_violation_sink([hub, &sim](const sim::Auditor::Violation& v) {
    hub->recorder().force_dump(sim.now().ns(),
                               std::string{"audit:"} + sim::to_string(v.invariant) +
                                   ": " + v.detail);
  });
#endif
}

ExperimentObserver::ExperimentObserver(sim::Simulator& sim, const TracedRunOptions& options,
                                       obs::Hub* hub, std::uint64_t flow_trace_seed)
    : ExperimentObserver{sim, options, hub} {
  // The hub is only a span side channel for the tracer (none under
  // -DINCAST_OBS=OFF): breakdowns are identical with or without it.
  if (options.flow_trace) {
    flow_tracer_.emplace(
        obs::FlowTracer::Config{flow_trace_seed, options.flow_trace_sample_every}, hub_);
    sim.set_flow_tracer(&*flow_tracer_);
  }
}

ExperimentObserver::~ExperimentObserver() {
  if (hub_ == nullptr) return;
  hub_->metrics().unregister_prefix("net.queue.");
  hub_->metrics().unregister_prefix("fault.injected.");
  hub_->metrics().unregister_prefix("core.incast.");
  hub_->metrics().unregister_prefix("sim.events.");
  hub_->metrics().unregister_prefix("sim.audit.");
  hub_->metrics().unregister_prefix("net.pfc.");
  hub_->metrics().unregister_prefix("net.int.");
}

void ExperimentObserver::watch_queue(const std::string& link_name,
                                     const net::DropTailQueue& queue) {
  if (hub_ == nullptr) return;
  const std::string prefix = "net.queue." + link_name + ".";
  auto& m = hub_->metrics();
  m.register_counter(prefix + "drops", [&queue] { return queue.stats().dropped_packets; });
  m.register_counter(prefix + "ecn_marks",
                     [&queue] { return queue.stats().ecn_marked_packets; });
  m.register_counter(prefix + "enqueued",
                     [&queue] { return queue.stats().enqueued_packets; });
}

std::string ExperimentObserver::watch_bottleneck(const net::LinkDirectory& topology,
                                                 const std::string& link) {
  if (hub_ == nullptr) return {};
  net::Port& port = topology.link(link);
  port.set_trace_label(link);
  watch_queue(link, port.queue());
  return link;
}

void ExperimentObserver::watch_faults(const fault::FaultInjector& injector) {
  if (hub_ == nullptr) return;
  auto& m = hub_->metrics();
  m.register_counter("fault.injected.drops",
                     [&injector] { return injector.total().injected_drops(); });
  m.register_counter("fault.injected.corrupt_bytes",
                     [&injector] { return injector.total().corrupted_bytes; });
  m.register_counter("fault.injected.corruptions",
                     [&injector] { return injector.total().corrupted; });
  m.register_counter("fault.injected.duplicates",
                     [&injector] { return injector.total().duplicated; });
  m.register_counter("fault.injected.reorders",
                     [&injector] { return injector.total().reordered; });
}

void ExperimentObserver::watch_pfc(const std::string& name, const net::Switch& sw) {
  if (hub_ == nullptr || sw.num_viqs() == 0) return;
  const std::string prefix = "net.pfc." + name + ".";
  auto& m = hub_->metrics();
  const auto viq_total = [&sw](std::int64_t net::LosslessInputQueue::Stats::*field) {
    return [&sw, field] {
      std::int64_t total = 0;
      for (std::size_t i = 0; i < sw.num_viqs(); ++i) {
        if (const auto* viq = sw.viq(i)) total += viq->stats().*field;
      }
      return total;
    };
  };
  using Stats = net::LosslessInputQueue::Stats;
  m.register_counter(prefix + "pause_frames", viq_total(&Stats::pause_frames));
  m.register_counter(prefix + "resume_frames", viq_total(&Stats::resume_frames));
  m.register_counter(prefix + "overflow_drops", viq_total(&Stats::overflow_dropped_packets));
  m.register_counter(prefix + "paused_ns", [&sw] {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < sw.num_ports(); ++i) {
      total += sw.port(i).paused_ns();
    }
    return total;
  });
}

ExperimentObserver::Teardown ExperimentObserver::collect(
    const net::LinkDirectory& topology, const std::vector<net::Switch*>& switches,
    RunCounters& counters) {
  // A switch with no route for a destination silently blackholes traffic —
  // always a topology bug, never a legitimate outcome. Fail loudly, naming
  // the switch and destination.
  net::check_no_unrouted(switches);
#if INCAST_AUDIT_ENABLED
  // Teardown ledger check: every injected byte must now be delivered,
  // dropped, or still buffered in a queue / on a wire somewhere.
  if (auditor_) auditor_->check_conservation(topology.residual_buffered_bytes());
#endif

  Teardown out;
  // Tail autopsy: close the waterfall, split the drain bucket, and hold
  // every completed sampled flow to the conservation invariant.
  if (flow_tracer_) {
    out.flow_breakdowns = flow_tracer_->finalize(sim_.now().ns());
    out.flow_trace_incomplete = flow_tracer_->incomplete_flows();
#if INCAST_AUDIT_ENABLED
    if (auditor_) {
      for (const obs::FlowBreakdown& f : out.flow_breakdowns) {
        auditor_->check_flow_breakdown(f.flow, f.component_sum(), f.fct_ns);
      }
    }
#endif
    out.fct_rows = obs::tail_attribution(out.flow_breakdowns);
  }

  // Every port of every node is a registered link, so the link directory
  // covers the whole topology.
  for (const std::string& name : topology.link_names()) {
    out.int_hop_overflows += topology.link(name).int_hop_overflows();
  }
  if (out.int_hop_overflows > 0) {
    std::fprintf(stderr,
                 "warning: %lld INT hop records overflowed the %d-entry stack "
                 "(net.int.hop_overflow); telemetry CCAs saw truncated paths\n",
                 static_cast<long long>(out.int_hop_overflows), net::kMaxIntHops);
  }
  if (hub_ != nullptr) {
    hub_->metrics().register_counter("net.int.hop_overflow",
                                     [v = out.int_hop_overflows] { return v; });
  }

#if INCAST_AUDIT_ENABLED
  if (auditor_) counters.audit_violations = auditor_->total_violations();
#endif
  counters.events_processed = sim_.events_processed();
  counters.events_by_category = sim_.events_by_category();
  counters.peak_events_pending = sim_.peak_events_pending();
  counters.slab_high_water = sim_.slab_high_water();
  return out;
}

void ExperimentObserver::finish(std::int64_t at_ns, const std::vector<double>& bct_ms,
                                const char* mode) {
  if (hub_ == nullptr) return;
  if (!bct_ms.empty()) {
    obs::Histogram& h = hub_->metrics().register_histogram(
        "core.incast.bct_ms",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0});
    for (const double v : bct_ms) h.record(v);
  }
  if (mode != nullptr && std::strcmp(mode, "safe") != 0) {
    hub_->notify_mode_shift(at_ns, "safe", mode);
  }
  hub_->capture_metrics(at_ns);
}

}  // namespace incast::core
