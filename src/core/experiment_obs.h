// ExperimentObserver: the per-point run scaffold every experiment driver
// shares.
//
// A driver constructs it right after its Simulator and before any
// component, because components cache these pointers at construction. The
// constructor attaches the observability hub, the run-hardening auditor
// (sim/auditor.h) and the tail-autopsy FlowTracer (obs/flow_trace.h), and
// registers the run-level metrics: event-kernel counters and the audit
// ledger. teardown() does the end-of-run work every driver needs once the
// simulation stops: the unrouted-packet and byte-conservation checks, the
// flow tracer's breakdowns and percentile rows, the INT overflow census,
// and the audit and event-kernel counters. A driver keeps only its topology,
// workload and result code.
//
// The metrics half: drivers add their own run-level pieces (bottleneck
// queue counters, fault totals, PFC counters) through the watch_* methods,
// and finish() records the burst-completion histogram and snapshots the
// registry. Everything is unregistered on scope exit so a hub can be reused
// across runs. With no hub (or a disabled one) the metrics methods are
// no-ops and the run is byte-identical to an unobserved one.
#ifndef INCAST_CORE_EXPERIMENT_OBS_H_
#define INCAST_CORE_EXPERIMENT_OBS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/run_options.h"
#include "obs/flow_trace.h"
#include "sim/auditor.h"
#include "sim/event_category.h"

namespace incast::net {
class DropTailQueue;
class LinkDirectory;
class Switch;
}  // namespace incast::net

namespace incast::tcp {
class TcpSender;
}  // namespace incast::tcp

namespace incast::fault {
class FaultInjector;
}  // namespace incast::fault

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::sim {
class Simulator;
}  // namespace incast::sim

namespace incast::core {

// The event-kernel and audit counters every simulated run reports; each
// result type inherits them, and teardown() fills them.
struct RunCounters {
  // Total events the simulator dispatched — the determinism fingerprint
  // (two runs with the same seed must agree exactly) — and its breakdown by
  // event category (always collected; the self-profiler's cheap half).
  std::uint64_t events_processed{0};
  sim::EventCategoryCounts events_by_category{};
  // Event-kernel footprint: peak pending heap depth and callback-slab
  // high-water mark (how many events were ever scheduled concurrently).
  std::uint64_t peak_events_pending{0};
  std::uint64_t slab_high_water{0};
  // Auditor invariant violations observed during the run (always 0 in
  // strict mode — the first one aborts — and under -DINCAST_AUDIT=OFF or
  // audit mode kOff).
  std::uint64_t audit_violations{0};
};

// Senders' and bottleneck queue's cumulative counters; a measured window is
// the difference of two snapshots.
struct WindowCounters {
  std::int64_t timeouts{0};
  std::int64_t fast_retransmits{0};
  std::int64_t retransmitted_packets{0};
  std::int64_t data_packets_sent{0};
  std::int64_t drops{0};
  std::int64_t marks{0};
  std::int64_t enqueues{0};

  [[nodiscard]] static WindowCounters read(const std::vector<tcp::TcpSender*>& senders,
                                           const net::DropTailQueue& queue);

  // Writes the window [start, *this] into a result's measured-window fields.
  template <typename Result>
  void store_since(const WindowCounters& start, Result& r) const {
    r.timeouts = timeouts - start.timeouts;
    r.fast_retransmits = fast_retransmits - start.fast_retransmits;
    r.retransmitted_packets = retransmitted_packets - start.retransmitted_packets;
    r.data_packets_sent = data_packets_sent - start.data_packets_sent;
    r.queue_drops = drops - start.drops;
    r.queue_ecn_marks = marks - start.marks;
    r.queue_enqueues = enqueues - start.enqueues;
  }
};

class ExperimentObserver {
 public:
  // Attaches `hub` — the point's hub: options.hub, or nullptr for a sweep
  // point other than the observed one — and the auditor `options` asks for.
  ExperimentObserver(sim::Simulator& sim, const RunOptions& options, obs::Hub* hub);
  // Also attaches the tail-autopsy FlowTracer when options.flow_trace is
  // set. Its sampling hash uses `flow_trace_seed` — a sweep's base seed — so
  // the same flow ids are traced at every point.
  ExperimentObserver(sim::Simulator& sim, const TracedRunOptions& options, obs::Hub* hub,
                     std::uint64_t flow_trace_seed);
  ~ExperimentObserver();

  ExperimentObserver(const ExperimentObserver&) = delete;
  ExperimentObserver& operator=(const ExperimentObserver&) = delete;

  [[nodiscard]] bool active() const noexcept { return hub_ != nullptr; }
  [[nodiscard]] obs::Hub* hub() const noexcept { return hub_; }

  // Registers net.queue.<link_name>.{drops,ecn_marks,enqueued} pull sources
  // reading `queue`'s cumulative stats. The queue must outlive the run.
  void watch_queue(const std::string& link_name, const net::DropTailQueue& queue);

  // Observes the run's bottleneck link: labels it for tracing and watches
  // its egress queue. Returns the trace label for a QueueMonitor on that
  // queue — the link name, or empty when the run is unobserved.
  std::string watch_bottleneck(const net::LinkDirectory& topology, const std::string& link);

  // Registers fault.injected.{drops,corrupt_bytes,corruptions,duplicates,
  // reorders} totals across every installed link fault.
  void watch_faults(const fault::FaultInjector& injector);

  // Registers net.pfc.<name>.{pause_frames,resume_frames,overflow_drops,
  // paused_ns} pull sources summing the switch's VIQ counters (pauses this
  // switch *sent*) and its egress ports' paused time (pauses it *obeyed*).
  // No-op for a switch without PFC enabled.
  void watch_pfc(const std::string& name, const net::Switch& sw);

  // The shared end-of-run work, called once after the simulation stops:
  // throws if any switch blackholed a packet; audits byte conservation
  // against the topology's residual buffered bytes; finalizes the flow
  // tracer; sums INT overflows over every port of `topology` (warning on
  // stderr when nonzero). Fills the result's RunCounters and whichever
  // tail-autopsy fields it declares: the completed sampled flows' breakdowns
  // (or just their count, traced_flows), fct_rows, flow_trace_incomplete
  // and int_hop_overflows.
  template <typename Result>
  void teardown(const net::LinkDirectory& topology, const std::vector<net::Switch*>& switches,
                Result& result) {
    Teardown t = collect(topology, switches, result);
    if constexpr (requires { result.flow_breakdowns; }) {
      result.flow_breakdowns = std::move(t.flow_breakdowns);
    } else if constexpr (requires { result.traced_flows; }) {
      result.traced_flows = t.flow_breakdowns.size();
    }
    if constexpr (requires { result.fct_rows; }) {
      result.fct_rows = std::move(t.fct_rows);
      result.flow_trace_incomplete = t.flow_trace_incomplete;
    }
    if constexpr (requires { result.int_hop_overflows; }) {
      result.int_hop_overflows = t.int_hop_overflows;
    }
  }

  // End-of-run bookkeeping, called while every metric source is still
  // alive: records measured burst completion times into the
  // core.incast.bct_ms histogram (skipped when empty), reports a non-"safe"
  // goodput-mode classification as a mode shift (which can trip the flight
  // recorder), and snapshots the whole registry into the hub.
  void finish(std::int64_t at_ns, const std::vector<double>& bct_ms, const char* mode);

 private:
  // teardown()'s results beyond the RunCounters.
  struct Teardown {
    // Completed sampled flows' exact FCT decompositions (each checked by
    // the auditor), their p50/p99/p999 attribution rows, and sampled flows
    // the sim-time wall cut mid-period. Empty unless flow_trace.
    std::vector<obs::FlowBreakdown> flow_breakdowns;
    std::vector<obs::TailAttributionRow> fct_rows;
    std::uint64_t flow_trace_incomplete{0};
    // INT hop-stamp overflows across every port (packets whose INT stack
    // was full at a stamping hop). Nonzero means telemetry-driven CCAs saw
    // a truncated path: surfaced as the net.int.hop_overflow metric and a
    // warning, never fatal.
    std::int64_t int_hop_overflows{0};
  };

  [[nodiscard]] Teardown collect(const net::LinkDirectory& topology,
                                 const std::vector<net::Switch*>& switches,
                                 RunCounters& counters);

  sim::Simulator& sim_;
  obs::Hub* hub_{nullptr};
#if INCAST_AUDIT_ENABLED
  std::optional<sim::Auditor> auditor_;
#endif
  std::optional<obs::FlowTracer> flow_tracer_;
};

}  // namespace incast::core

#endif  // INCAST_CORE_EXPERIMENT_OBS_H_
