#include "core/scaling_experiment.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "core/experiment_obs.h"
#include "net/packet.h"
#include "obs/flow_trace.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "sim/stable_arena.h"
#include "tcp/tcp_connection.h"

namespace incast::core {

namespace {

// Wire bytes one flow puts on the receiver's downlink: payload plus one
// 40-byte header per MSS-sized segment (the last segment's header included).
[[nodiscard]] std::int64_t wire_bytes_per_flow(std::int64_t payload,
                                               std::int64_t mss) noexcept {
  const std::int64_t segments = (payload + mss - 1) / mss;
  return payload + segments * net::kHeaderBytes;
}

}  // namespace

ScalingPoint run_scaling_point(const ScalingConfig& config, int degree,
                               std::uint64_t seed, obs::Hub* hub) {
  ScalingPoint point;
  point.degree = degree;

  sim::Simulator sim;
  if (hub != nullptr) sim.set_hub(hub);

#if INCAST_AUDIT_ENABLED
  std::optional<sim::Auditor> auditor;
  if (config.audit_mode != sim::AuditMode::kOff) {
    sim::Auditor::Config acfg = config.audit;
    acfg.strict = config.audit_mode == sim::AuditMode::kStrict;
    auditor.emplace(acfg);
    sim.set_auditor(&*auditor);
  }
#endif

  // Tail autopsy: attach before any component constructs, so every port and
  // sender caches the tracer pointer. Sampling hashes with the *base* seed
  // (not this point's derived seed) so the same flow ids are traced at
  // every degree.
  std::optional<obs::FlowTracer> flow_tracer;
  if (config.flow_trace) {
    flow_tracer.emplace(
        obs::FlowTracer::Config{config.seed, config.flow_trace_sample_every},
        hub);
    sim.set_flow_tracer(&*flow_tracer);
  }

  sim.reserve_events(static_cast<std::size_t>(degree) * 8 + 4096);

  fabric::FatTreeConfig fcfg = config.fabric;
  fcfg.ecmp_seed = seed;
  fabric::FatTree tree{sim, fcfg};

  // Pre-size every switch's ECMP flow table past its 50% load ceiling: at
  // most `degree` symmetric flow keys transit any one switch, so the whole
  // routing path runs allocation-free in steady state.
  const std::vector<net::Switch*> switches = tree.switches();
  for (net::Switch* sw : switches) {
    sw->reserve_flows(static_cast<std::size_t>(degree));
  }

  // Receiver: slot 0 of the last leaf — maximally remote from sender 0, so
  // every flow crosses the spine tier. Senders round-robin over the other
  // hosts; degrees above num_hosts - 1 stack multiple flows per host.
  const int num_hosts = tree.num_hosts();
  const int receiver = num_hosts - config.fabric.hosts_per_leaf;
  const int sender_pool = num_hosts - 1;

  sim::StableChunkArena<tcp::TcpConnection, 8> connections;
  int completed = 0;
  for (int f = 0; f < degree; ++f) {
    const int slot = f % sender_pool;
    const int sender_host = slot < receiver ? slot : slot + 1;
    tcp::TcpConnection& conn = connections.emplace_back(
        sim, tree.host(sender_host), tree.host(receiver),
        static_cast<net::FlowId>(f) + 1, config.tcp);
    conn.sender().set_on_all_acked([&sim, &completed, degree] {
      if (++completed == degree) sim.stop();
    });
  }

  // Experiment-scope observability on the bottleneck downlink.
  ExperimentObserver observer{INCAST_OBS_HUB(sim)};
  const std::string bottleneck_link = tree.downlink_name(receiver);
  if (observer.active()) {
    observer.watch_queue(bottleneck_link, tree.downlink_queue(receiver));
    observer.watch_simulator(sim);
#if INCAST_AUDIT_ENABLED
    if (auditor) observer.watch_auditor(*auditor, sim);
#endif
  }

  // All flows start at t=0 — the incast in its purest form.
  for (std::size_t i = 0; i < connections.size(); ++i) {
    connections[i].sender().add_app_data(config.bytes_per_flow);
  }

  sim.run_until(config.max_sim_time);

  net::check_no_unrouted(switches);
#if INCAST_AUDIT_ENABLED
  if (auditor) auditor->check_conservation(tree.residual_buffered_bytes());
#endif

  // Tail autopsy teardown: finalize sampled breakdowns, conservation-check
  // each one, aggregate into percentile rows. Full per-flow breakdowns are
  // discarded here — at degree 8000 keeping them for every point would
  // defeat the memory budget this experiment exists to measure.
  if (flow_tracer) {
    const std::vector<obs::FlowBreakdown> breakdowns =
        flow_tracer->finalize(sim.now().ns());
    point.traced_flows = breakdowns.size();
    point.flow_trace_incomplete = flow_tracer->incomplete_flows();
#if INCAST_AUDIT_ENABLED
    if (auditor) {
      for (const obs::FlowBreakdown& f : breakdowns) {
        auditor->check_flow_breakdown(f.flow, f.component_sum(), f.fct_ns);
      }
    }
#endif
    point.fct_rows = obs::tail_attribution(breakdowns);
  }
#if INCAST_AUDIT_ENABLED
  if (auditor) point.audit_violations = auditor->total_violations();
#endif

  point.completed_flows = completed;
  point.fct_ms = sim.now().ms();
  const std::int64_t total_wire_bytes =
      static_cast<std::int64_t>(degree) *
      wire_bytes_per_flow(config.bytes_per_flow, config.tcp.mss_bytes);
  point.optimal_ms =
      (tree.base_rtt() + config.fabric.host_link.serialization_time(total_wire_bytes))
          .ms();
  if (point.optimal_ms > 0.0) {
    point.overhead_pct = (point.fct_ms / point.optimal_ms - 1.0) * 100.0;
  }

  for (std::size_t i = 0; i < connections.size(); ++i) {
    const tcp::TcpSender::Stats& s = connections[i].sender().stats();
    point.timeouts += s.timeouts;
    point.retransmits += s.retransmitted_packets;
  }

  // Deterministic memory decomposition (sizeof-based, never RSS).
  point.flow_state_bytes = connections.bytes();
  for (net::Switch* sw : switches) {
    point.routing_bytes += sw->routing_bytes();
    point.int_hop_overflows += sw->int_hop_overflows();
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      point.queue_drops += sw->port(i).queue().stats().dropped_packets;
      point.packet_pool_bytes += sw->port(i).pool_high_water() * sizeof(net::Packet);
    }
  }
  for (int h = 0; h < num_hosts; ++h) {
    net::Host& host = tree.host(h);
    point.int_hop_overflows += host.int_hop_overflows();
    for (std::size_t i = 0; i < host.num_ports(); ++i) {
      point.packet_pool_bytes += host.port(i).pool_high_water() * sizeof(net::Packet);
    }
  }
  if (point.int_hop_overflows > 0) {
    std::fprintf(stderr,
                 "warning: %lld INT hop records overflowed the %d-entry stack "
                 "(net.int.hop_overflow); telemetry CCAs saw truncated paths\n",
                 static_cast<long long>(point.int_hop_overflows),
                 net::kMaxIntHops);
  }
  point.event_bytes = static_cast<std::uint64_t>(sim.slab_high_water()) *
                      sim::EventQueue::slot_bytes();
  point.bytes_per_flow = (point.flow_state_bytes + point.packet_pool_bytes +
                          point.routing_bytes + point.event_bytes) /
                         static_cast<std::uint64_t>(degree);

  point.events_processed = sim.events_processed();
  point.events_by_category = sim.events_by_category();

  if (observer.active()) {
    // Surface the budget decomposition in the final metrics snapshot, then
    // unregister so a reused hub does not accumulate stale sources.
    obs::MetricsRegistry& metrics = observer.hub()->metrics();
    metrics.register_gauge("scaling.fct_ms", [&point] { return point.fct_ms; });
    metrics.register_gauge("scaling.overhead_pct",
                           [&point] { return point.overhead_pct; });
    metrics.register_gauge("scaling.bytes_per_flow", [&point] {
      return static_cast<double>(point.bytes_per_flow);
    });
    metrics.register_gauge("scaling.flow_state_bytes", [&point] {
      return static_cast<double>(point.flow_state_bytes);
    });
    metrics.register_gauge("scaling.packet_pool_bytes", [&point] {
      return static_cast<double>(point.packet_pool_bytes);
    });
    metrics.register_gauge("scaling.routing_bytes", [&point] {
      return static_cast<double>(point.routing_bytes);
    });
    metrics.register_gauge("scaling.event_bytes", [&point] {
      return static_cast<double>(point.event_bytes);
    });
    metrics.register_counter("net.int.hop_overflow",
                             [v = point.int_hop_overflows] { return v; });
    observer.finish(sim.now().ns(), {point.fct_ms}, nullptr);
    metrics.unregister_prefix("scaling.");
    metrics.unregister_prefix("net.int.");
  }

  return point;
}

ScalingReport run_scaling_experiment(const ScalingConfig& config) {
  const std::size_t n = config.degrees.size();
  ScalingReport report;

  sim::SweepRunner runner{config.jobs};
  sim::SweepRunner::Policy policy = config.sweep;
  policy.seed_of = [&config](std::size_t index) {
    return sim::derive_task_seed(config.seed, index);
  };
  runner.set_policy(std::move(policy));

  report.points = runner.run<ScalingPoint>(
      n, [&config](std::size_t index, sim::SweepRunner::TaskStats& stats) {
        const int degree = config.degrees[index];
        const std::uint64_t seed = sim::derive_task_seed(config.seed, index);
        // Journal resume: a point completed by a prior interrupted run is
        // replayed from its payload instead of re-simulated.
        if (config.resume) {
          ScalingPoint cached;
          if (config.resume(index, cached)) {
            stats.events = cached.events_processed;
            return cached;
          }
        }
        // Only point 0 is observed: worker threads must not share the hub,
        // and pinning it to a fixed point keeps trace/metrics output
        // byte-identical at any --jobs value.
        obs::Hub* hub = index == 0 ? config.hub : nullptr;
        ScalingPoint point = run_scaling_point(config, degree, seed, hub);
        stats.events = point.events_processed;
        stats.events_by_category = point.events_by_category;
        if (config.on_result) config.on_result(index, seed, point);
        return point;
      });
  report.sweep = runner.last_run();
  return report;
}

std::string scaling_csv(const ScalingReport& report) {
  std::string out =
      "degree,fct_ms,optimal_ms,overhead_pct,completed,timeouts,retx,drops,"
      "flow_state_bytes,packet_pool_bytes,routing_bytes,event_bytes,"
      "bytes_per_flow,events,audit_violations\n";
  char buf[512];
  for (const ScalingPoint& p : report.points) {
    std::snprintf(buf, sizeof(buf),
                  "%d,%.4f,%.4f,%.2f,%d,%lld,%lld,%lld,%llu,%llu,%llu,%llu,%llu,"
                  "%llu,%llu\n",
                  p.degree, p.fct_ms, p.optimal_ms, p.overhead_pct, p.completed_flows,
                  static_cast<long long>(p.timeouts),
                  static_cast<long long>(p.retransmits),
                  static_cast<long long>(p.queue_drops),
                  static_cast<unsigned long long>(p.flow_state_bytes),
                  static_cast<unsigned long long>(p.packet_pool_bytes),
                  static_cast<unsigned long long>(p.routing_bytes),
                  static_cast<unsigned long long>(p.event_bytes),
                  static_cast<unsigned long long>(p.bytes_per_flow),
                  static_cast<unsigned long long>(p.events_processed),
                  static_cast<unsigned long long>(p.audit_violations));
    out += buf;
  }
  return out;
}

std::string scaling_fct_csv(const ScalingReport& report) {
  std::string out = obs::fct_breakdown_csv_header();
  for (const ScalingPoint& p : report.points) {
    obs::append_fct_breakdown_csv(out, "scaling", p.degree, p.fct_rows);
  }
  return out;
}

}  // namespace incast::core
