#include "core/scaling_experiment.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/experiment_obs.h"
#include "net/packet.h"
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
  // Flow sampling hashes the *base* seed (not this point's derived seed) so
  // the same flow ids are traced at every degree.
  ExperimentObserver run{sim, config, hub, config.seed};

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
  run.watch_queue(tree.downlink_name(receiver), tree.downlink_queue(receiver));

  // All flows start at t=0 — the incast in its purest form.
  for (std::size_t i = 0; i < connections.size(); ++i) {
    connections[i].sender().add_app_data(config.bytes_per_flow);
  }

  sim.run_until(config.max_sim_time);

  // The point keeps only the traced-flow count, not the breakdowns: at
  // degree 8000 keeping them for every point would defeat the memory budget
  // this experiment exists to measure.
  run.teardown(tree, switches, point);

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
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      point.queue_drops += sw->port(i).queue().stats().dropped_packets;
      point.packet_pool_bytes += sw->port(i).pool_high_water() * sizeof(net::Packet);
    }
  }
  for (int h = 0; h < num_hosts; ++h) {
    net::Host& host = tree.host(h);
    for (std::size_t i = 0; i < host.num_ports(); ++i) {
      point.packet_pool_bytes += host.port(i).pool_high_water() * sizeof(net::Packet);
    }
  }
  point.event_bytes = static_cast<std::uint64_t>(sim.slab_high_water()) *
                      sim::EventQueue::slot_bytes();
  point.bytes_per_flow = (point.flow_state_bytes + point.packet_pool_bytes +
                          point.routing_bytes + point.event_bytes) /
                         static_cast<std::uint64_t>(degree);

  if (run.active()) {
    // Surface the budget decomposition in the final metrics snapshot, then
    // unregister so a reused hub does not accumulate stale sources.
    obs::MetricsRegistry& metrics = run.hub()->metrics();
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
    run.finish(sim.now().ns(), {point.fct_ms}, nullptr);
    metrics.unregister_prefix("scaling.");
  }

  return point;
}

ScalingReport run_scaling_experiment(const ScalingConfig& config) {
  ScalingReport report;
  report.points = run_sweep<ScalingPoint>(
      config.degrees.size(), config,
      [&config](std::size_t index) { return sim::derive_task_seed(config.seed, index); },
      [&config](std::size_t index, std::uint64_t seed) {
        // Only point 0 is observed: worker threads must not share the hub,
        // and pinning it to a fixed point keeps trace/metrics output
        // byte-identical at any --jobs value.
        return run_scaling_point(config, config.degrees[index], seed,
                                 index == 0 ? config.hub : nullptr);
      },
      report.sweep);
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
