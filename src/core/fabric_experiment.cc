#include "core/fabric_experiment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/experiment_obs.h"
#include "fault/fault_injector.h"
#include "telemetry/port_sampler.h"

namespace incast::core {

double VantageTrace::peak_utilization() const {
  const std::int64_t per_bin = line_rate.bytes_in(sim::Time::milliseconds(1));
  if (per_bin <= 0) return 0.0;
  double peak = 0.0;
  for (const auto& b : bins) {
    peak = std::max(peak, static_cast<double>(b.bytes) / static_cast<double>(per_bin));
  }
  return peak;
}

std::int64_t VantageTrace::peak_queue_packets() const {
  std::int64_t peak = 0;
  for (const std::int64_t w : queue_watermarks) peak = std::max(peak, w);
  return peak;
}

namespace {

// Chooses the sender hosts: the receiver sits in slot 0 of the last leaf;
// senders fill the other leaves (cross-rack) or the first leaf alone
// (single-rack, the dumbbell's shape).
std::vector<int> place_senders(const fabric::FatTreeConfig& fab, int num_flows,
                               FabricIncastExperimentConfig::Placement placement,
                               int receiver_leaf) {
  const int num_leaves = fab.num_pods * fab.leaves_per_pod;
  if (num_leaves < 2) {
    throw std::invalid_argument(
        "fabric incast needs at least 2 leaves (senders and receiver on "
        "different racks)");
  }
  std::vector<int> senders;
  senders.reserve(static_cast<std::size_t>(num_flows));
  if (placement == FabricIncastExperimentConfig::Placement::kSingleRack) {
    if (num_flows > fab.hosts_per_leaf) {
      throw std::invalid_argument("single-rack placement needs hosts_per_leaf >= flows (" +
                                  std::to_string(num_flows) + " flows, " +
                                  std::to_string(fab.hosts_per_leaf) + " hosts/leaf)");
    }
    for (int i = 0; i < num_flows; ++i) senders.push_back(i);  // leaf 0, slots 0..n
    return senders;
  }
  std::vector<int> other_leaves;
  for (int gl = 0; gl < num_leaves; ++gl) {
    if (gl != receiver_leaf) other_leaves.push_back(gl);
  }
  const auto capacity =
      static_cast<std::int64_t>(other_leaves.size()) * fab.hosts_per_leaf;
  if (num_flows > capacity) {
    throw std::invalid_argument("fabric seats only " + std::to_string(capacity) +
                                " cross-rack senders, " + std::to_string(num_flows) +
                                " requested");
  }
  for (int i = 0; i < num_flows; ++i) {
    const int gl = other_leaves[static_cast<std::size_t>(i) % other_leaves.size()];
    const int slot = i / static_cast<int>(other_leaves.size());
    senders.push_back(gl * fab.hosts_per_leaf + slot);
  }
  return senders;
}

}  // namespace

FabricIncastExperimentResult run_fabric_incast_experiment(
    const FabricIncastExperimentConfig& config) {
  sim::Simulator sim;
  ExperimentObserver run{sim, config, config.hub, config.seed};
  // Capacity hint: per-flow timers plus in-flight packets across the
  // fabric's extra hops (each hop adds serialization + propagation events).
  sim.reserve_events(static_cast<std::size_t>(config.num_flows) * 16 + 4096);
  fabric::FatTree fabric{sim, config.fabric};

  const int receiver_leaf = fabric.num_leaves() - 1;
  const int receiver_host =
      receiver_leaf * config.fabric.hosts_per_leaf;  // slot 0 of the last leaf
  const std::vector<int> sender_hosts =
      place_senders(config.fabric, config.num_flows, config.placement, receiver_leaf);

  workload::CyclicIncastDriver::Endpoints endpoints;
  endpoints.senders.reserve(sender_hosts.size());
  for (const int h : sender_hosts) endpoints.senders.push_back(&fabric.host(h));
  endpoints.receiver = &fabric.host(receiver_host);
  endpoints.bottleneck = config.fabric.host_link;

  workload::CyclicIncastDriver::Config driver_cfg;
  driver_cfg.num_flows = config.num_flows;
  driver_cfg.num_bursts = config.num_bursts;
  driver_cfg.burst_duration = config.burst_duration;
  driver_cfg.inter_burst_gap = config.inter_burst_gap;
  driver_cfg.schedule = config.schedule;
  workload::CyclicIncastDriver driver{sim, endpoints, config.tcp, driver_cfg, config.seed};

  // Fault layer, only when some named link fault is enabled (same salt as
  // the dumbbell experiment, so seeds stay comparable).
  std::unique_ptr<fault::FaultInjector> injector;
  const bool any_fault =
      std::any_of(config.link_faults.begin(), config.link_faults.end(),
                  [](const NamedLinkFault& f) { return f.config.any_enabled(); });
  if (any_fault) {
    injector = std::make_unique<fault::FaultInjector>(
        sim, config.seed ^ 0x9E3779B97F4A7C15ULL);
    for (const NamedLinkFault& nf : config.link_faults) {
      if (nf.config.any_enabled()) injector->install(fabric.link(nf.link), nf.config);
    }
  }

  // Telemetry. Vantage 1: the receiver host NIC (the paper's Millisampler).
  telemetry::Millisampler::Config ms_cfg;
  ms_cfg.bin_duration = config.telemetry_bin;
  ms_cfg.line_rate = config.fabric.host_link;
  telemetry::Millisampler host_sampler{ms_cfg};
  fabric.host(receiver_host).add_ingress_tap(&host_sampler);

  // Vantage 2: every leaf's uplink ports. Vantage 3: the spine-tier egress
  // ports descending toward the receiver leaf.
  // Each in-network vantage pairs a byte-count sampler with a watermark
  // monitor on the same egress queue — the hop's 1 ms peak depth.
  telemetry::QueueMonitor::Config wm_cfg;
  wm_cfg.sample_every = sim::Time::zero();
  wm_cfg.watermark_window = config.telemetry_bin;
  std::vector<std::unique_ptr<telemetry::PortSampler>> leaf_samplers;
  std::vector<std::unique_ptr<telemetry::QueueMonitor>> hop_monitors;
  for (int gl = 0; gl < fabric.num_leaves(); ++gl) {
    const auto names = fabric.leaf_uplink_names(gl);
    const auto ports = fabric.leaf_uplink_ports(gl);
    for (std::size_t i = 0; i < names.size(); ++i) {
      auto sampler = std::make_unique<telemetry::PortSampler>(names[i], ms_cfg);
      sampler->attach(*ports[i]);
      leaf_samplers.push_back(std::move(sampler));
      hop_monitors.push_back(
          std::make_unique<telemetry::QueueMonitor>(sim, ports[i]->queue(), wm_cfg));
    }
  }
  std::vector<std::unique_ptr<telemetry::PortSampler>> spine_samplers;
  for (const std::string& name : fabric.spine_egress_names_toward(receiver_leaf)) {
    auto sampler = std::make_unique<telemetry::PortSampler>(name, ms_cfg);
    net::Port& port = fabric.link(name);
    sampler->attach(port);
    spine_samplers.push_back(std::move(sampler));
    hop_monitors.push_back(
        std::make_unique<telemetry::QueueMonitor>(sim, port.queue(), wm_cfg));
  }
  for (auto& m : hop_monitors) m->start(config.max_sim_time);

  // Experiment-scope observability on the bottleneck hop (the receiver's
  // leaf downlink): trace label, queue metrics, fault totals.
  if (injector) run.watch_faults(*injector);
  telemetry::QueueMonitor::Config qcfg;
  qcfg.sample_every = config.queue_sample_every;
  qcfg.watermark_window = sim::Time::milliseconds(1);
  qcfg.trace_label = run.watch_bottleneck(fabric, fabric.downlink_name(receiver_host));
  telemetry::QueueMonitor qmon{sim, fabric.downlink_queue(receiver_host), qcfg};
  qmon.start(config.max_sim_time);

  auto senders = driver.senders();
  WindowCounters at_start = WindowCounters::read(senders, fabric.downlink_queue(receiver_host));

  driver.set_on_burst_complete([&](int index) {
    if (index == config.discard_bursts - 1) {
      at_start = WindowCounters::read(senders, fabric.downlink_queue(receiver_host));
    }
    if (driver.finished()) sim.stop();
  });

  driver.start();
  sim.run_until(config.max_sim_time);

  FabricIncastExperimentResult result;
  run.teardown(fabric, fabric.switches(), result);

  const sim::Time trace_end = sim.now();
  host_sampler.finalize(trace_end);
  for (auto& s : leaf_samplers) s->finalize(trace_end);
  for (auto& s : spine_samplers) s->finalize(trace_end);

  result.bursts = driver.bursts();
  result.sender_hosts = sender_hosts;
  result.receiver_host = receiver_host;
  result.queue_series = qmon.samples();
  if (injector) result.injected_drops = injector->total().injected_drops();

  WindowCounters::read(senders, fabric.downlink_queue(receiver_host))
      .store_since(at_start, result);
  result.mode = classify_mode(result.timeouts, result.marked_fraction());

  // Per-burst aggregates and in-burst queue statistics over measured bursts.
  const auto first_measured = static_cast<std::size_t>(config.discard_bursts);
  if (result.bursts.size() > first_measured) {
    double bct_total = 0.0;
    for (std::size_t b = first_measured; b < result.bursts.size(); ++b) {
      const double bct = result.bursts[b].completion_time().ms();
      bct_total += bct;
      result.max_bct_ms = std::max(result.max_bct_ms, bct);
    }
    result.avg_bct_ms =
        bct_total / static_cast<double>(result.bursts.size() - first_measured);

    double in_burst_sum = 0.0;
    std::int64_t in_burst_samples = 0;
    std::int64_t peak = 0;
    std::size_t cursor = 0;
    for (std::size_t b = first_measured; b < result.bursts.size(); ++b) {
      const sim::Time start = result.bursts[b].started;
      const sim::Time end = result.bursts[b].completed;
      while (cursor < result.queue_series.size() &&
             result.queue_series[cursor].at < start) {
        ++cursor;
      }
      std::size_t i = cursor;
      while (i < result.queue_series.size() && result.queue_series[i].at <= end) {
        in_burst_sum += static_cast<double>(result.queue_series[i].packets);
        ++in_burst_samples;
        peak = std::max(peak, result.queue_series[i].packets);
        ++i;
      }
    }
    if (in_burst_samples > 0) {
      result.avg_queue_packets = in_burst_sum / static_cast<double>(in_burst_samples);
    }
    result.peak_queue_packets = static_cast<double>(peak);
  }

  // Vantage traces: host, then leaf uplinks, then spine tier. The host
  // vantage's queue is the receiver downlink — the bottleneck monitor.
  result.vantages.push_back(VantageTrace{"host", fabric.host(receiver_host).name(),
                                         config.fabric.host_link, host_sampler.bins(),
                                         qmon.watermarks()});
  std::size_t hop = 0;
  for (const auto& s : leaf_samplers) {
    result.vantages.push_back(VantageTrace{"leaf", s->name(),
                                           s->sampler().config().line_rate, s->bins(),
                                           hop_monitors[hop++]->watermarks()});
  }
  for (const auto& s : spine_samplers) {
    result.vantages.push_back(VantageTrace{"spine", s->name(),
                                           s->sampler().config().line_rate, s->bins(),
                                           hop_monitors[hop++]->watermarks()});
  }

  // ECMP spread and path stability.
  for (int gl = 0; gl < fabric.num_leaves(); ++gl) {
    const auto by_port = fabric.leaf(gl).ecmp_flows_by_port();
    FabricIncastExperimentResult::LeafEcmpSpread spread;
    spread.global_leaf = gl;
    for (const std::size_t idx : fabric.leaf_uplink_port_indices(gl)) {
      spread.flows_by_uplink.push_back(by_port.at(idx));
    }
    result.leaf_ecmp.push_back(std::move(spread));
  }
  for (net::Switch* sw : fabric.switches()) {
    result.ecmp_path_changes += sw->ecmp_path_changes();
  }

  // Close out the observed run while every metric source is still alive.
  if (run.active()) {
    std::vector<double> bct_ms;
    for (std::size_t b = first_measured; b < result.bursts.size(); ++b) {
      bct_ms.push_back(result.bursts[b].completion_time().ms());
    }
    run.finish(sim.now().ns(), bct_ms, to_string(result.mode));
  }

  return result;
}

FabricIncastExperimentConfig dumbbell_equivalent_config(
    const IncastExperimentConfig& base) {
  FabricIncastExperimentConfig cfg;
  cfg.num_flows = base.num_flows;
  cfg.placement = FabricIncastExperimentConfig::Placement::kSingleRack;
  cfg.fabric.num_pods = 1;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = base.num_flows;
  cfg.fabric.aggs_per_pod = 0;
  cfg.fabric.num_spines = 1;
  cfg.fabric.host_link = base.topology.host_link;
  cfg.fabric.leaf_uplink = base.topology.core_link;
  cfg.fabric.link_delay = base.topology.link_delay;
  cfg.fabric.switch_queue = base.topology.switch_queue;
  cfg.fabric.host_queue = base.topology.host_queue;
  cfg.fabric.shared_buffer = base.topology.shared_buffer;
  cfg.tcp = base.tcp;
  cfg.burst_duration = base.burst_duration;
  cfg.num_bursts = base.num_bursts;
  cfg.discard_bursts = base.discard_bursts;
  cfg.inter_burst_gap = base.inter_burst_gap;
  cfg.schedule = base.schedule;
  cfg.queue_sample_every = base.queue_sample_every;
  cfg.max_sim_time = base.max_sim_time;
  cfg.seed = base.seed;
  return cfg;
}

}  // namespace incast::core
