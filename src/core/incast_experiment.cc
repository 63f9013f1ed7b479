#include "core/incast_experiment.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/experiment_obs.h"
#include "core/resilience_experiment.h"
#include "obs/flow_trace.h"
#include "obs/hub.h"

namespace incast::core {

namespace {

struct TcpCounters {
  std::int64_t timeouts{0};
  std::int64_t fast_retransmits{0};
  std::int64_t retransmitted_packets{0};
  std::int64_t data_packets_sent{0};
};

TcpCounters sum_counters(const std::vector<tcp::TcpSender*>& senders) {
  TcpCounters c;
  for (const tcp::TcpSender* s : senders) {
    c.timeouts += s->stats().timeouts;
    c.fast_retransmits += s->stats().fast_retransmits;
    c.retransmitted_packets += s->stats().retransmitted_packets;
    c.data_packets_sent += s->stats().data_packets_sent;
  }
  return c;
}

struct QueueCounters {
  std::int64_t drops{0};
  std::int64_t marks{0};
  std::int64_t enqueues{0};
};

QueueCounters queue_counters(const net::DropTailQueue& q) {
  return QueueCounters{q.stats().dropped_packets, q.stats().ecn_marked_packets,
                       q.stats().enqueued_packets};
}

}  // namespace

IncastExperimentResult run_incast_experiment(const IncastExperimentConfig& config) {
  sim::Simulator sim;
  // Attach the hub before any component is built: senders cache the hub
  // pointer in their constructors.
  if (config.hub != nullptr) sim.set_hub(config.hub);

#if INCAST_AUDIT_ENABLED
  // Run-hardening: attach the invariant auditor before any component is
  // built so every hook (dispatch, conservation, TCP bounds) is live from
  // the first event. Relaxed mode only observes — results stay identical.
  std::optional<sim::Auditor> auditor;
  if (config.audit_mode != sim::AuditMode::kOff) {
    sim::Auditor::Config acfg = config.audit;
    acfg.strict = config.audit_mode == sim::AuditMode::kStrict;
    auditor.emplace(acfg);
    sim.set_auditor(&*auditor);
  }
#endif
  // Tail autopsy: like the hub and the auditor, the tracer attaches before
  // topology/sender construction (both cache the pointer). The hub is only
  // a span side channel — breakdowns are identical with or without it.
  std::optional<obs::FlowTracer> flow_tracer;
  if (config.flow_trace) {
    flow_tracer.emplace(
        obs::FlowTracer::Config{config.seed, config.flow_trace_sample_every},
        config.hub);
    sim.set_flow_tracer(&*flow_tracer);
  }
  // Capacity hint: each flow keeps a few timers armed plus its share of
  // packets in flight; the constant floor covers telemetry tickers and the
  // bottleneck queue's worth of delivery events.
  sim.reserve_events(static_cast<std::size_t>(config.num_flows) * 8 + 2048);

  net::DumbbellConfig topo = config.topology;
  topo.num_senders = config.num_flows;
  topo.num_receivers = std::max(topo.num_receivers, 1);
  net::Dumbbell dumbbell{sim, topo};

  workload::CyclicIncastDriver::Config driver_cfg;
  driver_cfg.num_flows = config.num_flows;
  driver_cfg.num_bursts = config.num_bursts;
  driver_cfg.burst_duration = config.burst_duration;
  driver_cfg.inter_burst_gap = config.inter_burst_gap;
  driver_cfg.schedule = config.schedule;
  workload::CyclicIncastDriver driver{sim, dumbbell, config.tcp, driver_cfg, config.seed};

  // Fault layer: constructed only when something is enabled, so a disabled
  // profile is a strict no-op (no hooks installed, no RNG stream created,
  // identical event sequence).
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.enabled()) {
    // Salted so the fault stream is independent of the workload's jitter
    // stream even though both derive from config.seed.
    injector = std::make_unique<fault::FaultInjector>(
        sim, config.seed ^ 0x9E3779B97F4A7C15ULL);
    // The core link's two directions, addressed through the uniform
    // LinkDirectory names.
    fault::LinkFault& fwd =
        injector->install(dumbbell.link("tor_s->tor_r"), config.faults.forward);
    fault::LinkFault& rev =
        injector->install(dumbbell.link("tor_r->tor_s"), config.faults.reverse);
    for (const NamedLinkFault& nf : config.faults.links) {
      if (nf.config.any_enabled()) injector->install(dumbbell.link(nf.link), nf.config);
    }
    for (const fault::FlapWindow& w : config.faults.flaps) {
      injector->schedule_flap(fwd, w.down_at, w.duration);
      injector->schedule_flap(rev, w.down_at, w.duration);
    }
  }

  // Experiment-scope observability: label the bottleneck link for tracing
  // and expose its queue (plus fault totals) in the metrics registry.
  ExperimentObserver observer{INCAST_OBS_HUB(sim)};
  const std::string bottleneck_link = "tor_r->" + dumbbell.receiver(0).name();
  if (observer.active()) {
    dumbbell.link(bottleneck_link).set_trace_label(bottleneck_link);
    observer.watch_queue(bottleneck_link, dumbbell.bottleneck_queue());
    observer.watch_simulator(sim);
    if (injector) observer.watch_faults(*injector);
#if INCAST_AUDIT_ENABLED
    if (auditor) observer.watch_auditor(*auditor, sim);
#endif
  }

  telemetry::QueueMonitor::Config qcfg;
  qcfg.sample_every = config.queue_sample_every;
  qcfg.watermark_window = sim::Time::milliseconds(1);
  if (observer.active()) qcfg.trace_label = bottleneck_link;
  telemetry::QueueMonitor qmon{sim, dumbbell.bottleneck_queue(), qcfg};
  if (injector) {
    qmon.set_injected_drop_source(
        [inj = injector.get()] { return inj->total().injected_drops(); });
  }
  qmon.start(config.max_sim_time);

  auto senders = driver.senders();
  std::unique_ptr<telemetry::InflightSampler> inflight;
  if (config.inflight_sample_every > sim::Time::zero()) {
    inflight = std::make_unique<telemetry::InflightSampler>(sim, senders,
                                                            config.inflight_sample_every);
    inflight->start(config.max_sim_time);
  }

  // Counter snapshots frame the measured window: taken when the last
  // discarded burst completes (flows are idle between bursts, so the
  // boundary is clean), or at t=0 when nothing is discarded.
  TcpCounters tcp_at_start = sum_counters(senders);
  QueueCounters q_at_start = queue_counters(dumbbell.bottleneck_queue());
  double cwnd_mean_accum = 0.0;
  double cwnd_max_accum = 0.0;
  int measured_completions = 0;

  driver.set_on_burst_complete([&](int index) {
    if (index == config.discard_bursts - 1) {
      tcp_at_start = sum_counters(senders);
      q_at_start = queue_counters(dumbbell.bottleneck_queue());
    }
    if (index >= config.discard_bursts) {
      double total_mss = 0.0;
      double max_mss = 0.0;
      const auto mss = static_cast<double>(config.tcp.mss_bytes);
      for (const tcp::TcpSender* s : senders) {
        const double w = static_cast<double>(s->effective_cwnd()) / mss;
        total_mss += w;
        max_mss = std::max(max_mss, w);
      }
      cwnd_mean_accum += total_mss / static_cast<double>(senders.size());
      cwnd_max_accum += max_mss;
      ++measured_completions;
    }
    if (driver.finished()) sim.stop();
  });

  driver.start();
  sim.run_until(config.max_sim_time);

  // A switch with no route for a destination silently blackholes traffic —
  // always a topology bug, never a legitimate outcome. Fail loudly, naming
  // the switch and destination.
  net::check_no_unrouted(dumbbell.switches());

#if INCAST_AUDIT_ENABLED
  // Teardown ledger check: every injected byte must now be delivered,
  // dropped, or still buffered in a queue / on a wire somewhere.
  if (auditor) auditor->check_conservation(dumbbell.residual_buffered_bytes());
#endif

  IncastExperimentResult result;

  // Tail autopsy teardown: close the waterfall, split the drain bucket, and
  // hold every completed sampled flow to the conservation invariant.
  if (flow_tracer) {
    result.flow_breakdowns = flow_tracer->finalize(sim.now().ns());
    result.flow_trace_incomplete = flow_tracer->incomplete_flows();
#if INCAST_AUDIT_ENABLED
    if (auditor) {
      for (const obs::FlowBreakdown& f : result.flow_breakdowns) {
        auditor->check_flow_breakdown(f.flow, f.component_sum(), f.fct_ns);
      }
    }
#endif
    result.fct_rows = obs::tail_attribution(result.flow_breakdowns);
  }

  // INT overflow teardown check (see Port::int_hop_overflows): never fatal
  // — deep paths with ACK echo can legitimately exceed the stack — but
  // never silent either.
  for (const net::Switch* sw : dumbbell.switches()) {
    result.int_hop_overflows += sw->int_hop_overflows();
  }
  for (int i = 0; i < dumbbell.num_senders(); ++i) {
    result.int_hop_overflows += dumbbell.sender(i).int_hop_overflows();
  }
  for (int i = 0; i < dumbbell.num_receivers(); ++i) {
    result.int_hop_overflows += dumbbell.receiver(i).int_hop_overflows();
  }
  if (result.int_hop_overflows > 0) {
    std::fprintf(stderr,
                 "warning: %lld INT hop records overflowed the %d-entry stack "
                 "(net.int.hop_overflow); telemetry CCAs saw truncated paths\n",
                 static_cast<long long>(result.int_hop_overflows), net::kMaxIntHops);
  }
  if (observer.active()) {
    observer.hub()->metrics().register_counter(
        "net.int.hop_overflow", [v = result.int_hop_overflows] { return v; });
  }

#if INCAST_AUDIT_ENABLED
  if (auditor) result.audit_violations = auditor->total_violations();
#endif
  result.bursts = driver.bursts();
  result.queue_series = qmon.samples();
  result.queue_offset_step = config.queue_sample_every;
  result.congestion_drops_by_window = qmon.drops_at_window_end();
  result.injected_drops_by_window = qmon.injected_drops_at_window_end();
  result.events_processed = sim.events_processed();
  result.events_by_category = sim.events_by_category();
  result.peak_events_pending = sim.peak_events_pending();
  result.slab_high_water = sim.slab_high_water();

  if (injector) {
    const fault::FaultCounters faults = injector->total();
    result.injected_drops = faults.injected_drops();
    result.injected_flap_drops = faults.flap_drops;
    result.injected_corruptions = faults.corrupted;
    result.injected_duplicates = faults.duplicated;
    result.injected_reorders = faults.reordered;
    for (int i = 0; i < dumbbell.num_receivers(); ++i) {
      result.corrupt_nic_drops += dumbbell.receiver(i).corrupt_dropped_packets();
    }
    for (int i = 0; i < dumbbell.num_senders(); ++i) {
      result.corrupt_nic_drops += dumbbell.sender(i).corrupt_dropped_packets();
    }
  }

  const TcpCounters tcp_end = sum_counters(senders);
  const QueueCounters q_end = queue_counters(dumbbell.bottleneck_queue());
  result.timeouts = tcp_end.timeouts - tcp_at_start.timeouts;
  result.fast_retransmits = tcp_end.fast_retransmits - tcp_at_start.fast_retransmits;
  result.retransmitted_packets =
      tcp_end.retransmitted_packets - tcp_at_start.retransmitted_packets;
  result.data_packets_sent = tcp_end.data_packets_sent - tcp_at_start.data_packets_sent;
  result.queue_drops = q_end.drops - q_at_start.drops;
  result.queue_ecn_marks = q_end.marks - q_at_start.marks;
  result.queue_enqueues = q_end.enqueues - q_at_start.enqueues;

  if (measured_completions > 0) {
    result.end_of_burst_cwnd_mean_mss =
        cwnd_mean_accum / static_cast<double>(measured_completions);
    result.end_of_burst_cwnd_max_mss =
        cwnd_max_accum / static_cast<double>(measured_completions);
  }

  // Per-burst aggregates and the aligned queue-vs-offset series.
  const auto& bursts = result.bursts;
  const auto first_measured = static_cast<std::size_t>(config.discard_bursts);
  if (bursts.size() > first_measured) {
    sim::Time window = sim::Time::zero();
    double bct_total = 0.0;
    for (std::size_t b = first_measured; b < bursts.size(); ++b) {
      const sim::Time bct = bursts[b].completion_time();
      window = std::max(window, bct);
      bct_total += bct.ms();
      result.max_bct_ms = std::max(result.max_bct_ms, bct.ms());
    }
    result.avg_bct_ms = bct_total / static_cast<double>(bursts.size() - first_measured);

    const auto offsets =
        static_cast<std::size_t>(window.ns() / config.queue_sample_every.ns()) + 1;
    std::vector<double> sums(offsets, 0.0);
    std::vector<int> counts(offsets, 0);

    double in_burst_sum = 0.0;
    std::int64_t in_burst_samples = 0;
    std::int64_t peak = 0;

    // queue_series is time-ordered; walk it once per burst window.
    std::size_t cursor = 0;
    for (std::size_t b = first_measured; b < bursts.size(); ++b) {
      const sim::Time start = bursts[b].started;
      const sim::Time end_window = start + window;
      while (cursor < result.queue_series.size() &&
             result.queue_series[cursor].at < start) {
        ++cursor;
      }
      std::size_t i = cursor;
      while (i < result.queue_series.size() && result.queue_series[i].at < end_window) {
        const auto& s = result.queue_series[i];
        const auto offset =
            static_cast<std::size_t>((s.at - start).ns() / config.queue_sample_every.ns());
        if (offset < offsets) {
          sums[offset] += static_cast<double>(s.packets);
          ++counts[offset];
        }
        if (s.at <= bursts[b].completed) {
          in_burst_sum += static_cast<double>(s.packets);
          ++in_burst_samples;
          peak = std::max(peak, s.packets);
        }
        ++i;
      }
    }

    result.mean_queue_by_offset.resize(offsets, 0.0);
    for (std::size_t i = 0; i < offsets; ++i) {
      if (counts[i] > 0) result.mean_queue_by_offset[i] = sums[i] / counts[i];
    }
    if (in_burst_samples > 0) {
      result.avg_queue_packets = in_burst_sum / static_cast<double>(in_burst_samples);
    }
    result.peak_queue_packets = static_cast<double>(peak);
  }

  if (inflight) result.inflight = inflight->snapshots();

  // Close out the observed run while every metric source is still alive:
  // BCT histogram, mode classification, final registry snapshot.
  if (observer.active()) {
    std::vector<double> bct_ms;
    for (std::size_t b = first_measured; b < bursts.size(); ++b) {
      bct_ms.push_back(bursts[b].completion_time().ms());
    }
    observer.finish(sim.now().ns(), bct_ms, to_string(classify_mode(result)));
    // The overflow counter captured a snapshot value; drop it so a reused
    // hub (back-to-back runs) can register it afresh.
    observer.hub()->metrics().unregister_prefix("net.int.");
  }

  return result;
}

}  // namespace incast::core
