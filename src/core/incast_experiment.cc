#include "core/incast_experiment.h"

#include <algorithm>
#include <memory>
#include <string>

#include "core/experiment_obs.h"
#include "core/resilience_experiment.h"

namespace incast::core {

IncastExperimentResult run_incast_experiment(const IncastExperimentConfig& config) {
  sim::Simulator sim;
  ExperimentObserver run{sim, config, config.hub, config.seed};
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

  // Experiment-scope observability: the bottleneck link (trace label and
  // queue metrics) plus fault totals.
  if (injector) run.watch_faults(*injector);
  telemetry::QueueMonitor::Config qcfg;
  qcfg.sample_every = config.queue_sample_every;
  qcfg.watermark_window = sim::Time::milliseconds(1);
  qcfg.trace_label = run.watch_bottleneck(dumbbell, "tor_r->" + dumbbell.receiver(0).name());
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
  WindowCounters at_start = WindowCounters::read(senders, dumbbell.bottleneck_queue());
  double cwnd_mean_accum = 0.0;
  double cwnd_max_accum = 0.0;
  int measured_completions = 0;

  driver.set_on_burst_complete([&](int index) {
    if (index == config.discard_bursts - 1) {
      at_start = WindowCounters::read(senders, dumbbell.bottleneck_queue());
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

  IncastExperimentResult result;
  run.teardown(dumbbell, dumbbell.switches(), result);

  result.bursts = driver.bursts();
  result.queue_series = qmon.samples();
  result.queue_offset_step = config.queue_sample_every;
  result.congestion_drops_by_window = qmon.drops_at_window_end();
  result.injected_drops_by_window = qmon.injected_drops_at_window_end();

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

  WindowCounters::read(senders, dumbbell.bottleneck_queue()).store_since(at_start, result);

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
  if (run.active()) {
    std::vector<double> bct_ms;
    for (std::size_t b = first_measured; b < bursts.size(); ++b) {
      bct_ms.push_back(bursts[b].completion_time().ms());
    }
    run.finish(sim.now().ns(), bct_ms, to_string(classify_mode(result)));
  }

  return result;
}

}  // namespace incast::core
