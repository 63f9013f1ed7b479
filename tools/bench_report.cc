// bench_report — machine-readable perf reports for the CI perf gate.
//
//   bench_report sweep [--out BENCH_sweep.json] [--jobs N] [--service messaging]
//                      [--hosts 4] [--snapshots 3] [--trace 100ms] [--seed 42]
//       Runs the fleet (host, snapshot) grid once per entry of a jobs
//       ladder (1, 2, ..., N) through sim::SweepRunner and emits JSON with
//       per-rung wall time, simulator events/sec, and speedup vs 1 thread,
//       plus a determinism check: the telemetry of every rung must be
//       byte-identical to the sequential run's. A final sequential run with
//       the event-loop self-profiler enabled contributes an
//       "event_loop_profile" section (events and wall ms per event
//       category) so event-mix regressions are visible next to the raw
//       throughput numbers. CI archives the file as an artifact so the
//       perf trajectory is comparable across commits.
//   bench_report scaling [--out BENCH_scaling.json] [--degrees 64,512,2000]
//                        [--bytes 270000] [--jobs 4] [--seed 1]
//       Runs the incast-degree scaling ladder (core::IncastScalingExperiment
//       on the 432-host fat-tree) sequentially, then re-runs it at --jobs
//       workers and byte-compares the CSVs (exit 1 on divergence). Emits
//       google-benchmark-shaped JSON — one "BM_ScalingIncast/<degree>" entry
//       per rung with events/sec, the deterministic peak bytes-per-flow
//       decomposition, and FCT overhead — so tools/check_bench_regression.py
//       gates both throughput and the --memory bytes-per-flow budget from
//       the same artifact.
#include <array>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli_args.h"
#include "core/fleet_experiment.h"
#include "core/scaling_experiment.h"
#include "sim/event_category.h"
#include "telemetry/trace_io.h"
#include "workload/service_profile.h"

namespace {

using namespace incast;
using namespace incast::sim::literals;

// The telemetry fingerprint of one sweep: every trace's Millisampler bins
// serialized in task order. Any scheduling-dependent divergence — a stolen
// task changing an Rng draw, a result landing at the wrong index — changes
// these bytes.
std::string sweep_fingerprint(const std::vector<core::HostTraceResult>& results) {
  std::ostringstream out;
  for (const auto& r : results) {
    out << r.host << ',' << r.snapshot << ',' << r.queue_drops << ','
        << r.events_processed << '\n';
    telemetry::write_bins_csv(r.bins, out);
  }
  return out.str();
}

struct Rung {
  int jobs{1};
  double wall_ms{0.0};
  std::uint64_t events{0};
  double events_per_sec{0.0};
};

int run_sweep_report(core::CliArgs& args) {
  const std::string out_path = args.get_or("out", "BENCH_sweep.json");
  const std::string service = args.get_or("service", "messaging");
  const int max_jobs = static_cast<int>(args.int_or("jobs", 0, 0, 1024));

  core::FleetConfig cfg;
  try {
    cfg.profile = workload::service_by_name(service);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "error: unknown --service '%s'\n", service.c_str());
    return 2;
  }
  // A modest grid: large enough that per-task cost dwarfs pool overhead,
  // small enough for a CI smoke step.
  cfg.profile.max_flows = 40;
  cfg.profile.body_median_flows = 20.0;
  cfg.num_hosts = static_cast<int>(args.int_or("hosts", 4, 1, 10'000));
  cfg.num_snapshots = static_cast<int>(args.int_or("snapshots", 3, 1, 10'000));
  cfg.trace_duration = args.time_or("trace", 100_ms, 1_ns);
  cfg.base_seed = static_cast<std::uint64_t>(args.int_or("seed", 42));
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
  args.reject_unknown();
  for (const auto& err : args.errors()) std::fprintf(stderr, "error: %s\n", err.c_str());
  if (!args.errors().empty()) return 2;

  // Jobs ladder: 1, 2, 4, ... up to the requested (or hardware) width.
  const int top = sim::SweepRunner{max_jobs}.jobs();
  std::vector<int> ladder{1};
  for (int j = 2; j < top; j *= 2) ladder.push_back(j);
  if (top > 1) ladder.push_back(top);

  std::string baseline_fingerprint;
  bool identical = true;
  std::vector<Rung> rungs;
  for (const int jobs : ladder) {
    cfg.jobs = jobs;
    core::FleetExperiment exp{cfg};
    exp.set_keep_bins(true);
    const auto results = exp.run_all();
    const auto& sweep = exp.last_sweep();

    Rung rung;
    rung.jobs = jobs;
    rung.wall_ms = sweep.wall_ms;
    rung.events = sweep.total_events;
    rung.events_per_sec = sweep.events_per_second();
    rungs.push_back(rung);

    const std::string fp = sweep_fingerprint(results);
    if (jobs == 1) {
      baseline_fingerprint = fp;
    } else if (fp != baseline_fingerprint) {
      identical = false;
    }
    std::printf("jobs=%d: %.2f ms, %llu events, %.0f events/s\n", jobs, rung.wall_ms,
                static_cast<unsigned long long>(rung.events), rung.events_per_sec);
  }

  const double base_eps = rungs.front().events_per_sec;
  const double top_eps = rungs.back().events_per_sec;
  const double speedup = base_eps > 0.0 ? top_eps / base_eps : 0.0;

  // One extra sequential pass with the self-profiler on: per-category event
  // counts and wall time. Kept out of the timed ladder — the steady_clock
  // read per dispatch is exactly the overhead the ladder must not carry.
  sim::EventCategoryCounts profile_events{};
  std::array<double, sim::kNumEventCategories> profile_wall_ns{};
  {
    cfg.jobs = 1;
    cfg.profile_event_loop = true;
    core::FleetExperiment exp{cfg};
    for (const auto& r : exp.run_all()) {
      for (std::size_t c = 0; c < sim::kNumEventCategories; ++c) {
        profile_events[c] += r.events_by_category[c];
        profile_wall_ns[c] += r.wall_ns_by_category[c];
      }
    }
  }
  std::printf("event-loop profile:");
  for (std::size_t c = 0; c < sim::kNumEventCategories; ++c) {
    if (profile_events[c] == 0) continue;
    std::printf(" %s=%llu (%.2f ms)",
                sim::to_string(static_cast<sim::EventCategory>(c)),
                static_cast<unsigned long long>(profile_events[c]),
                profile_wall_ns[c] / 1e6);
  }
  std::printf("\n");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"fleet_sweep\",\n");
  std::fprintf(out, "  \"service\": \"%s\",\n", service.c_str());
  std::fprintf(out, "  \"hosts\": %d,\n  \"snapshots\": %d,\n  \"trace_ms\": %.3f,\n",
               cfg.num_hosts, cfg.num_snapshots, cfg.trace_duration.ms());
  std::fprintf(out, "  \"rungs\": [\n");
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    std::fprintf(out,
                 "    {\"jobs\": %d, \"wall_ms\": %.3f, \"events\": %llu, "
                 "\"events_per_sec\": %.1f}%s\n",
                 r.jobs, r.wall_ms, static_cast<unsigned long long>(r.events),
                 r.events_per_sec, i + 1 < rungs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"event_loop_profile\": [\n");
  for (std::size_t c = 0; c < sim::kNumEventCategories; ++c) {
    std::fprintf(out,
                 "    {\"category\": \"%s\", \"events\": %llu, \"wall_ms\": %.3f}%s\n",
                 sim::to_string(static_cast<sim::EventCategory>(c)),
                 static_cast<unsigned long long>(profile_events[c]),
                 profile_wall_ns[c] / 1e6, c + 1 < sim::kNumEventCategories ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedup_vs_1\": %.3f,\n", speedup);
  std::fprintf(out, "  \"identical_results\": %s\n", identical ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("speedup at %d jobs vs 1: %.2fx, results identical: %s -> %s\n",
              rungs.back().jobs, speedup, identical ? "yes" : "NO", out_path.c_str());
  // Non-identical parallel results are a correctness failure, not a perf
  // data point; fail loudly so CI catches it.
  return identical ? 0 : 1;
}

int run_scaling_report(core::CliArgs& args) {
  const std::string out_path = args.get_or("out", "BENCH_scaling.json");
  const int check_jobs = static_cast<int>(args.int_or("jobs", 4, 2, 1024));

  core::ScalingConfig cfg;
  cfg.degrees.clear();
  {
    std::istringstream in{args.get_or("degrees", "64,512,2000")};
    std::string field;
    while (std::getline(in, field, ',')) {
      const int v = std::atoi(field.c_str());
      if (v < 1 || v > 100'000) {
        std::fprintf(stderr, "error: --degrees: bad fan-in '%s'\n", field.c_str());
        return 2;
      }
      cfg.degrees.push_back(v);
    }
  }
  cfg.bytes_per_flow = args.int_or("bytes", cfg.bytes_per_flow, 1, 1'000'000'000);
  cfg.seed = static_cast<std::uint64_t>(args.int_or("seed", 1));
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
  args.reject_unknown();
  for (const auto& err : args.errors()) std::fprintf(stderr, "error: %s\n", err.c_str());
  if (!args.errors().empty()) return 2;

  // Sequential reference run: its per-point wall times are the throughput
  // numbers (no worker contention), its CSV the determinism baseline.
  cfg.jobs = 1;
  const core::ScalingReport report = core::run_scaling_experiment(cfg);
  const std::string sequential_csv = core::scaling_csv(report);

  // The determinism check: the same ladder on a thread pool must produce
  // the identical artifact, byte for byte.
  cfg.jobs = check_jobs;
  const core::ScalingReport parallel = core::run_scaling_experiment(cfg);
  const bool identical = core::scaling_csv(parallel) == sequential_csv;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"context\": {\"benchmark\": \"incast_scaling\", "
                    "\"bytes_per_flow\": %lld, \"identical_at_jobs_%d\": %s},\n",
               static_cast<long long>(cfg.bytes_per_flow), check_jobs,
               identical ? "true" : "false");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const core::ScalingPoint& p = report.points[i];
    const double wall_ms = report.sweep.tasks[i].wall_ms;
    const double events_per_sec =
        wall_ms > 0.0 ? static_cast<double>(p.events_processed) / (wall_ms / 1e3) : 0.0;
    std::fprintf(out,
                 "    {\"name\": \"BM_ScalingIncast/%d\", \"run_type\": \"iteration\", "
                 "\"real_time\": %.1f, \"time_unit\": \"ns\", "
                 "\"items_per_second\": %.1f, \"peak_bytes_per_flow\": %llu, "
                 "\"fct_overhead_pct\": %.2f, \"fct_ms\": %.4f, \"events\": %llu}%s\n",
                 p.degree, wall_ms * 1e6, events_per_sec,
                 static_cast<unsigned long long>(p.bytes_per_flow), p.overhead_pct,
                 p.fct_ms, static_cast<unsigned long long>(p.events_processed),
                 i + 1 < report.points.size() ? "," : "");
    std::printf("degree=%d: %.2f ms FCT (%.1f%% overhead), %.0f events/s, "
                "%llu bytes/flow\n",
                p.degree, p.fct_ms, p.overhead_pct, events_per_sec,
                static_cast<unsigned long long>(p.bytes_per_flow));
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  std::printf("peak RSS %.1f MiB, results identical at --jobs %d: %s -> %s\n",
              static_cast<double>(report.sweep.peak_rss_bytes) / (1024.0 * 1024.0),
              check_jobs, identical ? "yes" : "NO", out_path.c_str());
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string command = argc >= 2 ? argv[1] : "";
    if (command != "sweep" && command != "scaling") {
      std::fprintf(stderr,
                   "usage: bench_report sweep [--out BENCH_sweep.json] "
                   "[--jobs N] [--hosts H] [--snapshots S] [--trace 100ms]\n"
                   "       bench_report scaling [--out BENCH_scaling.json] "
                   "[--degrees 64,512,2000] [--bytes 270000] [--jobs 4]\n");
      return 2;
    }
    incast::core::CliArgs args{argc - 1, argv + 1};
    return command == "sweep" ? run_sweep_report(args) : run_scaling_report(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
