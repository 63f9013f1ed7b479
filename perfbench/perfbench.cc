// incast_perfbench: the simulator's end-to-end benchmark driver.
//
//   incast_perfbench --workload scaling_fanin|fleet_storage|collateral_lossless
//                    --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Builds the workload's topology and flow state repeatedly (set-up time),
// then calls the workload's experiment entry point back to back for S
// seconds, checking every simulation point it returns. The last line of
// stdout is one JSON object of raw samples; perfbench/run.py reduces it to
// the benchmark result and compares the output fingerprints with the ones
// recorded for the seed.
//
// With --trace 1 the run also makes one observed pass (an obs::Hub with
// metrics on and the tracer off attached to every point it can reach) and
// the per-layer probes, records a span around every call the benchmark
// makes into the simulator's public API, and writes
// DIR/<workload>-seed<N>.trace.json (Chrome trace of those spans) and
// DIR/<workload>-seed<N>.metrics.json (the hubs' final metrics snapshots).
// Nothing inside the simulator is instrumented by this program.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/burst_detector.h"
#include "core/collateral_experiment.h"
#include "core/fleet_experiment.h"
#include "core/scaling_experiment.h"
#include "core/task_journal.h"
#include "fabric/fat_tree.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stable_arena.h"
#include "sim/sweep.h"
#include "tcp/tcp_connection.h"
#include "workload/service_profile.h"

namespace {

using namespace incast;
using Clock = std::chrono::steady_clock;

// A point that runs longer than this is stopped by its auditor and counted
// as failed, so one stuck point cannot hold a run past its time limit.
constexpr double kPointBudgetMs = 60'000.0;
// A set-up round repeats the set-up until both limits are reached. Rounds run
// before the first timed call and after every one, so the set-up samples
// span the same stretch of host time as the calls they are compared with.
constexpr double kSetupRoundSeconds = 0.1;
constexpr int kSetupRoundReps = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Data lines of a CSV (header dropped): one line per simulation point.
std::vector<std::string> csv_rows(const std::string& csv) {
  std::vector<std::string> rows;
  std::istringstream in{csv};
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

// Wall-clock spans around the benchmark's own calls into the simulator,
// kept in memory and written once, at the end, as Chrome-trace JSON.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};
  };

  // Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Spans* owner, int index) : owner_{owner}, index_{index} {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }

   private:
    Spans* owner_;
    int index_;
  };

  explicit Spans(bool enabled) : enabled_{enabled}, origin_{Clock::now()} {}

  [[nodiscard]] Scope open(std::string name) {
    if (!enabled_) return Scope{nullptr, -1};
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope{this, open_.back()};
  }

  // B/E pairs in depth-first order, so timestamps never go backwards and
  // every child closes before its parent. args carries the span's index and
  // its parent's (-1 for a root).
  void write_chrome_trace(std::ostream& out) const {
    std::vector<std::vector<int>> children(spans_.size());
    std::vector<int> roots;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      (p < 0 ? roots : children[static_cast<std::size_t>(p)]).push_back(static_cast<int>(i));
    }
    out << "{\"traceEvents\":[\n"
        << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"perfbench"}})";
    const std::function<void(int)> emit = [&](int i) {
      const Span& s = spans_[static_cast<std::size_t>(i)];
      const auto event = [&](const char* ph, std::int64_t ns) {
        char ts[32];
        std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(ns) / 1e3);
        out << ",\n{\"name\":" << json_string(s.name) << ",\"cat\":\"perfbench\",\"ph\":\""
            << ph << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":1,\"args\":{\"span\":" << i
            << ",\"parent\":" << s.parent << "}}";
      };
      event("B", s.start_ns);
      for (const int c : children[static_cast<std::size_t>(i)]) emit(c);
      event("E", s.end_ns);
    };
    for (const int r : roots) emit(r);
    out << "\n]}\n";
  }

 private:
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// One timed call of the workload's experiment entry point.
struct Iteration {
  double wall_s{0.0};
  std::vector<std::string> rows;      // canonical output, one line per point
  std::vector<std::string> failures;  // per point: empty, or why it failed
  std::uint64_t point_events{0};      // sum of the points' own event counts
  sim::SweepRunner::RunStats sweep;
};

// One construction of every point's topology and flow state.
struct SetupSample {
  double total_s{0.0};
  double topology_s{0.0};  // per topology built
  double flow_us{0.0};     // per TcpConnection built
};

using Layers = std::map<std::string, double>;

// Per-point checks shared by the workloads: a quarantined point, audit
// violations, and a workload-specific condition (`extra`, empty when met).
std::string point_failure(const sim::SweepRunner::RunStats& sweep, std::size_t index,
                          std::uint64_t audit_violations, const std::string& extra) {
  if (sweep.failed(index)) {
    for (const sim::TaskFailure& f : sweep.failures) {
      if (f.index == index) {
        return std::string{"quarantined ("} + sim::to_string(f.category) + "): " + f.message;
      }
    }
  }
  if (audit_violations > 0) {
    return std::to_string(audit_violations) + " audit violation(s)";
  }
  return extra;
}

void harden(sim::SweepRunner::Policy& sweep, sim::Auditor::Config& audit) {
  sweep.fail_fast = false;
  sweep.max_attempts = 1;
  audit.max_wall_ms = kPointBudgetMs;
}

tcp::TcpConfig dctcp_200ms() {
  tcp::TcpConfig tcp;
  tcp.cc = tcp::CcAlgorithm::kDctcp;
  tcp.rtt.min_rto = sim::Time::milliseconds(200);
  return tcp;
}

std::int64_t hub_counter(const obs::Hub& hub, const std::string& name) {
  for (const auto& e : hub.final_metrics().entries) {
    if (e.name == name) return e.counter;
  }
  throw std::runtime_error{"hub metric " + name + " missing"};
}

// Cost of the bare event kernel: `pending` self-rescheduling timers keep the
// heap at the workload's peak depth while `events` of them fire.
double kernel_ns_per_event(std::size_t pending, std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 2'000'000;
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    sim.reserve_events(pending + 16);
    sim::Rng rng{seed};
    std::uint64_t fired = 0;
    struct Timer {
      sim::Simulator* sim;
      sim::Rng* rng;
      std::uint64_t* fired;
      void operator()() const {
        if (++*fired == kEvents) sim->stop();
        sim->schedule_in(rng->uniform_time(sim::Time::microseconds(1),
                                           sim::Time::microseconds(200)),
                         Timer{*this});
      }
    };
    for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
      sim.schedule_in(rng.uniform_time(sim::Time::zero(), sim::Time::microseconds(200)),
                      Timer{&sim, &rng, &fired});
    }
    const auto t0 = Clock::now();
    sim.run();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(fired));
  }
  return median(samples);
}

// Wall time of the same work run unobserved and observed.
struct Overhead {
  double plain_s{0.0};
  double observed_s{0.0};
};

// Runs `plain`, `observed`, `plain` and books the observed call against the
// mean of the two unobserved calls around it, so host speed drifting during
// the three calls cancels out of the comparison. Returns the observed time.
template <typename Plain, typename Observed>
double bracket(Overhead& overhead, const Plain& plain, const Observed& observed) {
  const auto timed = [](const auto& f) {
    const auto t0 = Clock::now();
    f();
    return seconds_since(t0);
  };
  const double before = timed(plain);
  const double observed_s = timed(observed);
  overhead.plain_s += (before + timed(plain)) / 2.0;
  overhead.observed_s += observed_s;
  return observed_s;
}

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every point's topology and flow state through the public
  // constructors. Only construction is timed; teardown is not.
  virtual SetupSample setup(Spans& spans) const = 0;

  // One call of the experiment entry point, with every point checked.
  virtual Iteration run(Spans& spans) = 0;

  // The observed pass: the same work with hubs attached, each observed call
  // bracketed by unobserved ones, and checked against `reference` (an
  // unobserved iteration). Fills per-layer metrics, appends any check
  // failures, and returns the observed and unobserved wall times.
  virtual Overhead observe(Spans& spans, const Iteration& reference, Layers& layers,
                           std::vector<std::string>& failures,
                           std::map<std::string, std::unique_ptr<obs::Hub>>& hubs) = 0;
};

// The htsim incast_scaling sweep at the two degrees a run can repeat.
class ScalingFanin final : public Workload {
 public:
  explicit ScalingFanin(std::uint64_t seed) {
    config_.degrees = {512, 2000};
    config_.bytes_per_flow = 270'000;
    config_.tcp = dctcp_200ms();
    config_.jobs = 1;
    config_.seed = seed;
    harden(config_.sweep, config_.audit);
  }

  SetupSample setup(Spans& spans) const override {
    SetupSample s;
    double flows = 0;
    double flow_s = 0;
    for (std::size_t i = 0; i < config_.degrees.size(); ++i) {
      const int degree = config_.degrees[i];
      sim::Simulator sim;
      fabric::FatTreeConfig fcfg = config_.fabric;
      fcfg.ecmp_seed = sim::derive_task_seed(config_.seed, i);
      const auto t0 = Clock::now();
      std::unique_ptr<fabric::FatTree> tree;
      {
        auto span = spans.open("fabric::FatTree");
        tree = std::make_unique<fabric::FatTree>(sim, fcfg);
      }
      const double topo = seconds_since(t0);
      {
        auto span = spans.open("net::Switch::reserve_flows");
        for (net::Switch* sw : tree->switches()) {
          sw->reserve_flows(static_cast<std::size_t>(degree));
        }
      }
      const auto t1 = Clock::now();
      sim::StableChunkArena<tcp::TcpConnection, 8> connections;
      {
        auto span = spans.open("tcp::TcpConnection");
        const int receiver = receiver_host(*tree);
        for (int f = 0; f < degree; ++f) {
          connections.emplace_back(sim, tree->host(sender_host(*tree, f)),
                                   tree->host(receiver), static_cast<net::FlowId>(f) + 1,
                                   config_.tcp);
        }
      }
      flow_s += seconds_since(t1);
      s.total_s += seconds_since(t0);
      s.topology_s += topo;
      flows += degree;
    }
    s.topology_s /= static_cast<double>(config_.degrees.size());
    s.flow_us = flow_s * 1e6 / flows;
    return s;
  }

  Iteration run(Spans& spans) override {
    Iteration it;
    core::ScalingReport report;
    {
      auto span = spans.open("core::run_scaling_experiment");
      const auto t0 = Clock::now();
      report = core::run_scaling_experiment(config_);
      it.wall_s = seconds_since(t0);
    }
    {
      auto span = spans.open("core::scaling_csv");
      it.rows = csv_rows(core::scaling_csv(report));
    }
    for (std::size_t i = 0; i < report.points.size(); ++i) {
      const core::ScalingPoint& p = report.points[i];
      it.point_events += p.events_processed;
      it.failures.push_back(point_failure(
          report.sweep, i, p.audit_violations,
          p.completed_flows == p.degree
              ? ""
              : std::to_string(p.completed_flows) + " of " + std::to_string(p.degree) +
                    " flows completed"));
    }
    it.sweep = report.sweep;
    return it;
  }

  // Every degree runs once more through run_scaling_point with its own hub
  // (the sweep observes only point 0), so sim.events.peak_pending is read
  // at the degree that sets it.
  Overhead observe(Spans& spans, const Iteration& reference, Layers& layers,
                   std::vector<std::string>& failures,
                   std::map<std::string, std::unique_ptr<obs::Hub>>& hubs) override {
    core::ScalingReport report;
    Overhead overhead;
    for (std::size_t i = 0; i < config_.degrees.size(); ++i) {
      const int degree = config_.degrees[i];
      const std::uint64_t seed = sim::derive_task_seed(config_.seed, i);
      auto& hub = hubs["degree" + std::to_string(degree)];
      hub = std::make_unique<obs::Hub>();
      bracket(
          overhead,
          [&] {
            auto span = spans.open("core::run_scaling_point");
            (void)core::run_scaling_point(config_, degree, seed, nullptr);
          },
          [&] {
            auto span = spans.open("core::run_scaling_point");
            report.points.push_back(core::run_scaling_point(config_, degree, seed, hub.get()));
          });
    }
    std::vector<std::string> rows;
    {
      auto span = spans.open("core::scaling_csv");
      rows = csv_rows(core::scaling_csv(report));
    }
    if (rows != reference.rows) {
      failures.push_back("observed scaling points differ from the unobserved sweep");
    }

    std::uint64_t peak_pending = 0;
    std::uint64_t slab = 0;
    for (std::size_t i = 0; i < report.points.size(); ++i) {
      const core::ScalingPoint& p = report.points[i];
      const obs::Hub& hub = *hubs["degree" + std::to_string(p.degree)];
      if (static_cast<std::uint64_t>(hub_counter(hub, "sim.events.processed")) !=
          p.events_processed) {
        failures.push_back("hub sim.events.processed != point events at degree " +
                           std::to_string(p.degree));
      }
      peak_pending = std::max<std::uint64_t>(
          peak_pending, static_cast<std::uint64_t>(hub_counter(hub, "sim.events.peak_pending")));
      slab = std::max<std::uint64_t>(
          slab, static_cast<std::uint64_t>(hub_counter(hub, "sim.events.slab_high_water")));
      layers["net.queue_drops"] += static_cast<double>(p.queue_drops);
      layers["tcp.timeouts"] += static_cast<double>(p.timeouts);
      layers["tcp.retransmits"] += static_cast<double>(p.retransmits);
      layers["fabric.routing_bytes"] =
          std::max(layers["fabric.routing_bytes"], static_cast<double>(p.routing_bytes));
      layers["net.packet_pool_bytes"] = std::max(layers["net.packet_pool_bytes"],
                                                 static_cast<double>(p.packet_pool_bytes));
      layers["tcp.flow_state_bytes"] = std::max(layers["tcp.flow_state_bytes"],
                                                static_cast<double>(p.flow_state_bytes));
    }
    layers["sim.peak_events_pending"] = static_cast<double>(peak_pending);
    layers["sim.slab_high_water"] = static_cast<double>(slab);
    {
      auto span = spans.open("sim::Simulator");
      layers["sim.kernel_ns_per_event"] = kernel_ns_per_event(peak_pending, config_.seed);
    }
    {
      auto span = spans.open("net::Switch::route_port");
      layers["net.route_ns"] = route_ns();
    }
    return overhead;
  }

 private:
  // The experiment's placement: the receiver is slot 0 of the last leaf and
  // senders round-robin over every other host.
  static int receiver_host(fabric::FatTree& tree) {
    return tree.num_hosts() - tree.config().hosts_per_leaf;
  }
  static int sender_host(fabric::FatTree& tree, int flow) {
    const int receiver = receiver_host(tree);
    const int slot = flow % (tree.num_hosts() - 1);
    return slot < receiver ? slot : slot + 1;
  }

  // ECMP lookups of the largest degree's flow keys at every switch, after
  // reserve_flows, in ns per lookup.
  double route_ns() const {
    const std::size_t last = config_.degrees.size() - 1;
    const int degree = config_.degrees[last];
    sim::Simulator sim;
    fabric::FatTreeConfig fcfg = config_.fabric;
    fcfg.ecmp_seed = sim::derive_task_seed(config_.seed, last);
    fabric::FatTree tree{sim, fcfg};
    const std::vector<net::Switch*> switches = tree.switches();
    for (net::Switch* sw : switches) sw->reserve_flows(static_cast<std::size_t>(degree));
    const net::NodeId dst = tree.host(receiver_host(tree)).id();
    std::vector<net::NodeId> src(static_cast<std::size_t>(degree));
    for (int f = 0; f < degree; ++f) {
      src[static_cast<std::size_t>(f)] = tree.host(sender_host(tree, f)).id();
    }
    std::uint64_t lookups = 0;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    do {
      for (const net::Switch* sw : switches) {
        for (int f = 0; f < degree; ++f) {
          sink += sw->route_port(src[static_cast<std::size_t>(f)], dst,
                                 static_cast<net::FlowId>(f) + 1)
                      .value_or(0);
        }
        lookups += static_cast<std::uint64_t>(degree);
      }
    } while (seconds_since(t0) < 0.2);
    const double ns = seconds_since(t0) * 1e9 / static_cast<double>(lookups);
    if (sink == 0) throw std::runtime_error{"route_port resolved no ports"};
    return ns;
  }

  core::ScalingConfig config_;
};

// The Section 3 measurement pipeline on the storage service.
class FleetStorage final : public Workload {
 public:
  explicit FleetStorage(std::uint64_t seed) {
    config_.profile = workload::service_by_name("storage");
    config_.num_hosts = 2;
    config_.num_snapshots = 2;
    config_.trace_duration = sim::Time::seconds(1);
    config_.contention_mode = core::FleetConfig::ContentionMode::kModeled;
    config_.tcp = dctcp_200ms();
    config_.jobs = 2;
    config_.base_seed = seed;
    harden(config_.sweep, config_.audit);
  }

  // A cell's rack: the dumbbell FleetExperiment builds, with one connection
  // per sender the service profile can use.
  SetupSample setup(Spans& spans) const override {
    SetupSample s;
    const int cells = config_.num_hosts * config_.num_snapshots;
    double flows = 0;
    double flow_s = 0;
    for (int c = 0; c < cells; ++c) {
      sim::Simulator sim;
      net::DumbbellConfig topo;
      topo.num_senders = config_.profile.max_flows;
      topo.host_link = config_.nic_rate;
      topo.switch_queue.capacity_packets = config_.queue_capacity_packets;
      topo.switch_queue.ecn_threshold_packets = std::max<std::int64_t>(
          static_cast<std::int64_t>(config_.ecn_threshold_fraction *
                                    static_cast<double>(config_.queue_capacity_packets)),
          1);
      topo.shared_buffer = net::SharedBufferPool::Config{config_.shared_pool_bytes, 2.0};
      const auto t0 = Clock::now();
      std::unique_ptr<net::Dumbbell> dumbbell;
      {
        auto span = spans.open("net::Dumbbell");
        dumbbell = std::make_unique<net::Dumbbell>(sim, topo);
      }
      s.topology_s += seconds_since(t0);
      const auto t1 = Clock::now();
      std::vector<std::unique_ptr<tcp::TcpConnection>> connections;
      {
        auto span = spans.open("tcp::TcpConnection");
        for (int i = 0; i < topo.num_senders; ++i) {
          connections.push_back(std::make_unique<tcp::TcpConnection>(
              sim, dumbbell->sender(i), dumbbell->receiver(0),
              static_cast<net::FlowId>(i) + 1, config_.tcp));
        }
      }
      flow_s += seconds_since(t1);
      s.total_s += seconds_since(t0);
      flows += topo.num_senders;
    }
    s.topology_s /= cells;
    s.flow_us = flow_s * 1e6 / flows;
    return s;
  }

  Iteration run(Spans& spans) override {
    core::FleetExperiment experiment{config_};
    return run_all(spans, experiment).iteration;
  }

  Overhead observe(Spans& spans, const Iteration& reference, Layers& layers,
                   std::vector<std::string>& failures,
                   std::map<std::string, std::unique_ptr<obs::Hub>>& hubs) override {
    auto& hub = hubs["cell0"];
    hub = std::make_unique<obs::Hub>();
    core::FleetConfig observed_config = config_;
    observed_config.hub = hub.get();
    core::FleetExperiment observed{observed_config};
    observed.set_keep_bins(true);
    const core::FleetExperiment plain{config_};
    FleetRun run;
    Overhead overhead;
    bracket(
        overhead, [&] { (void)run_all(spans, plain); },
        [&] { run = run_all(spans, observed); });
    const Iteration& it = run.iteration;
    if (it.rows != reference.rows) {
      failures.push_back("observed fleet cells differ from the unobserved sweep");
    }
    if (static_cast<std::uint64_t>(hub_counter(*hub, "sim.events.processed")) !=
        run.cells[0].events_processed) {
      failures.push_back("hub sim.events.processed != cell 0 events");
    }

    const analysis::BurstDetector detector{config_.detector};
    const std::int64_t bytes_per_bin =
        config_.nic_rate.bytes_in(sim::Time::milliseconds(1));  // 1 ms Millisampler bins
    double detect_s = 0.0;
    for (const core::HostTraceResult& r : run.cells) {
      layers["net.queue_drops"] += static_cast<double>(r.queue_drops);
      layers["workload.generated_bursts"] += static_cast<double>(r.generated_bursts);
      layers["telemetry.bins"] += static_cast<double>(r.bins.size());
      layers["analysis.bursts"] += static_cast<double>(r.summary.bursts.size());
      std::vector<analysis::Burst> bursts;
      {
        auto span = spans.open("analysis::BurstDetector::detect");
        const auto t0 = Clock::now();
        bursts = detector.detect(r.bins, bytes_per_bin, r.queue_watermarks);
        detect_s += seconds_since(t0);
      }
      if (!same_bursts(bursts, r.summary.bursts)) {
        failures.push_back("re-detected bursts differ from the summary of cell (host " +
                           std::to_string(r.host) + ", snapshot " +
                           std::to_string(r.snapshot) + ")");
      }
    }
    layers["analysis.detect_ms"] = detect_s * 1e3;
    layers["sim.peak_events_pending"] = static_cast<double>(it.sweep.peak_events_pending);
    layers["sim.slab_high_water"] = static_cast<double>(it.sweep.slab_high_water);
    for (const sim::EventCategory c :
         {sim::EventCategory::kNet, sim::EventCategory::kTcp, sim::EventCategory::kWorkload,
          sim::EventCategory::kTelemetry}) {
      layers[std::string{"sim.events."} + sim::to_string(c)] =
          static_cast<double>(it.sweep.events_by_category[static_cast<std::size_t>(c)]);
    }

    // The event-loop self-profiler costs two clock reads per event, so it
    // gets its own pass, outside the overhead comparison.
    core::FleetConfig profiled_config = config_;
    profiled_config.profile_event_loop = true;
    const FleetRun profiled = run_all(spans, core::FleetExperiment{profiled_config});
    if (profiled.iteration.rows != reference.rows) {
      failures.push_back("profiled fleet cells differ from the unprofiled sweep");
    }
    for (const sim::EventCategory c :
         {sim::EventCategory::kNet, sim::EventCategory::kTcp, sim::EventCategory::kWorkload,
          sim::EventCategory::kTelemetry}) {
      double ns = 0.0;
      for (const core::HostTraceResult& r : profiled.cells) {
        ns += r.wall_ns_by_category[static_cast<std::size_t>(c)];
      }
      layers[std::string{"sim.wall_ms."} + sim::to_string(c)] = ns / 1e6;
    }

    {
      auto span = spans.open("sim::Simulator");
      layers["sim.kernel_ns_per_event"] =
          kernel_ns_per_event(it.sweep.peak_events_pending, config_.base_seed);
    }
    return overhead;
  }

 private:
  struct FleetRun {
    Iteration iteration;
    std::vector<core::HostTraceResult> cells;
  };

  static FleetRun run_all(Spans& spans, const core::FleetExperiment& experiment) {
    FleetRun run;
    Iteration& it = run.iteration;
    {
      auto span = spans.open("core::FleetExperiment::run_all");
      const auto t0 = Clock::now();
      run.cells = experiment.run_all();
      it.wall_s = seconds_since(t0);
    }
    it.sweep = experiment.last_sweep();
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
      const core::HostTraceResult& r = run.cells[i];
      it.rows.push_back(cell_row(r));
      it.point_events += r.events_processed;
      it.failures.push_back(point_failure(it.sweep, i, r.audit_violations,
                                          r.summary.bursts.empty() ? "no bursts detected" : ""));
    }
    return run;
  }

  // The cell's deterministic summary: everything the fleet figures read.
  static std::string cell_row(const core::HostTraceResult& r) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%d,%d,%d,%.6f,%lld,%lld,%llu,%zu", r.host, r.snapshot,
                  r.alt_regime ? 1 : 0, r.avg_utilization,
                  static_cast<long long>(r.queue_drops),
                  static_cast<long long>(r.generated_bursts),
                  static_cast<unsigned long long>(r.events_processed),
                  r.summary.bursts.size());
    std::string row = buf;
    for (const analysis::Burst& b : r.summary.bursts) {
      std::snprintf(buf, sizeof(buf), ";%zu:%zu:%lld:%lld:%lld:%d:%lld", b.first_bin,
                    b.num_bins, static_cast<long long>(b.bytes),
                    static_cast<long long>(b.marked_bytes),
                    static_cast<long long>(b.retx_bytes), b.max_active_flows,
                    static_cast<long long>(b.peak_queue_packets));
      row += buf;
    }
    return row;
  }

  static bool same_bursts(const std::vector<analysis::Burst>& a,
                          const std::vector<analysis::Burst>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const analysis::Burst& x, const analysis::Burst& y) {
                        return x.first_bin == y.first_bin && x.num_bins == y.num_bins &&
                               x.bytes == y.bytes && x.marked_bytes == y.marked_bytes &&
                               x.retx_bytes == y.retx_bytes &&
                               x.max_active_flows == y.max_active_flows &&
                               x.peak_queue_packets == y.peak_queue_packets;
                      });
  }

  core::FleetConfig config_;
};

// The collateral-damage grid: one victim flow beside a degree-128 incast
// under each of the four queue modes.
class CollateralLossless final : public Workload {
 public:
  explicit CollateralLossless(std::uint64_t seed) {
    config_.degrees = {128};
    config_.num_bursts = 4;
    config_.tcp = dctcp_200ms();
    config_.jobs = 1;
    config_.seed = seed;
    harden(config_.sweep, config_.audit);
  }

  // Each point's dumbbell (degree + 1 senders, 2 receivers, the queue the
  // mode runs) and one connection per sender, victim included.
  SetupSample setup(Spans& spans) const override {
    SetupSample s;
    const int degree = config_.degrees.front();
    double flow_s = 0;
    for (const core::QueueMode mode : config_.modes) {
      net::DumbbellConfig topo = config_.topology;
      topo.num_senders = degree + 1;
      topo.num_receivers = 2;
      topo.switch_queue.ecn_threshold_packets = config_.ecn_threshold_packets;
      topo.switch_queue.capacity_packets = config_.queue_capacity_packets;
      if (mode == core::QueueMode::kPfc) {
        topo.switch_queue.capacity_packets = config_.pfc_queue_capacity_packets;
        topo.pfc = config_.pfc;
      } else if (mode == core::QueueMode::kTrim) {
        topo.switch_queue.capacity_packets = config_.trim_queue_capacity_packets;
        topo.switch_queue.discipline = net::QueueDiscipline::kTrimming;
      }
      sim::Simulator sim;
      const auto t0 = Clock::now();
      std::unique_ptr<net::Dumbbell> dumbbell;
      {
        auto span = spans.open("net::Dumbbell");
        dumbbell = std::make_unique<net::Dumbbell>(sim, topo);
      }
      s.topology_s += seconds_since(t0);
      const auto t1 = Clock::now();
      std::vector<std::unique_ptr<tcp::TcpConnection>> connections;
      {
        auto span = spans.open("tcp::TcpConnection");
        for (int i = 0; i <= degree; ++i) {
          connections.push_back(std::make_unique<tcp::TcpConnection>(
              sim, dumbbell->sender(i), dumbbell->receiver(i == degree ? 1 : 0),
              static_cast<net::FlowId>(i) + 1, config_.tcp));
        }
      }
      flow_s += seconds_since(t1);
      s.total_s += seconds_since(t0);
    }
    const double points = static_cast<double>(config_.modes.size());
    s.topology_s /= points;
    s.flow_us = flow_s * 1e6 / (points * (degree + 1));
    return s;
  }

  Iteration run(Spans& spans) override {
    Iteration it;
    core::CollateralReport report;
    {
      auto span = spans.open("core::run_collateral_experiment");
      const auto t0 = Clock::now();
      report = core::run_collateral_experiment(config_);
      it.wall_s = seconds_since(t0);
    }
    {
      auto span = spans.open("core::collateral_csv");
      it.rows = csv_rows(core::collateral_csv(report));
    }
    for (std::size_t i = 0; i < report.points.size(); ++i) {
      const core::CollateralPoint& p = report.points[i];
      it.point_events += p.events_processed;
      it.failures.push_back(point_failure(
          report.sweep, i, p.audit_violations,
          p.victim_delivered_bytes > 0 ? "" : "victim delivered nothing"));
    }
    it.sweep = report.sweep;
    return it;
  }

  // Every mode runs once more through run_collateral_point with its own hub
  // (the sweep observes only point 0), so the PFC point's net.pfc.* counters
  // are collected too.
  Overhead observe(Spans& spans, const Iteration& reference, Layers& layers,
                   std::vector<std::string>& failures,
                   std::map<std::string, std::unique_ptr<obs::Hub>>& hubs) override {
    const int degree = config_.degrees.front();
    core::CollateralReport report;
    Overhead overhead;
    for (std::size_t i = 0; i < config_.modes.size(); ++i) {
      const core::QueueMode mode = config_.modes[i];
      const std::uint64_t seed = sim::derive_task_seed(config_.seed, i);
      auto& hub = hubs[core::to_string(mode)];
      hub = std::make_unique<obs::Hub>();
      const double point_s = bracket(
          overhead,
          [&] {
            auto span = spans.open("core::run_collateral_point");
            (void)core::run_collateral_point(config_, mode, degree, seed, nullptr);
          },
          [&] {
            auto span = spans.open("core::run_collateral_point");
            report.points.push_back(
                core::run_collateral_point(config_, mode, degree, seed, hub.get()));
          });
      layers[mode == core::QueueMode::kCredit
                 ? std::string{"rdt.credit.wall_s"}
                 : std::string{"net."} + core::to_string(mode) + ".wall_s"] = point_s;
    }
    std::vector<std::string> rows;
    {
      auto span = spans.open("core::collateral_csv");
      rows = csv_rows(core::collateral_csv(report));
    }
    if (rows != reference.rows) {
      failures.push_back("observed collateral points differ from the unobserved sweep");
    }

    std::uint64_t peak_pending = 0;
    std::uint64_t slab = 0;
    for (const core::CollateralPoint& p : report.points) {
      const obs::Hub& hub = *hubs[core::to_string(p.mode)];
      if (static_cast<std::uint64_t>(hub_counter(hub, "sim.events.processed")) !=
          p.events_processed) {
        failures.push_back(std::string{"hub sim.events.processed != point events in mode "} +
                           core::to_string(p.mode));
      }
      if (p.mode == core::QueueMode::kPfc &&
          hub_counter(hub, "net.pfc.tor_r.pause_frames") +
                  hub_counter(hub, "net.pfc.tor_s.pause_frames") !=
              p.pfc_pause_frames) {
        failures.push_back("hub net.pfc.*.pause_frames != the PFC point's pause frames");
      }
      peak_pending = std::max<std::uint64_t>(
          peak_pending, static_cast<std::uint64_t>(hub_counter(hub, "sim.events.peak_pending")));
      slab = std::max<std::uint64_t>(
          slab, static_cast<std::uint64_t>(hub_counter(hub, "sim.events.slab_high_water")));
      layers["net.queue_drops"] += static_cast<double>(p.queue_drops);
      layers["net.pfc_pauses"] += static_cast<double>(p.pfc_pause_frames);
      layers["net.trims"] += static_cast<double>(p.trimmed_packets);
      layers["tcp.timeouts"] += static_cast<double>(p.incast_timeouts + p.victim_timeouts);
    }
    layers["sim.peak_events_pending"] = static_cast<double>(peak_pending);
    layers["sim.slab_high_water"] = static_cast<double>(slab);
    {
      auto span = spans.open("sim::Simulator");
      layers["sim.kernel_ns_per_event"] = kernel_ns_per_event(peak_pending, config_.seed);
    }
    return overhead;
  }

 private:
  core::CollateralConfig config_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "scaling_fanin") return std::make_unique<ScalingFanin>(seed);
  if (name == "fleet_storage") return std::make_unique<FleetStorage>(seed);
  if (name == "collateral_lossless") return std::make_unique<CollateralLossless>(seed);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir{"."};
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Already-encoded JSON values, comma-separated.
std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out;
}

// Median over the timed iterations of a per-iteration figure.
double iteration_median(const std::vector<Iteration>& its,
                        const std::function<double(const Iteration&)>& f) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(f(it));
  return median(v);
}

struct Measurement {
  std::vector<SetupSample> setups;
  std::vector<Iteration> iterations;
  Layers layers;                            // --trace 1 only
  std::vector<std::string> check_failures;  // checks beyond the per-point ones
  std::map<std::string, std::unique_ptr<obs::Hub>> hubs;
};

// The timed calls with set-up rounds between them, then (traced runs) the
// observed pass and the per-layer figures derived from the calls' RunStats.
Measurement measure(Workload& workload, const Args& args, Spans& spans) {
  Measurement m;
  auto root = spans.open("perfbench " + args.workload);
  const auto setup_round = [&] {
    auto span = spans.open("setup");
    const auto t0 = Clock::now();
    for (int reps = 0; reps < kSetupRoundReps || seconds_since(t0) < kSetupRoundSeconds;
         ++reps) {
      m.setups.push_back(workload.setup(spans));
    }
  };
  const auto t0 = Clock::now();
  setup_round();
  do {
    m.iterations.push_back(workload.run(spans));
    setup_round();
  } while (seconds_since(t0) < args.seconds);
  for (const Iteration& it : m.iterations) {
    if (it.point_events != it.sweep.total_events) {
      m.check_failures.push_back("sum of the points' events != RunStats::total_events");
    }
  }
  if (!args.trace) return m;

  {
    auto span = spans.open("observed");
    const Overhead overhead =
        workload.observe(spans, m.iterations.front(), m.layers, m.check_failures, m.hubs);
    m.layers["trace.overhead_pct"] = (overhead.observed_s / overhead.plain_s - 1.0) * 100.0;
  }
  m.layers["sim.events"] = static_cast<double>(m.iterations.front().point_events);
  m.layers["sim.ns_per_event"] = iteration_median(m.iterations, [](const Iteration& it) {
    double task_ms = 0.0;
    for (const auto& t : it.sweep.tasks) task_ms += t.wall_ms;
    return task_ms * 1e6 / static_cast<double>(it.sweep.total_events);
  });
  m.layers["sim.sweep.efficiency"] = iteration_median(m.iterations, [](const Iteration& it) {
    double task_ms = 0.0;
    for (const auto& t : it.sweep.tasks) task_ms += t.wall_ms;
    return task_ms / (it.sweep.jobs * it.sweep.wall_ms);
  });
  std::vector<double> topo;
  std::vector<double> flow;
  for (const SetupSample& s : m.setups) {
    topo.push_back(s.topology_s);
    flow.push_back(s.flow_us);
  }
  if (args.workload == "scaling_fanin") m.layers["fabric.build_ms"] = median(topo) * 1e3;
  m.layers["tcp.setup_us_per_flow"] = median(flow);
  return m;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Spans spans{args.trace};
  const Measurement m = measure(*workload, args, spans);
  const auto& [setups, iterations, layers, check_failures, hubs] = m;

  std::string prefix = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  if (args.trace) {
    std::ofstream trace{prefix + ".trace.json"};
    spans.write_chrome_trace(trace);
    std::ofstream metrics{prefix + ".metrics.json"};
    std::vector<std::string> snapshots;
    for (const auto& [name, hub] : hubs) {
      snapshots.push_back(json_string(name) + ": " + hub->final_metrics().to_json());
    }
    metrics << "{";
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      metrics << (i > 0 ? ",\n" : "\n") << snapshots[i];
    }
    metrics << "\n}\n";
    if (!trace || !metrics) {
      std::fprintf(stderr, "error: cannot write %s.*.json\n", prefix.c_str());
      return 1;
    }
  }

  // Raw samples; run.py computes the medians and applies the fingerprints.
  std::vector<std::string> walls;
  std::vector<std::string> setup_s;
  std::vector<std::string> its;
  for (const Iteration& it : iterations) {
    walls.push_back(json_number(it.wall_s));
    std::vector<std::string> points;
    std::vector<std::string> failures;
    for (const std::string& row : it.rows) points.push_back(json_string(hex64(core::fnv1a(row))));
    for (const std::string& f : it.failures) failures.push_back(json_string(f));
    its.push_back("{\"points\":[" + join(points) + "],\"failures\":[" + join(failures) + "]}");
  }
  for (const SetupSample& s : setups) setup_s.push_back(json_number(s.total_s));
  std::vector<std::string> checks;
  for (const std::string& f : check_failures) checks.push_back(json_string(f));

  std::string out = "{\"workload\":" + json_string(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"context\":{\"compiler\":" + json_string(PERFBENCH_COMPILER);
  out += ",\"compiler_version\":" + json_string(__VERSION__);
  out += ",\"flags\":" + json_string(PERFBENCH_CXX_FLAGS);
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) + "}";
  out += ",\"wall_s\":[" + join(walls) + "]";
  out += ",\"setup_s\":[" + join(setup_s) + "]";
  out += ",\"peak_rss_mib\":" + json_number(peak_rss_mib());
  out += ",\"iterations\":[" + join(its) + "]";
  out += ",\"check_failures\":[" + join(checks) + "]";
  if (args.trace) {
    std::vector<std::string> entries;
    for (const auto& [name, value] : layers) {
      entries.push_back(json_string(name) + ":" + json_number(value));
    }
    out += ",\"layers\":{" + join(entries) + "}";
  }
  std::cout << out << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: incast_perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
