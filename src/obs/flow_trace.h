// FlowTracer: deterministic, sampled flow-lifecycle latency attribution —
// the "tail autopsy" engine.
//
// For hash-sampled flows (seeded, jobs-invariant) it answers the question
// vantage telemetry cannot: *where did this slow flow's time go?* Two
// measurement levels combine into one exact decomposition:
//
//   Level 1 — sender timeline. Every TcpSender event on a sampled flow
//   closes the open wait interval and reopens one at the same timestamp, so
//   intervals partition each active period gap-free. Each interval is
//   classified retrospectively by (why the sender was blocked, what event
//   ended the wait): cwnd-limited, RTO wait, fast recovery, trim->NACK
//   recovery, or final-window drain.
//
//   Level 2 — hop residency. Ports stamp sampled data packets at enqueue
//   and read the stamp at dequeue, accumulating per-tier queue wait, PFC
//   pause overlap, serialization and propagation. The drain bucket — the
//   only Level-1 class that is pure network time — is split across these
//   components proportionally (integer floor arithmetic; the remainder and
//   any unknown-tier share land in `other`).
//
// The invariant the whole design serves: for every completed sampled flow,
// FlowBreakdown::component_sum() == fct_ns *exactly* (integer nanoseconds),
// which sim::Auditor::check_flow_breakdown enforces. Because intervals are
// closed/opened at identical timestamps there is no rounding anywhere in
// Level 1, and the Level-2 split distributes its remainder explicitly.
//
// Attachment mirrors obs::Hub and sim::Auditor: construct the tracer,
// sim.set_flow_tracer(&tracer) *before* building topology and senders (they
// cache the pointer at construction), run, then finalize(). With no tracer
// attached every hook is a cached-nullptr branch — zero overhead, gated by
// BM_FlowTraceOverhead in CI. Results are independent of whether a Hub is
// present: span emission is a side channel, so sweep points without the hub
// produce byte-identical breakdowns at any --jobs value.
#ifndef INCAST_OBS_FLOW_TRACE_H_
#define INCAST_OBS_FLOW_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/hub.h"

namespace incast::obs {

// Which tier of the topology a port belongs to, for per-tier queueing
// attribution. Builders tag ports once at construction (Port::set_trace_tier);
// untagged ports fold into `other` via kUnknown.
enum class HopTier : std::uint8_t { kUnknown = 0, kHost, kTor, kAgg, kSpine };
inline constexpr std::size_t kNumHopTiers = 5;

// One completed flow's exact FCT decomposition. All fields are integer
// nanoseconds and sum to fct_ns (see component_sum).
struct FlowBreakdown {
  std::uint64_t flow{0};
  std::int64_t fct_ns{0};  // sum of the flow's active periods

  // Network components (the drain bucket, split by hop residency).
  std::int64_t serialization_ns{0};
  std::int64_t propagation_ns{0};
  std::int64_t q_host_ns{0};
  std::int64_t q_tor_ns{0};
  std::int64_t q_agg_ns{0};
  std::int64_t q_spine_ns{0};
  std::int64_t pfc_pause_ns{0};

  // Sender stall classes (exact interval sums).
  std::int64_t cwnd_limited_ns{0};
  std::int64_t rto_wait_ns{0};
  std::int64_t fast_recovery_ns{0};
  std::int64_t nack_recovery_ns{0};

  // Split remainder, unknown-tier queueing, and anything unattributed.
  std::int64_t other_ns{0};

  [[nodiscard]] std::int64_t component_sum() const noexcept {
    return serialization_ns + propagation_ns + q_host_ns + q_tor_ns + q_agg_ns +
           q_spine_ns + pfc_pause_ns + cwnd_limited_ns + rto_wait_ns +
           fast_recovery_ns + nack_recovery_ns + other_ns;
  }
};

class FlowTracer {
 public:
  struct Config {
    // Seed for the sampling hash. Use the experiment's *base* seed (not the
    // per-point derived seed) so the same flow ids are sampled in every
    // sweep point — breakdowns stay comparable across a mode/degree grid.
    std::uint64_t seed{1};
    // 1-in-N flow sampling; 1 traces every flow. Sampling is a pure hash of
    // (flow id, seed) — independent of execution order and thread count.
    std::uint64_t sample_every{1};
  };

  // Why the sender was blocked when an interval opened.
  enum class BlockReason : std::uint8_t {
    kCwndLimited = 0,  // more data queued, window/pacing would not admit it
    kDrain,            // everything sent, waiting for the final ACKs
    kFastRecovery,     // inside NewReno/SACK fast recovery
  };

  // What event closed the interval.
  enum class UnblockCause : std::uint8_t {
    kAck = 0,  // (dup)ACK arrived
    kNack,     // trim NACK arrived
    kRto,      // retransmission timeout fired
    kTimer,    // pacing / tail-loss-probe timer fired
    kApp,      // application pushed more data
  };

  // `hub` may be nullptr: breakdowns are computed either way; a live hub
  // additionally gets per-flow waterfall async spans ("flow.active" plus a
  // "stall.*" child per wait interval, tid kFlowTidBase + flow, id = flow).
  explicit FlowTracer(const Config& config, Hub* hub = nullptr);

  FlowTracer(const FlowTracer&) = delete;
  FlowTracer& operator=(const FlowTracer&) = delete;

  // Jobs-invariant sampling decision. Senders call this once at
  // construction and cache nullptr when not sampled.
  [[nodiscard]] bool sampled(std::uint64_t flow) const noexcept;

  // --- Sender timeline (TcpSender, sampled flows only) ---

  // An active period opened (application handed the sender data while it
  // was idle). No-op if a period is already open.
  void on_period_start(std::uint64_t flow, std::int64_t now_ns);
  // An event woke the sender: closes the open interval and classifies it
  // by (stored reason, cause). No-op when no period is open.
  void on_unblocked(std::uint64_t flow, std::int64_t now_ns, UnblockCause cause);
  // The sender went back to waiting; records why. Must be called at the
  // same sim time as the preceding on_unblocked (event handlers are
  // instantaneous), which is what keeps the partition gap-free.
  void on_blocked(std::uint64_t flow, std::int64_t now_ns, BlockReason reason);
  // Everything acked: closes the period and accumulates it into fct_ns.
  void on_flow_complete(std::uint64_t flow, std::int64_t now_ns);

  // --- Hop residency (net::Port, sampled packets only) ---
  void on_hop(std::uint64_t flow, HopTier tier, std::int64_t queue_ns,
              std::int64_t pause_ns, std::int64_t serialization_ns,
              std::int64_t propagation_ns);

  // Closes waterfall spans still open (flows cut by max_sim_time), performs
  // the drain split, and returns one breakdown per *completed* sampled
  // flow, sorted by flow id. Call once, at end of run.
  [[nodiscard]] std::vector<FlowBreakdown> finalize(std::int64_t now_ns);

  // Sampled flows that were still mid-period at finalize (no FCT; excluded
  // from the report).
  [[nodiscard]] std::size_t incomplete_flows() const noexcept { return incomplete_; }

 private:
  struct FlowState {
    bool period_open{false};
    bool completed{false};
    std::int64_t period_start{0};
    std::int64_t blocked_since{0};
    BlockReason reason{BlockReason::kDrain};
    const char* stall_open{nullptr};  // waterfall span currently open

    std::int64_t active_ns{0};
    // Level-1 buckets (exact).
    std::int64_t cwnd_ns{0};
    std::int64_t rto_ns{0};
    std::int64_t fastrec_ns{0};
    std::int64_t nack_ns{0};
    std::int64_t drain_ns{0};
    // Level-2 hop accumulators (per-packet residency, overlapping in time —
    // used only as split weights, never summed into the FCT directly).
    std::int64_t hop_serialization_ns{0};
    std::int64_t hop_propagation_ns{0};
    std::int64_t hop_pause_ns{0};
    std::int64_t hop_queue_ns[kNumHopTiers]{};
  };

  void close_stall_span(FlowState& st, std::uint64_t flow, std::int64_t now_ns);

  Config config_;
  Hub* hub_{nullptr};
  std::unordered_map<std::uint64_t, FlowState> states_;
  std::size_t incomplete_{0};
};

// One percentile row of the tail-attribution report: the breakdown of the
// flow at the nearest-rank percentile of the FCT distribution.
struct TailAttributionRow {
  const char* pctl{""};  // "p50" / "p99" / "p999" (static strings)
  int flows{0};          // completed sampled flows the rank was taken over
  FlowBreakdown flow;
};

// p50/p99/p999 nearest-rank rows (ties broken by flow id). Empty input
// yields no rows.
[[nodiscard]] std::vector<TailAttributionRow> tail_attribution(
    std::vector<FlowBreakdown> flows);

// fct_breakdown.csv: fixed column order and integer-ns formatting — the
// artifact the determinism suite byte-compares across --jobs values.
[[nodiscard]] std::string fct_breakdown_csv_header();
void append_fct_breakdown_csv(std::string& out, const std::string& mode, int degree,
                              const std::vector<TailAttributionRow>& rows);

}  // namespace incast::obs

#endif  // INCAST_OBS_FLOW_TRACE_H_
