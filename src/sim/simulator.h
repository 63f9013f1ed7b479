// Simulator: the discrete-event loop.
//
// Single-threaded and deterministic: events at equal timestamps fire in
// scheduling order. All simulation components hold a Simulator& and schedule
// work through it; nothing in the simulation may consult wall-clock time.
//
// The hot path is allocation-free: callbacks are sim::InlineFunction (fixed
// inline capture budget, compile error on oversize), the pending set is a
// slab-backed 4-ary heap (sim/event_queue.h), and steady-state dispatch
// performs no heap allocations and no hash-table operations. Callers that
// know their peak event population can reserve_events() up front so the
// heap/slab never grow mid-run.
//
// Self-profiling: every event carries an EventCategory and the loop keeps an
// always-on per-category dispatch counter (a single array increment — see
// BM_TracerOverhead for the gate proving it is free). set_profiling(true)
// additionally buckets wall time per category; that one costs two clock
// reads per event, so it is opt-in.
//
// Observability: the loop optionally carries a borrowed obs::Hub pointer so
// components constructed against this Simulator can discover the hub without
// threading it through every constructor. The kernel itself never
// dereferences the hub — sim stays dependency-free of obs.
//
// Auditing: the loop likewise carries a borrowed Auditor pointer (see
// sim/auditor.h). With one attached, every dispatch feeds the monotonic-time
// check, the livelock watchdog, and the execution budgets; detached (the
// default) costs a single predictable branch, and -DINCAST_AUDIT=OFF
// removes even that.
#ifndef INCAST_SIM_SIMULATOR_H_
#define INCAST_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>

#include "sim/auditor.h"
#include "sim/event_category.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace incast::obs {
class FlowTracer;
class Hub;
}  // namespace incast::obs

namespace incast::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time. Advances only inside run()/run_until().
  [[nodiscard]] Time now() const noexcept { return now_; }

  // Capacity hint: pre-sizes the event heap and callback slab for `n`
  // concurrently pending events (typically hosts x flows x a small timer
  // factor), so steady state never grows either structure.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  // Timestamp of the next pending event; Time::infinity() when idle.
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }

  // Schedules `cb` at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, Callback cb,
                      EventCategory category = EventCategory::kGeneric);

  // Schedules `cb` after `delay` (must be >= 0).
  EventId schedule_in(Time delay, Callback cb,
                      EventCategory category = EventCategory::kGeneric) {
    return schedule_at(now_ + delay, std::move(cb), category);
  }

  // Cancels a pending event; no-op if it already fired.
  void cancel(EventId id) { queue_.cancel(id); }

  // Runs until the event queue drains or stop() is called.
  void run();

  // Runs events with timestamp <= deadline, then sets now() = deadline.
  // Events scheduled beyond the deadline stay queued, so simulation can be
  // resumed with further run_until() calls.
  void run_until(Time deadline);

  // Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }
  [[nodiscard]] std::size_t events_pending() const noexcept { return queue_.size(); }

  // Peak pending-event depth and callback-slab high-water mark since
  // construction — the kernel's memory footprint, surfaced through
  // SweepRunner::RunStats and the sim.events.* metrics.
  [[nodiscard]] std::size_t peak_events_pending() const noexcept {
    return queue_.peak_pending();
  }
  [[nodiscard]] std::size_t slab_high_water() const noexcept {
    return queue_.slab_high_water();
  }

  // Dispatch counts bucketed by EventCategory (always maintained).
  [[nodiscard]] const EventCategoryCounts& events_by_category() const noexcept {
    return events_by_category_;
  }

  // Enables wall-time bucketing per category (steady_clock around each
  // callback). Off by default; dispatch counts are kept regardless.
  void set_profiling(bool enabled) noexcept { profiling_ = enabled; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }

  // Wall nanoseconds spent inside callbacks per category; all zero unless
  // set_profiling(true) was active while events ran. Wall time never feeds
  // back into the simulation — determinism is unaffected.
  [[nodiscard]] const std::array<double, kNumEventCategories>& wall_ns_by_category()
      const noexcept {
    return wall_ns_by_category_;
  }

  // Borrowed observability hub; nullptr (the default) means "not observed"
  // and every instrumented component takes its zero-cost fast path.
  void set_hub(obs::Hub* hub) noexcept { hub_ = hub; }
  [[nodiscard]] obs::Hub* hub() const noexcept { return hub_; }

  // Borrowed invariant auditor; nullptr (the default) means "unaudited".
  // Components reach it through INCAST_AUDITOR(sim), which compiles to a
  // constant nullptr under -DINCAST_AUDIT=OFF.
  void set_auditor(Auditor* auditor) noexcept { auditor_ = auditor; }
  [[nodiscard]] Auditor* auditor() const noexcept { return auditor_; }

  // Borrowed flow-lifecycle tracer (obs/flow_trace.h); nullptr (the
  // default) means "no latency attribution". Like the hub, attach it
  // *before* building topology/senders — they cache the pointer at
  // construction. Unlike the hub, it is not compiled out under
  // -DINCAST_OBS=OFF: the tail autopsy is a result, not an observer.
  void set_flow_tracer(obs::FlowTracer* tracer) noexcept { flow_tracer_ = tracer; }
  [[nodiscard]] obs::FlowTracer* flow_tracer() const noexcept { return flow_tracer_; }

 private:
  void dispatch_one();

  EventQueue queue_;
  Time now_{Time::zero()};
  bool stopped_{false};
  bool profiling_{false};
  std::uint64_t events_processed_{0};
  EventCategoryCounts events_by_category_{};
  std::array<double, kNumEventCategories> wall_ns_by_category_{};
  obs::Hub* hub_{nullptr};
  Auditor* auditor_{nullptr};
  obs::FlowTracer* flow_tracer_{nullptr};
};

}  // namespace incast::sim

#endif  // INCAST_SIM_SIMULATOR_H_
