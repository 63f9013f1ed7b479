// The cross-cutting knobs of an experiment run, declared once.
//
// Every experiment config inherits the option structs it takes instead of
// re-declaring their fields, so `cfg.hub`, `cfg.audit`, `cfg.jobs`,
// `cfg.sweep` ... keep their names on every config, the CLI parses straight
// into them, and ExperimentObserver and run_sweep read them without a
// field-by-field copy:
//
//   * RunOptions        — observability hub and run hardening (every run);
//   * TracedRunOptions  — RunOptions plus the tail-autopsy flow tracer;
//   * SweepOptions<R>   — worker threads, fault-isolation policy and the
//                         checkpoint/resume hooks of a multi-point sweep.
//
// None of them is part of a sweep's journal fingerprint except the flow
// tracer's pair (canonical_config in core/task_journal.h decides).
#ifndef INCAST_CORE_RUN_OPTIONS_H_
#define INCAST_CORE_RUN_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/auditor.h"
#include "sim/sweep.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::core {

struct RunOptions {
  // Borrowed observability hub. When set, the run attaches it to the
  // simulator before any component is built (senders and queues register
  // metrics and trace into it) and snapshots the metrics registry at end of
  // run. A sweep attaches it to one fixed point only (worker threads must
  // not share it), so trace/metrics output is byte-identical at any jobs
  // value. nullptr = unobserved run, byte-identical to the pre-observability
  // behavior.
  obs::Hub* hub{nullptr};

  // Run hardening (see sim/auditor.h): kRelaxed (default) counts invariant
  // violations into the result without perturbing the run; kStrict aborts
  // on the first violation; kOff attaches no auditor. `audit` carries the
  // bounds, execution budgets and cancellation flag; its strict field is
  // overridden from audit_mode. A no-op under -DINCAST_AUDIT=OFF.
  sim::AuditMode audit_mode{sim::AuditMode::kRelaxed};
  sim::Auditor::Config audit{};
};

struct TracedRunOptions : RunOptions {
  // Tail autopsy (obs/flow_trace.h): attach a FlowTracer and decompose each
  // sampled flow's FCT into serialization/propagation/per-tier queueing/
  // stall classes. Sampling hashes (flow id, seed) so the decision is
  // deterministic and jobs-invariant; a sweep hashes its *base* seed, so the
  // same flow ids are traced at every point. 1 traces every flow. Disabled
  // runs are byte-identical to pre-tracer behavior.
  bool flow_trace{false};
  std::uint64_t flow_trace_sample_every{1};
};

// Checkpoint/resume hooks (the CLI binds them to a core::TaskJournal; tests
// use them to fake a crash). `resume` is consulted before a point runs:
// return true and fill `out` to skip its simulation. `on_result` fires after
// every freshly run point, from the worker thread that ran it, with the
// point's derived seed.
template <typename Result>
using ResumeHook = std::function<bool(std::size_t index, Result& out)>;
template <typename Result>
using ResultHook =
    std::function<void(std::size_t index, std::uint64_t seed, const Result& result)>;

template <typename Result>
struct SweepOptions {
  // Worker threads (sim::SweepRunner): 1 = inline, <= 0 = all hardware
  // threads. Points are independent simulations whose seeds derive from
  // (base seed, point index), never from scheduling, so results are
  // byte-identical for every value.
  int jobs{1};
  // Fault-isolation policy; seed_of is filled in by run_sweep from the
  // point-seed derivation when unset. The default — fail_fast — aborts on
  // the first failing point.
  sim::SweepRunner::Policy sweep{};
  ResumeHook<Result> resume;
  ResultHook<Result> on_result;
};

}  // namespace incast::core

#endif  // INCAST_CORE_RUN_OPTIONS_H_
