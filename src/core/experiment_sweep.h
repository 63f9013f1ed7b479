// core::run_sweep — the one sweep loop every multi-point experiment runs.
//
// Scaling, collateral, fleet, faults and chaos each run a grid of
// independent simulations on a sim::SweepRunner. run_sweep owns what they
// share: the runner and its policy, per-point seed derivation, replaying
// points a journal already holds (`resume`), reporting fresh ones
// (`on_result`), and filling each point's TaskStats from its event-kernel
// counters. A driver supplies only how to run one point.
#ifndef INCAST_CORE_EXPERIMENT_SWEEP_H_
#define INCAST_CORE_EXPERIMENT_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/experiment_obs.h"
#include "core/run_options.h"
#include "sim/sweep.h"

namespace incast::core {

// The counters a point reports to its TaskStats. Result types inheriting
// RunCounters use this overload; others provide their own next to the type.
[[nodiscard]] inline const RunCounters& run_counters(const RunCounters& counters) noexcept {
  return counters;
}

// Runs points [0, n) on `options.jobs` threads under `options.sweep`, whose
// seed_of defaults to `seed_of` (failure records carry the point's seed). A
// point `options.resume` fills is replayed; any other runs as run(index,
// seed_of(index)) and is passed to `options.on_result`. Results come back in
// index order at any jobs value; `stats` receives the sweep's RunStats.
template <typename Result, typename Run>
[[nodiscard]] std::vector<Result> run_sweep(
    std::size_t n, const SweepOptions<Result>& options,
    const std::function<std::uint64_t(std::size_t)>& seed_of, Run&& run,
    sim::SweepRunner::RunStats& stats) {
  sim::SweepRunner runner{options.jobs};
  sim::SweepRunner::Policy policy = options.sweep;
  if (!policy.seed_of) policy.seed_of = seed_of;
  runner.set_policy(std::move(policy));
  std::vector<Result> results = runner.run<Result>(
      n, [&](std::size_t index, sim::SweepRunner::TaskStats& task) {
        Result result;
        if (!options.resume || !options.resume(index, result)) {
          const std::uint64_t seed = seed_of(index);
          result = run(index, seed);
          if (options.on_result) options.on_result(index, seed, result);
        }
        const RunCounters& counters = run_counters(result);
        task.events = counters.events_processed;
        task.events_by_category = counters.events_by_category;
        task.peak_events_pending = counters.peak_events_pending;
        task.slab_high_water = counters.slab_high_water;
        return result;
      });
  stats = runner.last_run();
  return results;
}

}  // namespace incast::core

#endif  // INCAST_CORE_EXPERIMENT_SWEEP_H_
