// Determinism contract for the collateral-damage experiment: the whole
// (mode x degree) grid runs on a SweepRunner, every point is an independent
// simulation, and the CSV artifact must be byte-identical at any --jobs.
//
// The suite name contains "Sweep" so the TSan CI leg (ctest -R 'Sweep')
// races the grid across a real worker pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/collateral_experiment.h"

namespace incast {
namespace {

core::CollateralConfig small_grid() {
  core::CollateralConfig cfg;
  // All four queue modes at a small fan-in: fast enough for CI, large
  // enough that every mechanism (pauses, trims, NACKs, credits) fires.
  cfg.degrees = {8};
  cfg.num_bursts = 2;
  cfg.burst_duration = sim::Time::milliseconds(3);
  cfg.inter_burst_gap = sim::Time::milliseconds(2);
  // A shallow trim queue so even a degree-8 burst actually trims.
  cfg.trim_queue_capacity_packets = 100;
  cfg.max_sim_time = sim::Time::seconds(5);
  cfg.audit_mode = sim::AuditMode::kStrict;
  cfg.seed = 11;
  return cfg;
}

TEST(CollateralSweepDeterminism, CsvIsByteIdenticalAcrossJobCounts) {
  core::CollateralConfig cfg = small_grid();
  cfg.jobs = 1;
  const core::CollateralReport sequential = core::run_collateral_experiment(cfg);
  const std::string baseline = core::collateral_csv(sequential);
  ASSERT_EQ(sequential.points.size(), 4u);
  // A vacuously empty run would make the identity check meaningless.
  for (const auto& p : sequential.points) {
    EXPECT_GT(p.victim_delivered_bytes, 0) << core::to_string(p.mode);
  }

  for (const int jobs : {4, 16}) {
    cfg.jobs = jobs;
    const std::string csv = core::collateral_csv(core::run_collateral_experiment(cfg));
    EXPECT_EQ(baseline, csv) << "jobs=" << jobs;
  }
}

// Every freshly simulated point hands its Simulator's per-category dispatch
// counts to SweepRunner, so each task's categories partition its events.
TEST(CollateralSweepDeterminism, EventCategoryCountsSumToEventsProcessed) {
  core::CollateralConfig cfg = small_grid();
  cfg.jobs = 4;
  const core::CollateralReport report = core::run_collateral_experiment(cfg);
  ASSERT_EQ(report.sweep.tasks.size(), report.points.size());
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const sim::SweepRunner::TaskStats& task = report.sweep.tasks[i];
    std::uint64_t categorized = 0;
    for (const std::uint64_t n : task.events_by_category) categorized += n;
    EXPECT_GT(task.events, 0u) << core::to_string(report.points[i].mode);
    EXPECT_EQ(categorized, task.events) << core::to_string(report.points[i].mode);
    EXPECT_EQ(categorized, report.points[i].events_processed);
    // The event-kernel footprint reaches the sweep stats like the profile.
    EXPECT_GT(task.slab_high_water, 0u);
    EXPECT_EQ(task.slab_high_water, report.points[i].slab_high_water);
    EXPECT_EQ(task.peak_events_pending, report.points[i].peak_events_pending);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t n : report.sweep.events_by_category) total += n;
  EXPECT_EQ(total, report.sweep.total_events);
  EXPECT_GT(report.sweep.slab_high_water, 0u);
}

TEST(CollateralSweepDeterminism, EveryModeRunsCleanUnderTheStrictAuditor) {
  const core::CollateralReport report = core::run_collateral_experiment(small_grid());
  ASSERT_EQ(report.points.size(), 4u);
  for (const auto& p : report.points) {
    EXPECT_EQ(p.audit_violations, 0u) << core::to_string(p.mode);
  }
  EXPECT_TRUE(report.sweep.failures.empty());
}

TEST(CollateralSweepDeterminism, EachModeExercisesItsMechanism) {
  const core::CollateralReport report = core::run_collateral_experiment(small_grid());
  ASSERT_EQ(report.points.size(), 4u);
  for (const auto& p : report.points) {
    switch (p.mode) {
      case core::QueueMode::kDropTail:
      case core::QueueMode::kCredit:
        EXPECT_EQ(p.pfc_pause_frames, 0) << core::to_string(p.mode);
        EXPECT_EQ(p.trimmed_packets, 0) << core::to_string(p.mode);
        break;
      case core::QueueMode::kPfc:
        // Lossless: backpressure instead of loss.
        EXPECT_GT(p.pfc_pause_frames, 0);
        EXPECT_EQ(p.queue_drops, 0);
        EXPECT_EQ(p.pfc_overflow_drops, 0);
        break;
      case core::QueueMode::kTrim:
        EXPECT_GT(p.trimmed_packets, 0);
        EXPECT_GT(p.incast_nacks + p.victim_nacks, 0);
        break;
    }
  }
}

}  // namespace
}  // namespace incast
