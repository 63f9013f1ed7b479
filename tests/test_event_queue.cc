// Tests for the discrete-event pending set: ordering, ties, cancellation.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace incast::sim {
namespace {

using namespace incast::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3_us, [&] { fired.push_back(3); });
  q.push(1_us, [&] { fired.push_back(1); });
  q.push(2_us, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5_us, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1_us, [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelMiddleEventOnly) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1_us, [&] { fired.push_back(1); });
  const EventId id = q.push(2_us, [&] { fired.push_back(2); });
  q.push(3_us, [&] { fired.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.cancel(kInvalidEventId);
  q.cancel(12345);  // never issued
  q.push(1_us, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, DoubleCancelIsHarmless) {
  EventQueue q;
  const EventId id = q.push(1_us, [] {});
  q.push(2_us, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancellingAFiredIdIsATrueNoop) {
  EventQueue q;
  const EventId fired = q.push(1_us, [] {});
  q.push(2_us, [] {});
  (void)q.pop();     // `fired` executes
  q.cancel(fired);   // stale cancel: must not disturb accounting
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pop().at, 2_us);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(1_us, [] {});
  q.push(5_us, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 5_us);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_TRUE(q.next_time().is_infinite());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  const EventId a = q.push(1_us, [] {});
  q.push(2_us, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingIdsAreUnique) {
  EventQueue q;
  std::set<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.push(1_us, [] {});
    EXPECT_NE(id, kInvalidEventId);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id among pending events";
  }
}

TEST(EventQueue, ReusedSlotGetsAFreshGeneration) {
  // Fire an event, then schedule another: the slab reuses the slot, but the
  // bumped generation must yield a different id, so the stale id cannot
  // cancel the newcomer.
  EventQueue q;
  const EventId stale = q.push(1_us, [] {});
  (void)q.pop();
  const EventId fresh = q.push(2_us, [] {});
  EXPECT_NE(fresh, stale);
  q.cancel(stale);  // must not touch the slot's new occupant
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().at, 2_us);
}

TEST(EventQueue, GenerationSurvivesManyReuses) {
  // Hammer one slot through many fire/reschedule cycles; a stale id from
  // any earlier cycle must stay dead.
  EventQueue q;
  std::vector<EventId> history;
  for (int i = 0; i < 1000; ++i) {
    history.push_back(q.push(Time::microseconds(i), [] {}));
    (void)q.pop();
  }
  const EventId live = q.push(5_ms, [] {});
  for (const EventId old : history) q.cancel(old);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, live);
}

TEST(EventQueue, StressInterleavedPushPopCancel) {
  EventQueue q;
  int fired = 0;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      ids.push_back(q.push(Time::microseconds(round * 100 + i), [&] { ++fired; }));
    }
    // Cancel every third id ever issued (some already fired: harmless).
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    for (int i = 0; i < 10 && !q.empty(); ++i) q.pop().cb();
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 1000);
}

}  // namespace
}  // namespace incast::sim
