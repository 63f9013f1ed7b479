// Tests for the discrete-event pending set: ordering, ties, cancellation,
// and a differential check of the two-heap queue against a single-heap
// model.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
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

// The single-heap kernel the two-heap queue must be indistinguishable from:
// one ordered set of every scheduled entry, dead ones included, over the
// same generation-stamped, LIFO free-listed slab. It reports what the
// queue's observers see: pop order and ids, slab_high_water() and
// peak_pending().
class SingleHeapModel {
 public:
  struct Popped {
    Time at;
    EventId id;
    int tag;
  };

  EventId push(Time at, int tag) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].live = true;
    slots_[slot].tag = tag;
    entries_.insert({at.ns(), next_seq_++, slot});
    peak_pending_ = std::max(peak_pending_, entries_.size());
    ++live_;
    return encode(slot);
  }

  void cancel(EventId id) {
    const std::uint64_t slot_plus_1 = id >> 32;
    if (slot_plus_1 == 0 || slot_plus_1 > slots_.size()) return;
    Slot& s = slots_[slot_plus_1 - 1];
    if (!s.live || s.generation != static_cast<std::uint32_t>(id)) return;
    s.live = false;
    --live_;
  }

  [[nodiscard]] Time next_time() {
    skip_dead();
    return entries_.empty() ? Time::infinity()
                            : Time::nanoseconds(std::get<0>(*entries_.begin()));
  }

  Popped pop() {
    skip_dead();
    const auto [at_ns, seq, slot] = *entries_.begin();
    entries_.erase(entries_.begin());
    const Popped out{Time::nanoseconds(at_ns), encode(slot), slots_[slot].tag};
    release(slot);
    --live_;
    return out;
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t slab_high_water() const { return slots_.size(); }
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Slot {
    std::uint32_t generation{0};
    bool live{false};
    int tag{0};
  };

  [[nodiscard]] EventId encode(std::uint32_t slot) const {
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | slots_[slot].generation;
  }

  void release(std::uint32_t slot) {
    ++slots_[slot].generation;
    slots_[slot].live = false;
    free_.push_back(slot);
  }

  void skip_dead() {
    while (!entries_.empty() && !slots_[std::get<2>(*entries_.begin())].live) {
      release(std::get<2>(*entries_.begin()));
      entries_.erase(entries_.begin());
    }
  }

  std::set<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>> entries_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::size_t peak_pending_{0};
};

// Drives random push / cancel / pop / next_time sequences through the
// queue and the single-heap model and requires identical observations at
// every step. kNet entries land in the wire heap, kTcp/kWorkload ones in
// the timer heap. Timestamps are drawn from a narrow grid, so equal times
// across the two heaps are common, and bursts of far-future timers that
// are cancelled at once leave long runs of dead entries behind.
void run_differential(std::uint64_t seed, int steps) {
  std::mt19937_64 rng{seed};
  EventQueue q;
  SingleHeapModel model;
  std::vector<EventId> issued;  // every id ever returned, fired or not
  int fired_tag = -1;
  std::int64_t now_ns = 0;
  int next_tag = 0;
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };

  const auto schedule = [&](std::int64_t at_ns, EventCategory category) {
    const int tag = next_tag++;
    const EventId id =
        q.push(Time::nanoseconds(at_ns), [&fired_tag, tag] { fired_tag = tag; }, category);
    ASSERT_EQ(id, model.push(Time::nanoseconds(at_ns), tag));
    issued.push_back(id);
  };

  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = pick(100);
    if (op < 40) {
      static constexpr EventCategory kCategories[] = {
          EventCategory::kNet, EventCategory::kNet, EventCategory::kTcp,
          EventCategory::kWorkload};
      schedule(now_ns + static_cast<std::int64_t>(pick(8)) * 10, kCategories[pick(4)]);
    } else if (op < 42) {
      // A run of far-future RTO timers, every one cancelled at once.
      const std::size_t first = issued.size();
      const int run = 50 + static_cast<int>(pick(200));
      for (int i = 0; i < run; ++i) {
        schedule(now_ns + 1'000'000 + static_cast<std::int64_t>(pick(1000)),
                 EventCategory::kTcp);
      }
      for (std::size_t i = first; i < issued.size(); ++i) {
        q.cancel(issued[i]);
        model.cancel(issued[i]);
      }
    } else if (op < 60 && !issued.empty()) {
      // Any id ever issued: pending, fired or already cancelled.
      const EventId id = issued[pick(issued.size())];
      q.cancel(id);
      model.cancel(id);
    } else if (op < 65) {
      ASSERT_EQ(q.next_time(), model.next_time()) << "step " << step;
    } else if (!q.empty()) {
      ASSERT_FALSE(model.size() == 0) << "step " << step;
      auto got = q.pop();
      const auto want = model.pop();
      got.cb();
      ASSERT_EQ(got.at, want.at) << "step " << step;
      ASSERT_EQ(got.id, want.id) << "step " << step;
      ASSERT_EQ(fired_tag, want.tag) << "step " << step;
      now_ns = got.at.ns();
    }
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
    ASSERT_EQ(q.slab_high_water(), model.slab_high_water()) << "step " << step;
    ASSERT_EQ(q.peak_pending(), model.peak_pending()) << "step " << step;
  }
  while (!q.empty()) {
    auto got = q.pop();
    const auto want = model.pop();
    got.cb();
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(fired_tag, want.tag);
  }
  EXPECT_EQ(model.size(), 0u);
  EXPECT_EQ(q.slab_high_water(), model.slab_high_water());
  EXPECT_EQ(q.peak_pending(), model.peak_pending());
}

TEST(EventQueueDifferential, MatchesTheSingleHeapModelStepByStep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, 20'000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace incast::sim
