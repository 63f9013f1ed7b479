// EventQueue: the pending-event set of the discrete-event kernel.
//
// Layout is chosen so that steady-state dispatch performs zero heap
// allocations and zero hash-table operations:
//
//  * Pending events live in two cache-friendly 4-ary implicit heaps whose
//    entries are 24-byte PODs (Time, seq, slot). Sift operations move these
//    small entries, never the callbacks.
//  * Events of category kNet (serialization done, propagation done, PFC
//    pause expiry) go to the *wire heap*; every other category goes to the
//    *timer heap*. Packet hops are nearly every event of a run, and wire
//    events are never cancelled, so the wire heap stays at the live wire
//    depth. Cancelled RTO timers pile up in the timer heap instead, where
//    they no longer lengthen every hop's sift path.
//  * Callbacks (allocation-free sim::InlineFunction) and their category live
//    in a free-listed slab indexed by `slot`, shared by both heaps. A slot is
//    written once at push() and read once at pop(); it never moves while
//    scheduled.
//  * Ordering is (time, seq) with seq a monotonically increasing insertion
//    counter shared by both heaps, which makes event ordering at equal
//    timestamps deterministic (FIFO) — essential for reproducible runs.
//    pop() and next_time() take the earlier of the two roots, so dispatch
//    order is exactly that of one heap holding every entry.
//  * Cancellation is generation-stamped: an EventId encodes (slot,
//    generation), and the generation bumps every time a slot is freed.
//    cancel() of an id whose event already fired (or was already cancelled)
//    sees a stale generation and is a true no-op — the contract TCP timer
//    code relies on. A cancelled slot releases its callback immediately;
//    its heap entry is skipped lazily when it becomes the earlier root.
//    Dead roots are released in the same global (time, seq) order one heap
//    would release them, so the slab's free-list order, slab_high_water()
//    and peak_pending() match the single-heap kernel's exactly. A cancelled
//    timer still pins its slab slot until it surfaces; it no longer costs
//    dispatch time.
//
// Steady state (push/cancel/pop at a stable depth) touches only the heap
// vectors and the slab vector — no allocation, no hashing, no node churn.
#ifndef INCAST_SIM_EVENT_QUEUE_H_
#define INCAST_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_category.h"
#include "sim/inline_function.h"
#include "sim/time.h"

namespace incast::sim {

// Identifies a scheduled event for cancellation: (slot index + 1) in the
// upper 32 bits, slot generation in the lower 32. Ids are unique among
// pending events, and a slot's generation changes whenever it is reused, so
// a stale id can never cancel a later event that happens to occupy the same
// slot.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = InlineFunction;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Pre-sizes both heaps and the slab for `n` concurrently pending events,
  // so a simulation whose peak depth is known up front (hosts x flows x a
  // few timers) never grows any of them on its hot path. Reserved pages
  // that a heap never reaches are never touched, so they cost no RSS.
  void reserve(std::size_t n) {
    wires_.entries.reserve(n);
    timers_.entries.reserve(n);
    slots_.reserve(n);
  }

  // Schedules `cb` to run at absolute time `at`. Returns an id usable with
  // cancel(). Scheduling into the past is the caller's bug; the queue will
  // still pop events in heap order, so the kernel asserts on it instead.
  EventId push(Time at, Callback cb,
               EventCategory category = EventCategory::kGeneric) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.category = category;
    s.live = true;
    (category == EventCategory::kNet ? wires_ : timers_).push(Entry{at, next_seq_++, slot});
    const std::size_t depth = wires_.entries.size() + timers_.entries.size();
    if (depth > peak_pending_) peak_pending_ = depth;
    ++live_;
    return encode_id(slot, s.generation);
  }

  // Cancels a pending event. Cancelling an id that already fired (or was
  // already cancelled) is a harmless no-op — this is what timer code wants.
  // The callback is released immediately; the heap entry is skipped lazily.
  void cancel(EventId id) {
    const std::uint64_t slot_plus_1 = id >> 32;
    if (slot_plus_1 == 0 || slot_plus_1 > slots_.size()) return;
    const auto slot = static_cast<std::uint32_t>(slot_plus_1 - 1);
    Slot& s = slots_[slot];
    if (!s.live || s.generation != static_cast<std::uint32_t>(id)) return;
    s.live = false;
    s.cb.reset();
    --live_;
  }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  // Time of the next non-cancelled event; Time::infinity() if none.
  // Logically const: skipping already-cancelled heap entries compacts
  // internal storage but never changes the observable event sequence.
  [[nodiscard]] Time next_time() const {
    const Heap* front = const_cast<EventQueue*>(this)->skip_cancelled();
    return front == nullptr ? Time::infinity() : front->entries.front().at;
  }

  // Pops the next non-cancelled event. Precondition: !empty().
  struct Popped {
    Time at;
    EventId id;
    EventCategory category;
    Callback cb;
  };
  Popped pop() {
    Heap* front = skip_cancelled();
    assert(front != nullptr && "pop() on an empty queue");
    const Entry top = front->entries.front();
    front->pop_root();
    Slot& s = slots_[top.slot];
    Popped out{top.at, encode_id(top.slot, s.generation), s.category,
               std::move(s.cb)};
    release_slot(top.slot);
    --live_;
    return out;
  }

  // Peak heap depth since construction, both heaps together
  // (cancelled-but-unpopped entries included — they occupy real heap memory
  // until they surface).
  [[nodiscard]] std::size_t peak_pending() const noexcept { return peak_pending_; }
  // Slab high-water mark: the most slots ever in existence, i.e. the peak
  // number of concurrently scheduled events the queue has sized itself for.
  [[nodiscard]] std::size_t slab_high_water() const noexcept { return slots_.size(); }
  // Bytes one slab slot occupies — multiply by slab_high_water() for the
  // event kernel's contribution to a memory budget.
  [[nodiscard]] static constexpr std::size_t slot_bytes() noexcept;

 private:
  // 24 bytes; sift operations shuffle these, never the callbacks. seq is
  // 64-bit so FIFO tie-breaking cannot wrap within any realistic run.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) <= 24, "heap entries are meant to stay small");

  struct Slot {
    Callback cb;
    std::uint32_t generation{0};
    std::uint32_t next_free{kNoSlot};
    EventCategory category{EventCategory::kGeneric};
    bool live{false};
  };

  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  [[nodiscard]] static EventId encode_id(std::uint32_t slot,
                                         std::uint32_t generation) noexcept {
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | generation;
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    assert(slots_.size() < kNoSlot && "slab exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    ++s.generation;  // invalidates every id handed out for this occupancy
    s.live = false;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  // Strict-weak order: earlier (time, seq) is dispatched first.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  // One 4-ary implicit min-heap of entries.
  struct Heap {
    std::vector<Entry> entries;

    [[nodiscard]] bool empty() const noexcept { return entries.empty(); }

    void push(const Entry& e) {
      entries.push_back(e);
      std::size_t i = entries.size() - 1;
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(e, entries[parent])) break;
        entries[i] = entries[parent];
        i = parent;
      }
      entries[i] = e;
    }

    // Removes the root: the last entry sifts down from the top.
    void pop_root() noexcept {
      const Entry e = entries.back();
      entries.pop_back();
      if (entries.empty()) return;
      const std::size_t n = entries.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (before(entries[c], entries[best])) best = c;
        }
        if (!before(entries[best], e)) break;
        entries[i] = entries[best];
        i = best;
      }
      entries[i] = e;
    }
  };

  // The heap whose root is the earliest pending entry; nullptr if both are
  // empty.
  [[nodiscard]] Heap* front_heap() noexcept {
    if (wires_.empty()) return timers_.empty() ? nullptr : &timers_;
    if (timers_.empty()) return &wires_;
    return before(wires_.entries.front(), timers_.entries.front()) ? &wires_ : &timers_;
  }

  // Drops cancelled entries off the earlier root until it is a live event,
  // in the global (time, seq) order, and returns the heap holding that
  // event (nullptr if none). The compaction is not observable behavior, so
  // the const next_time() may call it.
  Heap* skip_cancelled() noexcept {
    for (;;) {
      Heap* front = front_heap();
      if (front == nullptr) return nullptr;
      const std::uint32_t slot = front->entries.front().slot;
      if (slots_[slot].live) return front;
      release_slot(slot);
      front->pop_root();
    }
  }

  Heap wires_;   // kNet events
  Heap timers_;  // every other category
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::size_t peak_pending_{0};
};

constexpr std::size_t EventQueue::slot_bytes() noexcept { return sizeof(Slot); }

}  // namespace incast::sim

#endif  // INCAST_SIM_EVENT_QUEUE_H_
