// EventQueue: the pending-event set of the discrete-event kernel.
//
// Layout is chosen so that steady-state dispatch performs zero heap
// allocations and zero hash-table operations:
//
//  * The heap is a cache-friendly 4-ary implicit heap whose entries are
//    24-byte PODs (Time, seq, slot). Sift operations move these small
//    entries, never the callbacks.
//  * Callbacks (allocation-free sim::InlineFunction) and their category live
//    in a free-listed slab indexed by `slot`. A slot is written once at
//    push() and read once at pop(); it never moves while scheduled.
//  * Ordering is (time, seq) with seq a monotonically increasing insertion
//    counter, which makes event ordering at equal timestamps deterministic
//    (FIFO) — essential for reproducible runs.
//  * Cancellation is generation-stamped: an EventId encodes (slot,
//    generation), and the generation bumps every time a slot is freed.
//    cancel() of an id whose event already fired (or was already cancelled)
//    sees a stale generation and is a true no-op — the contract TCP timer
//    code relies on. A cancelled slot releases its callback immediately;
//    its heap entry is skipped lazily when it surfaces at the root.
//
// Steady state (push/cancel/pop at a stable depth) touches only the heap
// vector and the slab vector — no allocation, no hashing, no node churn.
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

  // Pre-sizes the heap and slab for `n` concurrently pending events, so a
  // simulation whose peak depth is known up front (hosts x flows x a few
  // timers) never grows either on its hot path.
  void reserve(std::size_t n) {
    heap_.reserve(n);
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
    heap_.push_back(Entry{at, next_seq_++, slot});
    sift_up(heap_.size() - 1);
    if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
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
    skip_cancelled();
    return heap_.empty() ? Time::infinity() : heap_.front().at;
  }

  // Pops the next non-cancelled event. Precondition: !empty().
  struct Popped {
    Time at;
    EventId id;
    EventCategory category;
    Callback cb;
  };
  Popped pop() {
    skip_cancelled();
    assert(!heap_.empty() && "pop() on an empty queue");
    const Entry top = heap_.front();
    pop_root();
    Slot& s = slots_[top.slot];
    Popped out{top.at, encode_id(top.slot, s.generation), s.category,
               std::move(s.cb)};
    release_slot(top.slot);
    --live_;
    return out;
  }

  // Peak heap depth since construction (cancelled-but-unpopped entries
  // included — they occupy real heap memory until they surface).
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

  void sift_up(std::size_t i) noexcept {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Removes the root: the last entry sifts down from the top.
  void pop_root() noexcept {
    const Entry e = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  // Drops cancelled entries off the root so the front is a live event.
  // Const because peeking must be const for the Simulator's const
  // next_event_time(); the compaction is not observable behavior.
  void skip_cancelled() const {
    auto* self = const_cast<EventQueue*>(this);
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (slots_[top.slot].live) break;
      self->release_slot(top.slot);
      self->pop_root();
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::size_t peak_pending_{0};
};

constexpr std::size_t EventQueue::slot_bytes() noexcept { return sizeof(Slot); }

}  // namespace incast::sim

#endif  // INCAST_SIM_EVENT_QUEUE_H_
