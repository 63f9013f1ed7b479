// PacketPool: free-listed Packet storage for in-flight packets.
//
// The delivery path schedules two events per hop (serialization done,
// propagation done). Capturing the 392-byte Packet inside those closures
// would blow the kernel's inline-capture budget (sim/inline_function.h), so
// a Port parks the packet in its pool and captures just the handle — the
// "pool it, don't capture it" rule from docs/PERFORMANCE.md.
//
// Handles are stable pointers: the pool owns each Packet individually and
// recycles them through a free list, so steady state (pool warmed up to the
// link's bandwidth-delay product) performs zero allocations. Determinism is
// untouched — the pool only recycles storage; which packet goes where is
// decided entirely by the event kernel.
#ifndef INCAST_NET_PACKET_POOL_H_
#define INCAST_NET_PACKET_POOL_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "net/packet.h"

namespace incast::net {

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns a packet slot, recycled when possible. The contents are
  // whatever the previous occupant left; callers assign before use.
  [[nodiscard]] Packet* acquire() {
    if (!free_.empty()) {
      Packet* p = free_.back();
      free_.pop_back();
      return p;
    }
    storage_.push_back(std::make_unique<Packet>());
    return storage_.back().get();
  }

  // Returns `p` to the free list. `p` must have come from acquire() on this
  // pool and must not be used afterwards.
  void release(Packet* p) { free_.push_back(p); }

  // Packets ever allocated — the peak number simultaneously in flight.
  [[nodiscard]] std::size_t high_water() const noexcept { return storage_.size(); }
  [[nodiscard]] std::size_t in_use() const noexcept {
    return storage_.size() - free_.size();
  }

 private:
  std::vector<std::unique_ptr<Packet>> storage_;
  std::vector<Packet*> free_;
};

}  // namespace incast::net

#endif  // INCAST_NET_PACKET_POOL_H_
