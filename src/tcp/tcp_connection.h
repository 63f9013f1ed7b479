// TcpConnection: a sender/receiver endpoint pair with a shared flow id.
//
// Connections are persistent (the paper's workloads reuse connections across
// bursts, which is what makes the Section 4.3 divergence possible), so no
// SYN handshake is modelled: both endpoints exist from construction, exactly
// like a long-lived connection in steady state.
//
// Both endpoints are held by value: a connection is one object, not three
// heap allocations, so an arena of connections (sim/stable_arena.h) keeps
// the per-flow state of a large incast contiguous. The price is that
// TcpConnection is address-pinned like its endpoints (they capture `this`
// in scheduled events) — construct it in place and never move it.
#ifndef INCAST_TCP_TCP_CONNECTION_H_
#define INCAST_TCP_TCP_CONNECTION_H_

#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace incast::tcp {

class TcpConnection {
 public:
  // Builds a connection carrying data sender_host -> receiver_host.
  TcpConnection(sim::Simulator& sim, net::Host& sender_host, net::Host& receiver_host,
                net::FlowId flow, const TcpConfig& config)
      : sender_{sim, sender_host, receiver_host.id(), flow, config},
        receiver_{sim, receiver_host, sender_host.id(), flow, config} {}

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  [[nodiscard]] TcpSender& sender() noexcept { return sender_; }
  [[nodiscard]] const TcpSender& sender() const noexcept { return sender_; }
  [[nodiscard]] TcpReceiver& receiver() noexcept { return receiver_; }
  [[nodiscard]] const TcpReceiver& receiver() const noexcept { return receiver_; }
  [[nodiscard]] net::FlowId flow() const noexcept { return sender_.flow(); }

 private:
  TcpSender sender_;
  TcpReceiver receiver_;
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_TCP_CONNECTION_H_
