#pragma once
// Process and runtime interfaces for the asynchronous message-passing
// model of paper §3: a complete graph of reliable, authenticated,
// asynchronous point-to-point links.
//
// Both runtimes (the deterministic discrete-event SimNetwork and the
// epoll TCP SocketNetwork) drive the same IProcess interface, so every
// protocol, adversary, test, and bench runs unchanged on either.

#include <cstdint>
#include <span>
#include <vector>

#include "wire/wire.hpp"

namespace bla::net {

using NodeId = std::uint32_t;

/// Handle a process uses to interact with the network during a callback.
/// Authenticity: the runtime stamps the true sender on every message; a
/// Byzantine process can send arbitrary *payloads* but cannot spoof its
/// identity (the paper's authenticated-channels assumption).
class IContext {
public:
  virtual ~IContext() = default;

  virtual void send(NodeId to, wire::Bytes payload) = 0;

  /// Point-to-point send to every node in [0, n) including self. This is
  /// the paper's "Broadcast" (plain best-effort broadcast, *not* reliable
  /// broadcast — that is built in src/rbc on top of sends).
  virtual void broadcast(wire::Bytes payload) = 0;

  [[nodiscard]] virtual NodeId self() const = 0;
  [[nodiscard]] virtual std::size_t node_count() const = 0;

  /// Current time. In the simulator with the unit-delay model this counts
  /// message delays, the cost unit of Theorems 3 and 8.
  [[nodiscard]] virtual double now() const = 0;

  /// Arms a one-shot timer: `on_timer(ctx, token)` fires on this process
  /// after `delay` time units (simulated time in SimNetwork, wall seconds
  /// in SocketNetwork). Defaults to a no-op so minimal contexts (tests,
  /// adversaries) need not implement timers; protocols that rely on
  /// retransmission must tolerate timers that never fire — the paper's
  /// asynchronous model makes no timing assumptions, timers here only
  /// drive *recovery* (retransmit/anti-entropy), never safety.
  virtual void schedule(double delay, std::uint64_t token) {
    (void)delay;
    (void)token;
  }
};

/// A protocol node. Correct processes implement the paper's algorithms;
/// Byzantine processes implement anything at all.
class IProcess {
public:
  virtual ~IProcess() = default;

  virtual void on_start(IContext& ctx) = 0;
  virtual void on_message(IContext& ctx, NodeId from,
                          wire::BytesView payload) = 0;

  /// One-shot timer callback (see IContext::schedule). Timer firings are
  /// local control flow, not network traffic: runtimes exclude them from
  /// NodeMetrics and the net/* counters.
  virtual void on_timer(IContext& ctx, std::uint64_t token) {
    (void)ctx;
    (void)token;
  }
};

/// Per-node traffic counters, the raw data behind the message-complexity
/// tables (T3/T4/T5). Delivery-side bytes are counted too so
/// ingress/egress asymmetry (e.g. a node serving bodies it never
/// requested) is visible per node.
struct NodeMetrics {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
};

}  // namespace bla::net
