#pragma once
// SocketNetwork — the deployed runtime, next to the deterministic
// SimNetwork: epoll-driven non-blocking TCP hosting ONE IProcess per
// instance, so n replicas + clients run as separate OS processes
// (replicad/loadgen) or as separate event loops inside one binary
// (testutil::LoopbackHost). The same protocol objects that run on
// SimNetwork run here unchanged — IProcess/IContext is the only
// contract.
//
// Topology and identity. The config names the cluster members' ids
// [0, cluster_n) and their listen addresses; ids >= cluster_n are
// clients, which dial in and announce their id in the handshake (the
// replica layout convention of rsm::RsmReplica). Client ids are capped
// at cluster_n + max_clients — the same bound the signer-set derivation
// uses — so a hostile hello cannot widen node_count(). Each direction of
// replica<->replica traffic rides the sender's own outbound connection;
// replica->client traffic rides the client's inbound connection (clients
// need no listen socket — decide notifications flow back over the TCP
// connection the client opened).
//
// The robustness spine:
//  * per-peer connection state machine: connect -> handshake(node id) ->
//    established -> backoff, with exponential backoff + seeded jitter on
//    reconnect (kernel-level crash recovery: a kill -9'd peer is redialed
//    until it returns);
//  * bounded per-peer send queues with backpressure: frames queue while
//    a peer is down or slow, and once the bound is hit the OLDEST queued
//    frame is shed (counted in obs::Registry as net/sendq_shed —
//    protocols already treat loss as recoverable, so shedding old frames
//    under pressure beats unbounded memory);
//  * deadline timeouts: a connection stuck in the TCP/hello handshake or
//    making no write progress against a non-empty queue is dropped and
//    redialed (a peer that accepts but never reads cannot wedge us);
//  * partial-read/EINTR/SIGPIPE-safe I/O and pre-allocation length-prefix
//    validation live in net/conn.*; a framing violation drops the
//    connection to resync.
//
// Threading: one event-loop thread per instance. All process callbacks
// (on_start/on_message/on_timer) run on that thread, so process code
// needs no locking. Other threads interact
// through call(), which runs a closure on the loop thread and waits, or
// through the hosted process's own atomic accessors (BatchClient::done).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/conn.hpp"
#include "net/process.hpp"
#include "obs/registry.hpp"

namespace bla::net {

class SocketNetwork {
public:
  struct Config {
    /// This endpoint's node id (replica [0,cluster_n) or client >= n).
    NodeId self = 0;
    /// Cluster member count; ids [0, cluster_n) have known addresses.
    std::size_t cluster_n = 0;
    /// Listen address per cluster member, indexed by id ("127.0.0.1:9100").
    std::vector<std::string> peers;
    /// Listen address for inbound connections. Empty and listen_fd < 0 =>
    /// outbound-only endpoint (clients).
    std::string listen;
    /// Pre-bound listening socket; takes precedence over `listen` and is
    /// owned by the network. Lets a harness bind port 0 everywhere, read
    /// the real ports back, and only then hand out the address map.
    int listen_fd = -1;
    /// Seed for reconnect jitter (decorrelates thundering-herd redials).
    std::uint64_t seed = 1;
    // -- robustness knobs (seconds) ----------------------------------------
    double reconnect_base = 0.05;  // first backoff
    double reconnect_max = 2.0;    // backoff ceiling
    double handshake_timeout = 5.0;
    /// Drop a connection whose write queue is non-empty but made no
    /// progress for this long (peer accepted but stopped reading).
    double write_stall_timeout = 10.0;
    /// stop(): bounded best-effort flush of queued frames before close.
    double drain_timeout = 2.0;
    /// Per-peer outbox bounds; overflow sheds the OLDEST queued frame.
    std::size_t max_sendq_frames = 4096;
    std::size_t max_sendq_bytes = std::size_t{64} << 20;
    /// Transport frame cap (tests shrink it to exercise rejection).
    std::size_t max_frame_bytes = kMaxFrameBytes;
    /// Highest client id accepted in a hello is cluster_n + max_clients
    /// - 1; anything past the cap is rejected (net/handshake_rejects).
    /// This bounds max_node_ — and with it every broadcast / decide
    /// fan-out loop over [0, node_count()) — against an unauthenticated
    /// hello claiming id ~2^32 (a remote DoS otherwise). replicad plumbs
    /// ClusterConfig::max_clients here, matching the signer-set cap.
    std::size_t max_clients = 64;
    /// Aggregate net/* counters land here (same names the in-process
    /// runtimes register, plus the socket-only net/ series). Optional.
    std::shared_ptr<obs::Registry> registry;
  };

  explicit SocketNetwork(Config config);
  ~SocketNetwork();

  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Installs the hosted process. Must be called before start().
  void host(std::unique_ptr<IProcess> process);

  /// Binds/listens (unless outbound-only), starts the loop thread, and
  /// runs on_start on it. Throws std::runtime_error if the listen
  /// address cannot be bound.
  void start();

  /// Graceful shutdown: stop dialing/accepting, flush queued frames for
  /// up to drain_timeout, close everything, join the loop thread.
  void stop();

  /// Abrupt shutdown (crash simulation / tests): close every fd with no
  /// drain and join. Peers see a reset/EOF exactly as they would on
  /// kill -9.
  ///
  /// Threading: start/stop/kill are controlling-thread operations — they
  /// must not race each other from different threads (call() may run
  /// from any thread while the loop is up, but not concurrently with
  /// the stop()/kill() that tears it down).
  void kill();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Actual bound listen port (after start(); 0 for outbound-only).
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Runs `fn` on the event-loop thread and waits for it — the safe way
  /// for tests/drivers to touch the hosted process's non-atomic state.
  void call(const std::function<void()>& fn);

  [[nodiscard]] NodeMetrics metrics() const;
  /// Established peer count (either direction), for tests/status lines.
  [[nodiscard]] std::size_t established_peers() const;
  /// Loop-thread snapshot of the peer-table size (tests: disconnected
  /// client entries are garbage-collected). Runs through call(), so it
  /// must not be invoked from the loop thread itself.
  [[nodiscard]] std::size_t peer_table_size();

private:
  struct Peer {
    std::unique_ptr<Conn> out;  // we dialed
    std::unique_ptr<Conn> in;   // peer dialed us
    /// Frames waiting for an established route. Bounded; shed-oldest.
    std::deque<wire::Bytes> outbox;
    std::size_t outbox_bytes = 0;
    double backoff = 0.0;     // current reconnect delay (0 = immediate)
    double next_dial = 0.0;   // earliest redial time (loop clock)
    bool dial_scheduled = false;
  };

  class Context;
  friend class Context;

  // -- loop-thread only ----------------------------------------------------
  void loop();
  /// Closes wake/epoll fds. Joiner-side only (after the loop thread is
  /// joined, or from start()'s failure path / the destructor).
  void close_loop_fds();
  [[nodiscard]] double loop_now() const;
  void send_to(NodeId to, wire::Bytes payload);
  void broadcast_from_process(const wire::Bytes& payload);
  void dial(NodeId id);
  void schedule_redial(NodeId id);
  void establish(Conn& conn, NodeId id);
  void handle_conn_io(Conn* conn, std::uint32_t events);
  /// gc_peer=false suppresses the client-entry erase — used when a
  /// superseding handshake is about to install a replacement connection
  /// and the queued outbox should survive the swap.
  void drop_conn(Conn* conn, const char* why, bool gc_peer = true);
  /// Recomputes the established-peer count (and its gauge) after a link
  /// came up or went down.
  void recount_established();
  void pump_outbox(NodeId id);
  [[nodiscard]] Conn* route(NodeId id);
  void accept_pending();
  void deliver(NodeId from, wire::BytesView payload);
  void drain_self_inbox();
  void fire_due_timers();
  [[nodiscard]] int next_timeout_ms() const;
  void update_epoll(Conn& conn);
  void epoll_add(int fd, void* tag, bool want_write);
  void run_control();
  void housekeeping();
  [[nodiscard]] double jitter();  // in [0.5, 1.5)

  Config config_;
  std::unique_ptr<IProcess> process_;
  std::unique_ptr<Context> ctx_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: control-queue tickle from other threads
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::map<NodeId, Peer> peers_;
  /// Accepted connections whose hello has not arrived yet (identity
  /// unknown); moved into peers_[id].in on a valid handshake.
  std::vector<std::unique_ptr<Conn>> pending_in_;
  /// Dropped connections parked until the end of the loop iteration, so
  /// pointers still sitting in the current epoll_wait batch stay valid
  /// (their state is kClosed and every handler checks it first).
  std::vector<std::unique_ptr<Conn>> graveyard_;
  /// Contexts report max(cluster_n, highest handshaked client id + 1),
  /// so RsmReplica's "push decides to every client in [n, node_count)"
  /// loop covers every client that ever connected. Bounded by
  /// cluster_n + max_clients — the handshake rejects ids past the cap.
  NodeId max_node_ = 0;

  /// Self-sends: delivered from the loop, never through TCP.
  std::deque<wire::Bytes> self_inbox_;

  /// Timers. Process timers carry the token for on_timer; internal
  /// timers (reconnect, housekeeping) run network upkeep.
  struct TimerEntry {
    enum class Kind : std::uint8_t { kProcess, kRedial, kHousekeep };
    Kind kind;
    std::uint64_t token = 0;  // process token or peer id
  };
  std::multimap<double, TimerEntry> timers_;  // key: loop_now() seconds

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  // graceful drain requested
  std::atomic<bool> killing_{false};   // abrupt close requested
  std::thread thread_;

  // Control queue (call() closures), guarded by control_mu_.
  std::mutex control_mu_;
  std::deque<std::function<void()>> control_;
  std::condition_variable control_cv_;

  mutable std::mutex metrics_mu_;
  NodeMetrics metrics_;
  std::atomic<std::size_t> established_count_{0};

  std::uint64_t rng_;
  double drain_deadline_ = 0.0;  // loop clock; set when stopping_ observed

  // obs views (no-ops when no registry is configured).
  obs::Counter obs_messages_sent_;
  obs::Counter obs_bytes_sent_;
  obs::Counter obs_messages_delivered_;
  obs::Counter obs_bytes_delivered_;
  obs::Counter obs_connect_attempts_;
  obs::Counter obs_connects_;
  obs::Counter obs_accepts_;
  obs::Counter obs_disconnects_;
  obs::Counter obs_redials_;
  obs::Counter obs_handshake_rejects_;  // warning
  obs::Counter obs_frame_rejects_;      // warning
  obs::Counter obs_sendq_shed_;         // warning
  obs::Counter obs_unroutable_;
  obs::Counter obs_deadline_closes_;
  obs::Gauge obs_established_;
};

}  // namespace bla::net
