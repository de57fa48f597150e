#pragma once
// In-process socket harnesses: processes hosted on SocketNetwork event
// loops talking over real loopback TCP inside one binary.
//
// LoopbackHost is the one place that hosts processes on loopback
// sockets — any vector of IProcesses, one event loop each. Tests, the
// fuzzer's socket runtime and the loopback example get the full
// transport stack (framing, handshakes, reconnect, backpressure) with
// none of the multi-process plumbing; replicad/loadgen cover that layer
// in scripts/.
//
// SocketCluster builds on it: n RsmReplicas plus BatchClient workloads —
// the socket analogue of testutil's Sim/BatchRsm scenario runners.
// crash(i) is kill -9 fidelity: the network is killed (no drain — peers
// see a reset) and the replica object destroyed, losing all in-memory
// state. restart(i) brings up a FRESH replica on the same port; catching
// up through the checkpoint protocol is the subject under test, measured
// through the shared registry's node<i>/checkpoint/* counters.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "batch/client.hpp"
#include "core/engine.hpp"
#include "crypto/signer.hpp"
#include "fault/fault.hpp"
#include "net/socket_network.hpp"
#include "obs/registry.hpp"
#include "rsm/replica.hpp"

namespace bla::testutil {

/// Client ids a loopback member accepts: [members, members + this). Size
/// signer sets that cover clients by the same bound.
inline constexpr std::size_t kMaxLoopbackClients = 8;

/// Hosts IProcesses over loopback TCP, one SocketNetwork per process,
/// all sharing one registry. Ids [0, members) are cluster members with
/// listeners; ids >= members are outbound-only clients.
///
/// Port discipline: the constructor binds every member's listener on
/// port 0 FIRST, reads the kernel-assigned ports back, and only then
/// builds the address map the networks dial from — no guessed ports, no
/// collisions between parallel test jobs. A removed member re-hosts on
/// its original port (SO_REUSEADDR), so the survivors' address maps stay
/// valid.
class LoopbackHost {
public:
  explicit LoopbackHost(std::size_t members, std::uint64_t seed = 1,
                        std::shared_ptr<obs::Registry> registry = nullptr);
  /// Kills whatever still runs.
  ~LoopbackHost();

  LoopbackHost(const LoopbackHost&) = delete;
  LoopbackHost& operator=(const LoopbackHost&) = delete;

  /// Hosts `process` as node `id` on a fresh network and starts it.
  net::SocketNetwork& host(net::NodeId id,
                           std::unique_ptr<net::IProcess> process);
  /// Hosts processes[i] as node i.
  void host_all(std::vector<std::unique_ptr<net::IProcess>> processes);

  /// Tears node `id` down and destroys its process; host(id, ...) may
  /// bring it back. `abrupt` is kill -9 fidelity (no drain, peers see a
  /// reset); otherwise queued frames drain first.
  void remove(net::NodeId id, bool abrupt);
  /// Graceful stop / abrupt kill of every running network. The loop
  /// threads are joined, so the hosted processes are then safe to read.
  void stop();
  void kill();

  [[nodiscard]] bool hosted(net::NodeId id) const {
    return id < nets_.size() && nets_[id] != nullptr;
  }
  [[nodiscard]] net::SocketNetwork& net(net::NodeId id) {
    return *nets_.at(id);
  }
  [[nodiscard]] const std::shared_ptr<obs::Registry>& registry() const {
    return registry_;
  }

private:
  std::size_t members_;
  std::uint64_t seed_;
  std::shared_ptr<obs::Registry> registry_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::string> peer_addrs_;
  std::vector<int> listen_fds_;  // -1 once a network owns the listener
  std::vector<std::unique_ptr<net::SocketNetwork>> nets_;  // by node id
  std::uint64_t incarnations_ = 0;  // fresh jitter stream per network
};

struct SocketClusterOptions {
  std::size_t n = 4;
  std::size_t f = 1;
  core::EngineKind engine = core::EngineKind::kGwts;
  std::uint64_t seed = 42;
  std::size_t checkpoint_interval = 8;
  /// Seeded link faults applied INSIDE each replica (the PR 7 decorator
  /// wrapping the replica process before the socket runtime hosts it).
  /// Empty = clean links.
  fault::FaultPlan replica_faults;
  // Wall-clock-scale timers: the in-simulation defaults (tick=8s) would
  // turn every lost frame into a multi-second stall on sockets.
  double recovery_tick = 0.1;
  double recovery_stall_after = 0.3;
};

class SocketCluster {
public:
  explicit SocketCluster(SocketClusterOptions options);

  /// Starts every replica's event loop (listeners are already bound).
  void start();
  /// Graceful stop of everything still running.
  void stop();

  /// kill -9 equivalent: abrupt network teardown + replica destruction.
  void crash(std::size_t id);
  /// Fresh replica + network on the crashed replica's original port
  /// (no-op while it runs).
  void restart(std::size_t id);

  struct ClientResult {
    bool done = false;
    std::uint64_t submitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t failed = 0;
  };
  /// Runs one BatchClient workload of `commands` distinct commands to
  /// completion (or timeout), synchronously. `client_index` keeps ids of
  /// successive/concurrent clients distinct (id = n + client_index).
  ClientResult run_client(std::size_t commands, double timeout_sec,
                          std::size_t client_index = 0);

  /// Registry counter value by full name (e.g.
  /// "node3/checkpoint/snapshots_adopted").
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

private:
  [[nodiscard]] std::unique_ptr<net::IProcess> make_replica(std::size_t id);

  SocketClusterOptions options_;
  std::shared_ptr<crypto::ISignerSet> signers_;
  std::unique_ptr<fault::FaultyNetwork> faults_;  // engaged when plan set
  LoopbackHost host_;  // last: its networks go down before the rest
};

}  // namespace bla::testutil
