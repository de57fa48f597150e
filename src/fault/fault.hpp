#pragma once
// Fault-injecting network decorator. The paper's §3 model assumes
// reliable authenticated links; the simulator honors that, real
// deployments will not. FaultyNetwork wraps each IProcess before either
// runtime hosts it and executes a seeded, replayable FaultPlan against
// its traffic:
//
//   - per-link drop / duplicate / reorder probabilities,
//   - scheduled partitions with a heal time,
//   - crash/recover of whole nodes (fail-silent isolation: while crashed
//     a node's inbound and outbound frames are all dropped; its in-memory
//     state and timers survive, matching a process that is still running
//     but unreachable — the crash-recovery-with-durable-state model).
//
// Faults apply at the *send* site per destination link, plus an inbound
// crash check so frames already in flight when a crash window opens are
// dropped too. Self-delivery (from == to) is in-process and therefore
// exempt from link faults and partitions. Every injected fault is
// counted in obs::Registry under fault/* and traced in the TraceLog, so
// a replayed schedule can be audited step by step.
//
// Determinism: all randomness flows from one SplitMix64 seeded by the
// plan. On SimNetwork every injector call happens on one thread in event
// order, so a (plan, seed, processes) triple replays bit-for-bit. Plan
// times are relative to the first timestamp the injector observes
// (SocketNetwork's now() is a steady_clock epoch, the simulator's starts
// at zero — relative windows work on both).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/process.hpp"
#include "obs/registry.hpp"

namespace bla::fault {

struct LinkFaults {
  double drop = 0.0;       // P(frame silently dropped)
  double duplicate = 0.0;  // P(frame delivered twice)
  double reorder = 0.0;    // P(frame swapped with the link's next frame)
};

/// Frames crossing side_a <-> everyone-else are dropped while
/// start <= t < heal (t relative to the injector's epoch).
struct PartitionSpec {
  double start = 0.0;
  double heal = 0.0;
  std::vector<net::NodeId> side_a;
};

/// Node is isolated while crash <= t < recover; recover <= crash means it
/// never comes back.
struct CrashSpec {
  net::NodeId node = 0;
  double crash = 0.0;
  double recover = 0.0;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  LinkFaults default_link;
  /// Per-directed-link overrides of the default probabilities.
  std::map<std::pair<net::NodeId, net::NodeId>, LinkFaults> link_overrides;
  std::vector<PartitionSpec> partitions;
  std::vector<CrashSpec> crashes;

  [[nodiscard]] bool empty() const {
    return default_link.drop == 0.0 && default_link.duplicate == 0.0 &&
           default_link.reorder == 0.0 && link_overrides.empty() &&
           partitions.empty() && crashes.empty();
  }
  /// One-line human summary (the fuzzer's spec codec lives in fuzz.hpp).
  [[nodiscard]] std::string describe() const;
};

/// Shared fault state consulted by every wrapped process. Mutex-protected
/// so the event loops of several SocketNetworks can race into it safely.
class FaultInjector {
public:
  FaultInjector(FaultPlan plan, std::shared_ptr<obs::Registry> registry);

  /// Applies outbound faults for one frame on link from->to and invokes
  /// `emit` zero, one, or two times with the frames to actually send.
  void outbound(net::NodeId from, net::NodeId to, double now,
                const wire::Bytes& payload,
                const std::function<void(wire::Bytes)>& emit);

  /// True if `to` is crashed at `now` (frame must not be delivered).
  bool inbound_blocked(net::NodeId to, double now);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  struct Stats {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t partition_dropped = 0;
    std::uint64_t crash_dropped = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t injected_faults() const;

private:
  [[nodiscard]] double rel(double now);  // epoch-relative time
  [[nodiscard]] bool chance(double p);
  [[nodiscard]] bool crashed(net::NodeId node, double t) const;
  [[nodiscard]] bool partitioned(net::NodeId from, net::NodeId to,
                                 double t) const;
  [[nodiscard]] const LinkFaults& link(net::NodeId from, net::NodeId to) const;
  void note_transitions(double t);

  const FaultPlan plan_;
  std::shared_ptr<obs::Registry> registry_;
  obs::Counter obs_dropped_;
  obs::Counter obs_duplicated_;
  obs::Counter obs_reordered_;
  obs::Counter obs_partition_dropped_;
  obs::Counter obs_crash_dropped_;

  mutable std::mutex mu_;
  std::uint64_t rng_;
  std::optional<double> epoch_;
  Stats stats_;
  /// Reorder stash: at most one in-flight frame per directed link, swapped
  /// with the link's next frame. A stashed frame with no successor stays
  /// stashed (degenerates to a drop; the recovery layer treats it as one).
  std::map<std::pair<net::NodeId, net::NodeId>, wire::Bytes> stash_;
  std::vector<bool> crash_noted_;
  std::vector<bool> recover_noted_;
};

/// Factory: wrap each process before handing it to SimNetwork or
/// SocketNetwork. The FaultyNetwork must outlive the runtime.
class FaultyNetwork {
public:
  explicit FaultyNetwork(FaultPlan plan,
                         std::shared_ptr<obs::Registry> registry = nullptr)
      : injector_(std::make_shared<FaultInjector>(std::move(plan),
                                                  std::move(registry))) {}

  [[nodiscard]] std::unique_ptr<net::IProcess> wrap(
      std::unique_ptr<net::IProcess> inner);

  [[nodiscard]] FaultInjector& injector() { return *injector_; }
  [[nodiscard]] const FaultInjector& injector() const { return *injector_; }

private:
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace bla::fault
