#pragma once
// Generative Byzantine fuzzer.
//
// A FuzzSchedule is a complete, seed-derived description of one system
// run: topology (n, f), engine (GWTS / GSbS), runtime (deterministic
// simulator / loopback sockets), client workload, a cocktail of at most f
// Byzantine adversaries, and a FaultPlan of link faults, partitions, and
// crash windows. Schedules round-trip through a one-line `key=value;`
// spec string, so any failure reproduces from a single printed line:
//
//     ./build/bench/bench_fault_fuzz --spec='seed=7;engine=gsbs;net=sim;...'
//
// run_schedule() executes a schedule with engine recovery and client
// retransmission enabled, then checks the safety properties that must
// hold under *any* fault/adversary combination:
//
//   - GLA Comparability across the correct replicas' decision chains,
//   - Local Stability of each chain (non-decreasing),
//   - durability: every command a client confirmed durable appears in
//     the union of the correct replicas' materialized states.
//
// Liveness (clients finishing) is reported but is not a violation: a
// schedule may legally crash or partition away the quorum for its whole
// duration. shrink() greedily minimizes a violating schedule — moving it
// onto the simulator, zeroing fault probabilities, dropping partitions /
// crashes / adversaries, and cutting the workload — while re-checking
// the violation after each candidate edit.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "fault/fault.hpp"

namespace bla::fault {

enum class NetKind : std::uint8_t { kSim, kSocket };

/// Byzantine behaviours the generator can place in a faulty slot (all
/// from core/adversary.hpp).
enum class AdversaryKind : std::uint8_t {
  kSilent,       // crash-from-start
  kEquivocate,   // split-brain RBC discloser
  kNackSpam,     // never-safe nack values
  kPromiscuous,  // acks everything, keeps no state
  kRoundJumper,  // claims far-future rounds
  kGarbage,      // syntactic fuzz frames
  kReplay,       // re-sends delivered frames out of order
  kWithhold,     // correct replica that drops outbound to victims
};

[[nodiscard]] std::string_view adversary_name(AdversaryKind kind);

struct FuzzSchedule {
  std::uint64_t seed = 1;  // master seed: workload + adversary randomness
  core::EngineKind engine = core::EngineKind::kGwts;
  NetKind net = NetKind::kSim;
  std::size_t n = 4;
  std::size_t f = 1;
  std::size_t clients = 1;
  std::size_t commands_per_client = 16;
  std::size_t batch_size = 4;
  /// At most f entries; adversary k occupies node id n-1-k.
  std::vector<AdversaryKind> adversaries;
  /// Checkpoint every N decided elements in every correct replica
  /// (0 = disabled). Exercises the accumulator-committed GC paths
  /// (src/checkpoint/) under the same fault cocktail as everything else.
  std::size_t checkpoint_interval = 0;
  /// Adds a crash window on replica 0 (always correct — adversaries sit
  /// at the top ids) spanning most of the run, so it must catch up from a
  /// peer snapshot whose elements re-derive the root, rather than
  /// replaying full history.
  /// Only meaningful with checkpoint_interval > 0.
  bool laggard = false;
  FaultPlan plan;

  /// One-line `key=value;` encoding. parse(spec()) == *this.
  [[nodiscard]] std::string spec() const;
  [[nodiscard]] static std::optional<FuzzSchedule> parse(
      std::string_view spec);
};

/// Socket-runtime schedules use wall seconds; this is the factor applied
/// to the generator's abstract time units (and inverted when shrink()
/// moves a socket schedule onto the simulator).
inline constexpr double kSocketTimeScale = 0.01;

/// Derives a full schedule from (seed, engine, net). Same triple, same
/// schedule — the rotating-seed CI job relies on this.
[[nodiscard]] FuzzSchedule generate_schedule(std::uint64_t seed,
                                             core::EngineKind engine,
                                             NetKind net);

struct FuzzResult {
  bool safety_ok = true;
  std::string violation;      // empty iff safety_ok
  bool clients_done = false;  // liveness, informational
  std::uint64_t injected_faults = 0;
  std::uint64_t commands_failed = 0;  // client retry budgets exhausted
};

/// Builds and runs one schedule (recovery + retransmission enabled),
/// then applies the safety checks described above.
[[nodiscard]] FuzzResult run_schedule(const FuzzSchedule& schedule);

struct ShrinkOutcome {
  FuzzSchedule schedule;  // minimal still-violating schedule found
  std::string violation;  // its violation message
  std::size_t runs = 0;   // run_schedule invocations spent
};

/// Greedy minimization of a violating schedule, bounded by `max_runs`
/// re-executions. The input schedule must currently violate safety.
[[nodiscard]] ShrinkOutcome shrink(const FuzzSchedule& failing,
                                   std::size_t max_runs = 64);

/// The deterministic one-line repro for a schedule.
[[nodiscard]] std::string repro_command(const FuzzSchedule& schedule);

}  // namespace bla::fault
