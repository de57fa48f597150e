#pragma once
// Shared protocol vocabulary: quorum arithmetic, top-level message-type
// bytes, and the wire schemas common to the agreement engines.

#include <cstdint>

#include "lattice/value.hpp"
#include "net/process.hpp"
#include "wire/wire.hpp"

namespace bla::core {

using lattice::Value;
using lattice::ValueSet;
using net::NodeId;

/// Byzantine quorum: any two quorums intersect in at least one correct
/// process, and the n−f correct processes alone form a quorum when
/// n ≥ 3f+1. This is the ⌊(n+f)/2⌋+1 of Algorithms 1–4 and 8–9.
[[nodiscard]] constexpr std::size_t byz_quorum(std::size_t n, std::size_t f) {
  return (n + f) / 2 + 1;
}

/// Disclosure-phase threshold: proceed after n−f disclosures (waiting for
/// more could block forever; waiting for fewer would cost extra
/// refinements — see the A1 ablation bench).
[[nodiscard]] constexpr std::size_t disclosure_threshold(std::size_t n,
                                                         std::size_t f) {
  return n - f;
}

/// Largest f such that n ≥ 3f+1 (Theorem 1). Guarded for n == 0: the
/// unsigned subtraction (n - 1) would otherwise wrap to SIZE_MAX and
/// report ~6·10¹⁷ tolerable faults for an empty system.
[[nodiscard]] constexpr std::size_t max_faulty(std::size_t n) {
  return n == 0 ? 0 : (n - 1) / 3;
}

static_assert(max_faulty(0) == 0);
static_assert(max_faulty(1) == 0);
static_assert(max_faulty(3) == 0);
static_assert(max_faulty(4) == 1);
static_assert(max_faulty(7) == 2);
static_assert(max_faulty(10) == 3);

/// Opt-in recovery for lossy links (the src/fault injection layer and
/// the socket runtime: replicad, SocketCluster and the fuzzer's socket
/// schedules all turn it on). When enabled, an engine arms a periodic
/// timer while something is pending (a started round, or an idle engine
/// that f+1 peers show to be behind) and, after `stall_after` time
/// units without protocol progress, re-sends its current phase frame or
/// joins the round it idles at, runs Bracha vote-request anti-entropy,
/// and re-arms dormant body fetches. An idle engine is healthy: its
/// timer stops, so a simulation still quiesces. Default OFF: on the
/// reliable in-process runtimes recovery is pure overhead, and
/// resilience tests deliberately run *to quiescence* with no decision —
/// a timer re-arming while a wedged round stays open would keep the
/// simulator alive until max_resends. Recovery never changes what may
/// be decided (every re-send is idempotent at receivers); it only
/// re-offers lost frames, so §3's reliable-link safety arguments are
/// untouched.
struct RecoveryConfig {
  bool enabled = false;
  /// Timer period (time units of the hosting runtime's now()).
  double tick = 8.0;
  /// Re-send only after this long without observed progress.
  double stall_after = 16.0;
  /// Lifetime cap on stall-triggered re-sends (per engine).
  std::size_t max_resends = 256;
  /// GWTS acceptor: cap on fresh-tag ack re-broadcasts per (set, round)
  /// and repeating asker.
  std::size_t max_reacks = 8;
};

/// Top-level message-type bytes. The first byte of every frame; RBC owns
/// 1..3 plus the anti-entropy vote request 6 (see rbc/bracha.hpp) and
/// the body-pull protocol owns 4..5 (kFetchBody/kBodyReply, see
/// store/fetch.hpp).
enum class MsgType : std::uint8_t {
  // Payload types carried *inside* RBC deliveries.
  kDisclosure = 20,    // WTS/GWTS value disclosure
  kGwtsAck = 21,       // GWTS reliably-broadcast ack

  // Point-to-point deciding-phase messages (WTS, GWTS, baseline).
  kAckReq = 10,
  kAck = 11,
  kNack = 12,

  // SbS (signature-based, §8).
  kSbsInit = 30,
  kSbsSafeReq = 31,
  kSbsSafeAck = 32,
  kSbsAckReq = 33,
  kSbsAck = 34,
  kSbsNack = 35,

  // GSbS (generalized signature-based, §8.2).
  kGsbsDecided = 40,
  kGsbsInit = 41,
  kGsbsSafeReq = 42,
  kGsbsSafeAck = 43,
  kGsbsAckReq = 44,
  kGsbsAck = 45,
  kGsbsNack = 46,

  // RSM client <-> replica traffic (§7).
  kRsmNewValue = 50,
  kRsmDecide = 51,
  kRsmConfReq = 52,
  kRsmConfRep = 53,
  // Batched submission path (src/batch/): one SignedCommandBatch frame
  // carrying many commands under a single signature.
  kRsmNewBatch = 54,
  // Decide notification as a set of SHA-256 element digests instead of
  // full values — cumulative decided state otherwise re-ships every
  // command to every client on every decision. Opt-in per replica
  // (BatchClient matches digests; the plain RsmClient needs values).
  kRsmDecideDigest = 55,

  // 60..61 are the checkpoint snapshot catch-up protocol
  // (checkpoint::MsgType — kCkptPull / kCkptSnapshot, see
  // src/checkpoint/checkpoint.hpp). Listed here only to reserve the
  // range; the checkpoint manager defines and handles them.
};

}  // namespace bla::core
