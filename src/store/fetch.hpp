#pragma once
// Pull protocol for missing bodies: kFetchBody / kBodyReply.
//
// When a frame references a digest the local BodyStore cannot resolve,
// the owning process parks a replay thunk here and the fetcher pulls the
// body from peers:
//
//  * single-flight — at most one outstanding request per digest, no
//    matter how many frames reference it;
//  * retry-with-rotation — a garbage or not-found reply advances to the
//    next candidate peer (hinted providers first — the frame sender, the
//    RBC echoers — then every other peer once); replies are validated by
//    re-hashing, so a Byzantine provider can cost one round-trip but
//    never plant a wrong body;
//  * pending-delivery queue — thunks fire (in park order) once every
//    digest they wait on is resolved, which is how RBC delivery and
//    engine frame processing resume exactly once bodies arrive.
//
// Termination: rotation visits each candidate at most once per arming.
// If every peer answers not-found the fetch goes dormant (exhausted)
// until a *new* frame references the digest re-arms the rotation, or the
// owner's recovery tick calls retry_exhausted() — a *bounded* re-arm
// (max_auto_rearms per digest) for fetches some parked thunk still
// needs, so a transiently-unavailable quorum (message loss, a crashed
// provider) cannot park a delivery forever. Both paths keep
// unsatisfiable Byzantine references from ping-ponging forever (the
// simulator must quiesce) while real bodies — held by at least f+1
// correct processes before any honest reference circulates — are found
// within one rotation.
//
// The protocol is runtime-agnostic: frames are ordinary point-to-point
// messages emitted through the injected SendFn, so the same code runs
// over SimNetwork and SocketNetwork.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/process.hpp"
#include "obs/registry.hpp"
#include "store/body_store.hpp"
#include "wire/wire.hpp"

namespace bla::store {

using net::NodeId;

/// Top-level message-type bytes of the pull protocol. They sit in the
/// transport range next to RBC's 1..3; core::MsgType documents the
/// allocation.
enum class MsgType : std::uint8_t { kFetchBody = 4, kBodyReply = 5 };

[[nodiscard]] constexpr bool is_store_type(std::uint8_t t) {
  return t == static_cast<std::uint8_t>(MsgType::kFetchBody) ||
         t == static_cast<std::uint8_t>(MsgType::kBodyReply);
}

class BodyFetcher {
public:
  struct Config {
    NodeId self = 0;
    std::size_t n = 0;  // rotation universe: peers [0, n)
    /// Replies with bodies above this cap are dropped as garbage; set to
    /// the owning layer's frame cap (rbc::kMaxPayloadBytes for RBC
    /// payload bodies, which subsumes lattice::kMaxValueBytes).
    std::size_t max_body_bytes = std::size_t{16} << 20;
    /// Outstanding requests kept per digest. The runtime has no timers,
    /// so rotation advances only on explicit failure replies — a silent
    /// provider would wedge a single outstanding request forever.
    /// Protocol owners set this to f+1: at most f peers can go silent,
    /// so at least one request always sits with a responsive peer whose
    /// replies keep the rotation moving. 1 is fine for trusted-peer or
    /// unit-test use.
    std::size_t fanout = 1;
    /// Per-digest budget of automatic re-arms via retry_exhausted().
    /// Bounds the extra traffic an unsatisfiable digest can ever cost.
    std::size_t max_auto_rearms = 4;
    /// Observability registry the fetcher registers its counters in
    /// (prefixed "node<self>/fetch/") and records trace events through.
    /// Created internally when null, so per-instance stats stay exact
    /// when nobody wires one up.
    std::shared_ptr<obs::Registry> registry;
  };

  /// Counter views over the registry — same field names and integral
  /// reads as the former plain-uint64 struct, so existing accessors and
  /// test assertions work unchanged.
  struct Stats {
    obs::Counter fetches_sent;      // kFetchBody frames emitted
    obs::Counter replies_served;    // kBodyReply frames answered
    obs::Counter bodies_fetched;    // digests resolved via the wire
    obs::Counter not_found_replies;
    obs::Counter garbage_replies;   // body failed the digest re-hash
    obs::Counter rotations;         // candidate advances after failure
    obs::Counter exhausted;         // rotations that ran out of peers
    obs::Counter dedup_hits;        // await() joins an in-flight fetch
    obs::Counter parked;            // thunks parked awaiting bodies
    obs::Counter parked_dropped;    // parked-queue cap overflow
    obs::Counter rearms;            // bounded retry-after-exhaustion passes
  };

  using SendFn = std::function<void(NodeId to, wire::Bytes payload)>;

  BodyFetcher(Config config, std::shared_ptr<BodyStore> store, SendFn send);

  /// Parks `replay` until every digest in `missing` is locally resolvable,
  /// pulling absent bodies from `hints` first, then every other peer.
  /// Runs `replay` immediately if nothing is actually missing anymore.
  /// Under Byzantine load the queues shed: the oldest parked thunk is
  /// evicted when the queue is full, and a thunk whose digests cannot
  /// even be tracked (fetch-state cap) is dropped — both counted in
  /// parked_dropped. `critical` parks bypass the caps entirely: callers
  /// use it for work whose volume is already bounded elsewhere (RBC
  /// deliveries are capped by Bracha's per-origin instance accounting),
  /// so losing one would break a protocol guarantee rather than degrade
  /// gracefully.
  void await(const std::vector<Digest>& missing,
             const std::vector<NodeId>& hints, std::function<void()> replay,
             bool critical = false);

  /// Consumes kFetchBody / kBodyReply frames. Returns false for any other
  /// type so the caller can dispatch elsewhere. Malformed frames are
  /// dropped (Byzantine senders).
  bool handle(NodeId from, std::uint8_t type, wire::Decoder& dec);

  /// Re-checks parked thunks against the store and fires any whose bodies
  /// arrived by other means (e.g. inline in a later frame). Called
  /// internally on every await/handle; owners may call it after putting
  /// bodies directly.
  void sweep();

  /// Bounded recovery pass: restarts the rotation of every dormant
  /// (exhausted) fetch that a parked thunk still waits on, at most
  /// Config::max_auto_rearms times per digest. Owners call this from
  /// their recovery tick. Returns the number of fetches re-armed.
  std::size_t retry_exhausted();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] BodyStore& store() { return *store_; }
  /// True iff a fetch for this digest is tracked (outstanding or
  /// dormant). Lets owners recognize an arriving body as one somebody is
  /// waiting for.
  [[nodiscard]] bool awaiting(const Digest& d) const {
    return fetches_.contains(d);
  }

private:
  struct FetchState {
    std::vector<NodeId> candidates;  // rotation order, deduped, no self
    std::size_t next = 0;            // next candidate index
    std::set<NodeId> outstanding;    // peers with an unanswered request
    std::size_t auto_rearms = 0;     // retry_exhausted() budget used
  };

  struct Pending {
    std::set<Digest> missing;
    std::function<void()> replay;
  };

  /// Returns false when the fetch-state cap prevents engaging the
  /// digest (the caller must not park a thunk that nothing will wake).
  bool arm(const Digest& digest, const std::vector<NodeId>& hints,
           bool critical);
  void add_candidates(FetchState& state, const std::vector<NodeId>& hints);
  void pump(const Digest& digest, FetchState& state);
  void resolve(const Digest& digest);
  void on_fetch(NodeId from, wire::Decoder& dec);
  void on_reply(NodeId from, wire::Decoder& dec);

  Config config_;
  std::shared_ptr<BodyStore> store_;
  SendFn send_;
  std::shared_ptr<obs::Registry> registry_;
  std::map<Digest, FetchState> fetches_;
  std::deque<Pending> pending_;
  Stats stats_;
};

}  // namespace bla::store
