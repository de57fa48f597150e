#pragma once
// Checkpointing + unified GC (ISSUE 9 tentpole).
//
// A CheckpointManager snapshots a stable decided prefix — decided state
// is already agreed via the engines (GLA Comparability makes every
// correct replica's decided chain a prefix order), so each replica can
// commit its own decided set whenever it has grown `interval` elements
// past the last checkpoint. The root is a full-set commitment
// (checkpoint/accumulator.hpp) over the canonical (sorted) element
// digests, so replicas that reach the same decided set derive
// bit-identical roots no matter which intermediate decisions they
// observed.
//
// Once a checkpoint is taken, downstream state collapses:
//  * checkpointed value bodies are EVICTED from the BodyStore; the
//    snapshot re-serves them (and their digests, from the leaves the
//    commitment was built over) through the store's fallback hook, so
//    later references (local decodes, peer pulls, digest lookups) still
//    resolve without rehashing while the store's live map stays bounded;
//  * the engines compact their cumulative sets to [root] + delta
//    (encode_compact_set / decode_compact_set), so ack and safe-ack
//    frames stop growing with history;
//  * Bracha expires instances ≥ 2 rounds behind the checkpoint
//    (rbc::BrachaRbc::expire_below).
//
// Catch-up: a frame carrying an unknown root parks via await_root and
// the manager pulls the snapshot from the sender (kCkptPull →
// kCkptSnapshot: every element of the set). Only the asked peer's reply
// counts; the laggard hashes each element itself and keeps the snapshot
// only when those leaves re-derive the root. A verified snapshot is
// adopted either
//  (a) locally — every element already passes the owner's
//      `element_known` predicate (it was disclosed/decided here), so
//      expansion adds no new trust; or
//  (b) by vouch quorum — ≥ f+1 distinct peers referenced the root, so
//      at least one correct replica checkpointed it, which means every
//      element was decided at a correct replica. This is the laggard
//      path: the engine may merge such a snapshot straight into its
//      decided state instead of replaying history.
// A root that reaches neither bar stays parked; liveness then falls
// back to the pre-checkpoint recovery paths (anti-entropy + fetches).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "checkpoint/accumulator.hpp"
#include "lattice/value.hpp"
#include "net/process.hpp"
#include "obs/registry.hpp"
#include "store/body_store.hpp"
#include "store/ref.hpp"
#include "wire/wire.hpp"

namespace bla::checkpoint {

using lattice::Value;
using lattice::ValueSet;
using net::NodeId;
using Digest = crypto::Sha256::Digest;

/// Top-level message-type bytes of the snapshot catch-up protocol (the
/// 60+ range; core::MsgType documents the full allocation).
enum class MsgType : std::uint8_t { kCkptPull = 60, kCkptSnapshot = 61 };

[[nodiscard]] constexpr bool is_checkpoint_type(std::uint8_t t) {
  return t == static_cast<std::uint8_t>(MsgType::kCkptPull) ||
         t == static_cast<std::uint8_t>(MsgType::kCkptSnapshot);
}

/// One committed checkpoint: the commitment over the canonical element
/// digests plus the snapshot itself. seq 0 = "none yet".
struct Snapshot {
  std::uint64_t seq = 0;
  Digest root{};
  std::shared_ptr<const std::vector<Value>> elements;  // sorted, unique
  /// The committed leaves: leaves[i] = SHA-256 of elements[i].
  std::shared_ptr<const std::vector<Digest>> leaves;

  [[nodiscard]] std::size_t size() const {
    return elements ? elements->size() : 0;
  }
};

struct Config {
  NodeId self = 0;
  std::size_t n = 0;
  std::size_t f = 0;
  /// Take a checkpoint each time the decided set has grown this many
  /// elements past the last one. 0 = checkpointing disabled (every
  /// manager call degenerates to a no-op / plain passthrough codec).
  std::size_t interval = 0;
  std::shared_ptr<store::BodyStore> store;
  std::shared_ptr<obs::Registry> registry;
  /// Owner predicate: the value is already known-safe locally (e.g. it
  /// has a GWTS disclosure round). Snapshots whose every element passes
  /// adopt immediately, without a vouch quorum — pure expansion data.
  std::function<bool(const Value&)> element_known;
};

class CheckpointManager : private store::BodyStore::Fallback {
 public:
  using SendFn = std::function<void(NodeId, wire::Bytes)>;
  /// Adoption upcall. `quorum_vouched` distinguishes the laggard path
  /// (root referenced by ≥ f+1 distinct peers; the engine may
  /// merge the snapshot into decided state) from local verification
  /// (expansion-only).
  using AdoptFn = std::function<void(const Snapshot&, bool quorum_vouched)>;

  CheckpointManager(Config config, SendFn send, AdoptFn on_adopt = nullptr);
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  [[nodiscard]] bool enabled() const { return config_.interval > 0; }

  /// Engine hook, after every growing decision: commits a checkpoint
  /// when the decided set outgrew the interval. Returns true when a new
  /// checkpoint was taken (the caller then compacts its state).
  bool maybe_checkpoint(const ValueSet& decided);
  /// Unconditional checkpoint (the over-cap broadcast retry path).
  /// False when disabled or nothing new to commit.
  bool force_checkpoint(const ValueSet& decided);

  [[nodiscard]] const Snapshot& latest() const { return own_; }
  /// v is covered by the own latest checkpoint.
  [[nodiscard]] bool covered(const Value& v) const;
  /// v is covered by the own checkpoint or any adopted snapshot — the
  /// "pre-checkpoint = proof-backed" grant engines feed into their
  /// safety predicates.
  [[nodiscard]] bool covered_any(const Value& v) const;
  [[nodiscard]] bool knows_root(const Digest& root) const;

  // -- compact set codec ----------------------------------------------------
  // Wire layout: [flags u8][root 32B when flags&1][value set, ref codec].
  // With checkpointing disabled (or before the first checkpoint) flags
  // is 0 and the layout degenerates to the plain ref-codec set.

  void encode_compact_set(wire::Encoder& enc, const ValueSet& delta,
                          bool refs) const;

  struct CompactSet {
    ValueSet set;                // delta; expanded in place when possible
    std::optional<Digest> root;  // as carried on the wire
    bool expanded = false;       // root known and merged into `set`
  };
  /// Decodes a compact set, recording `from` as a voucher for any root
  /// it carries. When the root is unknown the caller must park the
  /// frame via await_root (the set is the bare delta until then).
  [[nodiscard]] CompactSet decode_compact_set(wire::Decoder& dec,
                                              store::RefResolver& resolver,
                                              NodeId from);

  /// Records `from` as referencing `root` (vouching input).
  void vouch(const Digest& root, NodeId from);
  /// Parks `replay` until `root` is adopted; pulls the snapshot from
  /// `hint` (then rotation peers). Replays fire, in park order, on
  /// adoption. Byzantine-proof: pending roots and parked replays are
  /// capped and shed oldest-first.
  void await_root(const Digest& root, NodeId hint,
                  std::function<void()> replay);

  /// Consumes kCkptPull / kCkptSnapshot. Returns false for any other
  /// type. Malformed frames are dropped (Byzantine senders).
  bool handle(NodeId from, std::uint8_t type, wire::Decoder& dec);

  /// Recovery tick: re-issues pulls for roots still pending (bounded
  /// per root). Returns the number of pulls sent.
  std::size_t retry_pending();

  // -- test/bench observability --------------------------------------------
  [[nodiscard]] std::uint64_t checkpoints_taken() const {
    return taken_.value();
  }
  [[nodiscard]] std::uint64_t snapshots_adopted() const {
    return adopted_count_.value();
  }
  [[nodiscard]] std::uint64_t bodies_evicted() const {
    return evicted_.value();
  }

 private:
  struct PendingRoot {
    std::set<NodeId> vouchers;
    std::vector<NodeId> candidates;  // pull rotation, deduped, no self
    std::size_t next = 0;            // next candidate to pull from
    std::set<NodeId> outstanding;    // peers with an unanswered pull
    std::vector<std::function<void()>> replays;
    std::optional<Snapshot> verified;  // pulled + commitment-checked
    bool known_safe = false;  // element_known passed for all elements
    std::size_t rearms = 0;
  };

  bool take(const ValueSet& decided, bool forced);
  void reindex();
  void add_candidates(PendingRoot& st, NodeId hint);
  void send_pull(const Digest& root, PendingRoot& st);
  void on_pull(NodeId from, wire::Decoder& dec);
  void on_snapshot(NodeId from, wire::Decoder& dec);
  void try_adopt(const Digest& root);
  void adopt(const Digest& root, Snapshot snap, bool quorum);
  [[nodiscard]] const Snapshot* find_root(const Digest& root) const;
  /// SHA-256 of a value about to become a leaf, through the store's
  /// content index and our own snapshots.
  [[nodiscard]] Digest leaf_digest(const Value& v) const;

  // -- store fallback: evicted bodies and their digests ---------------------
  [[nodiscard]] std::shared_ptr<const wire::Bytes> body(
      const Digest& d) const override;
  [[nodiscard]] std::optional<Digest> digest(
      wire::BytesView body) const override;

  Config config_;
  SendFn send_;
  AdoptFn on_adopt_;
  Snapshot own_;       // latest own checkpoint
  Snapshot previous_;  // one behind — peers may still reference it
  std::map<Digest, Snapshot> adopted_;  // foreign roots
  std::map<Digest, PendingRoot> pending_;
  /// Evicted-body re-serve index: element digest -> snapshot slot.
  std::map<Digest,
           std::pair<std::shared_ptr<const std::vector<Value>>, std::size_t>>
      body_index_;

  obs::Counter taken_;
  obs::Counter forced_;
  obs::Counter evicted_;
  obs::Counter reserved_;  // fallback body re-serves
  obs::Counter pulls_sent_;
  obs::Counter snapshots_served_;
  obs::Counter snapshot_rejects_;  // warning: bad root / malformed
  obs::Counter adopted_count_;
  obs::Counter adopted_quorum_;
  obs::Counter replays_parked_;
  obs::Counter replays_dropped_;  // warning: cap shedding
  obs::Counter rearms_;
  obs::Gauge elements_gauge_;     // own latest snapshot cardinality
  obs::Gauge store_bodies_gauge_;  // store live map size at checkpoint
};

}  // namespace bla::checkpoint
