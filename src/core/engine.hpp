#pragma once
// Pluggable generalized-agreement engine interface.
//
// GWTS (§6) and GSbS (§8.2) solve the same problem — Generalized
// Byzantine Lattice Agreement over a stream of submitted values — with
// different message/crypto trade-offs. Everything layered on top (the
// RSM replica, the batched proposal pipeline, benches) only needs the
// shared contract: submit values, observe a non-decreasing chain of
// decisions, and test whether a set is quorum-committed (the Alg. 7
// confirmation predicate). This interface lets those layers switch
// engines per deployment instead of hard-wiring GWTS. Both engines share
// one config (EngineConfig) and one scaffold (EngineBase).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "core/common.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "net/process.hpp"
#include "obs/registry.hpp"
#include "store/body_store.hpp"
#include "store/fetch.hpp"
#include "store/ref.hpp"

namespace bla::core {

/// One emitted decision of the engine's non-decreasing chain.
struct Decision {
  ValueSet set;
  std::uint64_t round = 0;
  double time = 0.0;
};

class IAgreementEngine : public net::IProcess {
public:
  using DecideFn = std::function<void(const Decision&)>;

  /// The paper's new_value(v): enqueue for the next round's batch, or
  /// for the round an idle engine waits at, which it then starts. This
  /// form is for use before on_start or inside the engine's own upcalls
  /// (a decide callback); after start, anywhere else, it throws
  /// std::logic_error, since an idle engine could not start the round.
  virtual void submit(Value value) = 0;
  /// The same from the caller's own upcall after start (the RSM replica
  /// forwarding a client's value): an idle engine starts round_ from a
  /// zero-delay timer on `ctx`, so that the values arriving in the same
  /// instant join that round's batch.
  virtual void submit(Value value, net::IContext& ctx) = 0;

  [[nodiscard]] virtual const ValueSet& decided_set() const = 0;
  [[nodiscard]] virtual const std::vector<Decision>& decisions() const = 0;

  /// True iff `set` is provably accepted by a Byzantine quorum — the test
  /// the RSM confirmation plug-in (Alg. 7) performs before acknowledging
  /// a client's read. GWTS answers from its reliably broadcast ack
  /// history; GSbS from the `decided` certificates it has seen.
  [[nodiscard]] virtual bool is_committed(const ValueSet& set) const = 0;
  /// How many distinct sets the engine holds commit evidence for. It only
  /// grows, so a caller re-tests is_committed only after it changed.
  [[nodiscard]] virtual std::size_t committed_count() const = 0;

  /// The engine's checkpoint manager, when checkpointing is enabled
  /// (EngineConfig::checkpoint_interval > 0); null otherwise. Exposed so
  /// the soak/fuzz harnesses can assert on checkpoint progress and
  /// laggard adoption without widening the engine contract.
  [[nodiscard]] virtual const checkpoint::CheckpointManager* checkpoints()
      const {
    return nullptr;
  }
};

enum class EngineKind : std::uint8_t { kGwts, kGsbs };

/// Content key of a set of values: a hash of hashes,
/// SHA-256(uvarint(k) ‖ digest(e_1) ‖ … ‖ digest(e_k)) over the sorted
/// elements, each element digest from `store` (hashed once per replica).
/// Sets here are *cumulative* or re-shown many times, so keying on full
/// element copies or on a hash of the full encoding costs
/// O(total-state-bytes) per use; this costs O(k) lookups and 32·k hashed
/// bytes and binds the content as tightly: two sets with one key differ
/// only through a SHA-256 collision. Commit evidence keys on it, and every
/// GSbS signature covers batches through it.
[[nodiscard]] crypto::Sha256::Digest content_key(
    std::span<const Value> sorted_elems, const store::BodyStore& store);

/// The one configuration of both generalized engines (and, through
/// rsm::ReplicaConfig, of the replica hosting one).
struct EngineConfig {
  NodeId self = 0;
  std::size_t n = 0;
  std::size_t f = 0;
  /// Stop starting new rounds after this many (0 = unbounded). Processes
  /// keep serving as acceptors after exhausting the budget so peers still
  /// make progress. Rounds start only on demand (EngineBase), so a
  /// simulation quiesces without a budget too.
  std::uint64_t max_rounds = 0;
  /// Digest-only dissemination (see src/store/): protocol frames carry
  /// 32-byte body references and missing bodies are pulled on demand;
  /// first-contact frames (GWTS disclosures, GSbS INIT batches) stay
  /// inline. false = full-frame dissemination (the bytes/command bench
  /// baseline).
  bool digest_refs = true;
  /// Observability registry shared down through the RBC / fetcher;
  /// engine counters register as "node<self>/<gwts|gsbs>/*". A null
  /// registry is replaced by a private one (obs::registry_or_private).
  std::shared_ptr<obs::Registry> registry;
  /// Opt-in lossy-link recovery (see core::RecoveryConfig). Default off.
  RecoveryConfig recovery;
  /// Checkpoint + unified GC (src/checkpoint/): commit the decided set
  /// each time it grows this many elements, then collapse downstream
  /// state (store eviction, round-indexed pruning; for GWTS also
  /// [root]+delta frames and Bracha epoch expiry). 0 = disabled.
  std::size_t checkpoint_interval = 0;
};

/// What GWTS (§6) and GSbS (§8.2) do identically: the decision chain and
/// its observers, value batching, the body store / registry / checkpoint
/// plumbing, the on_message prologue, the stall-recovery timer, and the
/// one rule that starts rounds. The engines supply the protocol through
/// the hooks below.
///
/// Rounds start on demand (Alg. 3 never needs an empty round: a round
/// waits for n−f disclosures, and a replica with nothing to disclose
/// joins when it first sees a peer's). After each decision, and after
/// every upcall while idle, round_ starts only if
///   1. there is a local batch for it (submit);
///   2. a value this replica proposed or accepted is not yet decided;
///   3. the round just decided grew the decided set — this keeps a loaded
///      pipeline in lock-step, since clients send each batch to only f+1
///      replicas and the others would otherwise join each round late;
///   4. a peer's first frame of round_ (a delivered GWTS disclosure, a
///      valid GSbS INIT) carries a value not yet decided here; or
///   5. a peer's first frame of round_ arrived at all, unless the
///      previous round started on this clause alone.
/// Otherwise the engine idles at round_. Clause 5 lets a replica that
/// started a round with nothing to disclose (by clause 2 or 3, say after
/// deciding one round later than its peers) draw them in, and clause 4
/// is never limited. The limit on clause 5 keeps one Byzantine peer from
/// driving correct replicas through round after round that carries
/// nothing: each such round needs a round started by demand before it,
/// and demand is a value, which grows the decided set towards the next
/// checkpoint (the only thing that expires RBC instances). A frame naming
/// a *later* round starts nothing: frames from f+1 distinct peers beyond
/// round_ only mark the engine as behind, which keeps the recovery timer
/// armed; a stall pass of an idle engine that is behind joins round_, so
/// its own first frame draws the peers' catch-up replies. One Byzantine
/// peer naming round 2^62 therefore costs nothing.
class EngineBase : public IAgreementEngine {
public:
  using Decision = core::Decision;

  EngineBase(const EngineBase&) = delete;
  EngineBase& operator=(const EngineBase&) = delete;

  /// The paper's new_value(v) event (Alg. 3 lines 8-9): values received
  /// during round r join Batch[r+1]; an idle engine's value joins
  /// Batch[round_] (before the first round, Batch[0]) and starts it, at
  /// the end of the engine's own upcall or from a zero-delay timer (token
  /// 1; the recovery tick is token 0) on `ctx`.
  void submit(Value value) final;
  void submit(Value value, net::IContext& ctx) final;

  void on_start(net::IContext& ctx) final;
  /// Routes dissemination-layer frames (RBC / body pulls), then
  /// checkpoint frames, then the engine's own; malformed frames drop.
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) final;
  /// Token 1 is submit's start hop, which applies the start rule. Token
  /// 0 is the recovery tick (config.recovery.enabled), armed only while
  /// something is pending: a started round, or an idle engine that is
  /// behind. An idle engine is healthy, so the chain ends when the engine
  /// goes idle.
  /// A stall is either no progress at all or a round clock that stopped
  /// while traffic still flows — the laggard case, where peers' new-round
  /// frames keep arriving but the local engine is wedged behind missed
  /// instances or lost bodies. Each stall pass re-offers exhausted body
  /// pulls and parked checkpoint roots, then lets the engine re-send its
  /// current phase frame (on_stall), or joins round_ if idle; at most
  /// recovery.max_resends passes per engine.
  void on_timer(net::IContext& ctx, std::uint64_t token) final;

  [[nodiscard]] const std::vector<Decision>& decisions() const final {
    return decisions_;
  }
  [[nodiscard]] const ValueSet& decided_set() const final {
    return decided_set_;
  }
  /// Commit-digest lookup over every set this engine has seen proven
  /// quorum-committed (the Alg. 7 confirmation predicate).
  [[nodiscard]] bool is_committed(const ValueSet& set) const final {
    return committed_sets_.contains(content_key(set.elements(), *store_));
  }
  [[nodiscard]] std::size_t committed_count() const final {
    return committed_sets_.size();
  }
  [[nodiscard]] const checkpoint::CheckpointManager* checkpoints()
      const final {
    return ckpt_.enabled() ? &ckpt_ : nullptr;
  }
  [[nodiscard]] std::uint64_t current_round() const { return round_; }
  [[nodiscard]] std::size_t refinement_count() const { return refinements_; }
  [[nodiscard]] const store::BodyStore& body_store() const { return *store_; }

protected:
  /// `name` is the counter namespace ("gwts" / "gsbs"); `known_safe` is
  /// the checkpoint manager's local-safety predicate (a snapshot made of
  /// such values adopts without a vouch quorum). A null `store` gets a
  /// private one.
  EngineBase(EngineConfig config, DecideFn on_decide,
             std::shared_ptr<store::BodyStore> store, const char* name,
             std::function<bool(const Value&)> known_safe);

  // -- engine hooks ----------------------------------------------------------
  /// Starts round_ (when the start rule holds; see the class comment).
  virtual void start_round() = 0;
  /// True while round_ has not started (the engine waits for demand).
  [[nodiscard]] virtual bool idle() const = 0;
  /// Start-rule clauses 2 and 4: a proposed or accepted value is not yet
  /// decided, or a peer's first frame of round_ carries an undecided one.
  [[nodiscard]] virtual bool round_wanted() const = 0;
  /// Start-rule clause 5: a peer's first frame of round_ arrived.
  [[nodiscard]] virtual bool peer_opened() const = 0;
  /// Offers a frame to the dissemination layer; true if consumed.
  virtual bool handle_layer_frame(NodeId from, std::uint8_t type,
                                  wire::Decoder& dec) = 0;
  /// An engine protocol frame (also the replay target of parked frames).
  virtual void handle_frame(NodeId from, wire::BytesView frame) = 0;
  virtual store::BodyFetcher& fetcher() = 0;
  /// Stall pass: retry_pulls() plus the engine's own re-sends of the
  /// current phase frame (idempotent at receivers).
  virtual void on_stall() = 0;
  /// Current phase, for the retry trace event.
  [[nodiscard]] virtual std::uint64_t phase() const = 0;
  /// Checkpoint adoption upcall (see checkpoint.hpp for the two-tier
  /// safety argument).
  virtual void on_snapshot_adopted(const checkpoint::Snapshot& snap,
                                   bool quorum) = 0;

  // -- shared steps ----------------------------------------------------------
  /// Counts and clocks a new round_; false once max_rounds is spent (the
  /// engine stops proposing, its acceptor role stays live).
  [[nodiscard]] bool begin_round();
  /// After a decision, with the engine already idle: moves to the next
  /// round and applies the start rule (`grew`: clause 3, which an engine
  /// also invokes when it knows itself left behind).
  void next_round(bool grew);
  /// A frame from `from` showed that peer in `round` as a proposer. Frames
  /// beyond round_ from f+1 distinct peers mark this engine as behind.
  void note_round(NodeId from, std::uint64_t round);
  /// Merges `set` into the decided set. Only growth is recorded, counted,
  /// traced and notified: a round may end with nothing new to decide,
  /// and each recorded decision copies the full cumulative set. Lost
  /// notifications are re-sent by the replica's already-decided fast
  /// path instead (rsm::RsmReplica::on_new_batch). Returns whether the
  /// decided set grew.
  bool record_decision(const ValueSet& set, std::uint64_t round);
  /// Records a quorum-committed set (canonical sorted elements) for
  /// is_committed.
  void record_committed(const std::vector<Value>& sorted_elems) {
    committed_sets_.insert(content_key(sorted_elems, *store_));
  }
  void count_refinement() {
    refinements_ += 1;
    obs_refinements_.inc();
  }
  /// The frame references bodies we do not hold: pulls them (the sender
  /// encoded the references, so it has the bodies — first hint) and
  /// replays the whole frame through handle_frame once they land.
  void park(NodeId from, const store::RefResolver& resolver,
            wire::BytesView frame);
  /// Re-offers body pulls that exhausted their hints while the link was
  /// lossy, and re-pulls checkpoint roots parked on a dead provider.
  void retry_pulls();
  /// Resets the stall clock. Only genuinely new information counts — a
  /// peer's stall-triggered re-send carrying nothing new must not
  /// suppress our own recovery, or two mutually wedged processes starve.
  void note_progress();

  EngineConfig config_;
  DecideFn on_decide_;
  net::IContext* ctx_ = nullptr;  // set for the duration of each upcall
  std::shared_ptr<store::BodyStore> store_;
  std::shared_ptr<obs::Registry> registry_;
  checkpoint::CheckpointManager ckpt_;  // sends through ctx_
  /// Round the latest own checkpoint was taken in (the GC floor).
  std::uint64_t ckpt_round_ = 0;
  obs::Counter obs_retries_;  // stall passes + GWTS ack re-broadcasts

  std::uint64_t round_ = 0;
  std::map<std::uint64_t, ValueSet> batches_;
  ValueSet decided_set_;
  std::vector<Decision> decisions_;

private:
  [[nodiscard]] bool rounds_exhausted() const {
    return config_.max_rounds != 0 && round_ >= config_.max_rounds;
  }
  /// The start rule for an idle round_ (see the class comment).
  void maybe_start(bool grew);
  /// f+1 distinct peers named a round beyond round_.
  [[nodiscard]] bool behind() const;
  /// The epilogue of every upcall: applies the start rule while idle, then
  /// arms the recovery timer if something became pending.
  void settle();

  std::size_t refinements_ = 0;
  // Content keys of quorum-committed sets (is_committed); they stay in
  // the process, never sent.
  std::set<crypto::Sha256::Digest> committed_sets_;
  obs::Counter obs_rounds_;
  obs::Counter obs_decisions_;
  obs::Counter obs_refinements_;

  bool started_ = false;        // on_start ran
  bool start_pending_ = false;  // submit's zero-delay start timer is armed
  // The round running or last run started on start-rule clause 5 alone.
  bool opened_by_peer_ = false;
  // Highest round each peer named as a proposer (note_round).
  std::vector<std::uint64_t> peer_rounds_;

  // Recovery state (unused unless config_.recovery.enabled).
  bool timer_armed_ = false;
  double last_progress_ = 0.0;
  double last_round_change_ = 0.0;  // when round_ last advanced
  std::size_t resends_ = 0;
};

/// Builds an engine. `signer` is required for kGsbs (its protocol signs
/// every batch and ack) and ignored for kGwts; passing a null signer with
/// kGsbs throws std::invalid_argument. A null `store` gets a private one;
/// the RSM replica passes its own (also holding the verify-once memo).
[[nodiscard]] std::unique_ptr<IAgreementEngine> make_engine(
    EngineKind kind, const EngineConfig& config,
    std::shared_ptr<const crypto::ISigner> signer,
    IAgreementEngine::DecideFn on_decide,
    std::shared_ptr<store::BodyStore> store = nullptr);

}  // namespace bla::core
