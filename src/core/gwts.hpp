#pragma once
// GWTS — Generalized Wait Till Safe (paper §6, Algorithms 3 and 4).
//
// Generalized Byzantine Lattice Agreement: inputs arrive as an (in
// principle infinite) stream, are batched per decision round, and every
// correct process emits a non-decreasing chain of decisions that is
// comparable across processes.
//
// Each round replays the WTS two-phase structure — reliable-broadcast
// disclosure of the round's batch, then quorum-acked proposal refinement —
// with two additions that defuse round-based Byzantine attacks:
//
//  * Acceptor round gating (`Safe_r`): an acceptor serves requests for
//    round r only once it trusts r, and it trusts r only after observing a
//    quorum-committed proposal of round r−1 ("legitimate end", Def. 3-5).
//    A Byzantine proposer pretending to have decided cannot drag acceptors
//    into future rounds, so it cannot clog correct proposals with
//    never-ending nacks (Lemma 7/10).
//
//  * Reliably broadcast acks: acceptances are public. Any correct
//    proposer may decide *any* proposal committed in its current round
//    (provided its previous decision is contained — Local Stability),
//    which is what lets processes lagging behind a committed round catch
//    up and keeps the decision sequence live (Lemma 8).
//
// The scaffold shared with GSbS — EngineConfig, the decision chain,
// store / registry / checkpoint plumbing, the stall timer and the rule
// that starts rounds only on demand — is core::EngineBase; this class
// holds the protocol. A replica with nothing to disclose idles and joins
// a round once a peer's disclosure for it is delivered (within the limit
// the base puts on disclosures that carry nothing new). With digest_refs,
// Bracha ECHO/READY carry payload digests and ack/proposal value sets
// ship 32-byte references (disclosures stay inline). Checkpointing
// additionally compacts ack-req/ack/nack value sets to [root]+delta
// frames and expires old Bracha instances.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "core/common.hpp"
#include "core/engine.hpp"
#include "net/process.hpp"
#include "rbc/bracha.hpp"
#include "store/ref.hpp"

namespace bla::core {

class GwtsProcess : public EngineBase {
public:
  /// `max_payload_bytes` is the effective RBC frame cap (tests scale it
  /// down to exercise the over-cap compact-to-checkpoint retry without
  /// 16MB frames).
  explicit GwtsProcess(EngineConfig config, DecideFn on_decide = nullptr,
                       std::shared_ptr<store::BodyStore> store = nullptr,
                       std::size_t max_payload_bytes = rbc::kMaxPayloadBytes);

  [[nodiscard]] std::uint64_t safe_round() const { return safe_r_; }

private:
  enum class State { kIdle, kDisclosing, kProposing, kStopped };

  // Disclosure tags are round numbers; ack broadcasts get a disjoint tag
  // space so one Bracha instance never aliases another.
  static constexpr std::uint64_t kAckTagBase = std::uint64_t{1} << 62;

  // Quorum tallies for reliably broadcast acks are keyed by (set, round).
  // The paper's ack tuple also carries (destination, ts); dropping them
  // from the tally key only *coarsens* the grouping — a quorum for
  // (set, round) is still ⌊(n+f)/2⌋+1 distinct acceptors that accepted
  // `set` in round `round`, so the Lemma 1 intersection argument is
  // untouched, while acceptors gain the right to publish one ack per
  // (set, round) whoever asks: Bracha Totality already hands it to every
  // correct proposer. That dedup is what keeps the §6.4
  // O(f·n²)-per-proposer bound: without it, n acceptors × n proposers ×
  // O(n²) RBC frames = O(n⁴) per round. Only a repeat from the same
  // asker re-publishes (see handle_ack_req).
  struct AckKey {
    std::vector<Value> set_elems;  // canonical (sorted) elements
    std::uint64_t round = 0;
    auto operator<=>(const AckKey&) const = default;
  };

  /// Acceptor-side record of one published ack (see handle_ack_req):
  /// each proposer whose ack-req it answered, with the fresh-tag
  /// re-publications that proposer's repeats drew.
  using AckPublished = std::map<NodeId, std::size_t>;

  struct PendingPoint {  // buffered point-to-point ack_req / nack
    NodeId from;
    MsgType type;
    ValueSet set;
    std::uint64_t ts = 0;
    std::uint64_t round = 0;
    /// safety_version_ at the last failed safe_at check — drain_waiting
    /// skips re-evaluation until a disclosure actually changed
    /// value_round_ (without this, every drain pass re-scans every
    /// parked cumulative set: quadratic once recovery parks hundreds).
    std::uint64_t checked_version = std::uint64_t(-1);
  };

  struct PendingAck {  // buffered reliably-broadcast ack
    NodeId acceptor;
    AckKey key;
    std::uint64_t checked_version = std::uint64_t(-1);  // as above
  };

  /// SAFE / SAFEA: every value of `set` was disclosed in a round ≤ `round`
  /// (the W_r = ∪_{r'≤r} SvS[r'] universe of the Non-Triviality proof).
  [[nodiscard]] bool safe_at(const ValueSet& set, std::uint64_t round) const;
  [[nodiscard]] bool safe_at(const std::vector<Value>& elems,
                             std::uint64_t round) const;

  // -- EngineBase hooks ---------------------------------------------------
  void start_round() override;
  [[nodiscard]] bool idle() const override { return state_ == State::kIdle; }
  /// Clause 2 over the proposed and accepted deltas (checkpoint-covered
  /// values are decided); clause 4 as a delivered disclosure for round_
  /// holding a value first disclosed in that round and not yet decided.
  [[nodiscard]] bool round_wanted() const override;
  /// Clause 5: a delivered disclosure for round_.
  [[nodiscard]] bool peer_opened() const override;
  bool handle_layer_frame(NodeId from, std::uint8_t type,
                          wire::Decoder& dec) override;
  /// Point-to-point ack-req / nack; also the replay target for frames
  /// parked on missing bodies or an unknown checkpoint root.
  void handle_frame(NodeId from, wire::BytesView frame) override;
  store::BodyFetcher& fetcher() override { return rbc_.fetcher(); }
  /// RBC vote-request anti-entropy, pull retries, discovery probes, then
  /// the disclosure or ack-req re-send.
  void on_stall() override;
  [[nodiscard]] std::uint64_t phase() const override {
    return static_cast<std::uint64_t>(state_);
  }
  /// Quorum-vouched snapshots merge into the decided chain — the laggard
  /// catch-up path.
  void on_snapshot_adopted(const checkpoint::Snapshot& snap,
                           bool quorum) override;

  /// Reliably broadcasts round_'s disclosure of `batch`; false if the
  /// RBC refused it (frame cap).
  bool broadcast_disclosure(const ValueSet& batch);
  /// Reliably broadcasts our acceptance of accepted_set_ in `round`
  /// under a fresh ack tag; false if the RBC refused it (frame cap).
  bool broadcast_ack(std::uint64_t round);
  void begin_proposing();
  void send_ack_req();
  void on_rbc_deliver(NodeId origin, std::uint64_t tag, wire::Bytes payload);
  void on_disclosure(NodeId origin, std::uint64_t round, wire::Bytes payload);
  /// `seq` is the ack-tag counter of the delivering Bracha instance
  /// (tag & ~kAckTagBase) — recorded in delivered_ack_rounds_ so the
  /// checkpoint GC can expire contiguous delivered prefixes.
  void on_broadcast_ack(NodeId acceptor, std::uint64_t seq,
                        wire::Bytes payload);
  /// Tallies a delivered ack; the quorum-th distinct acceptor commits
  /// the key (a duplicate changes nothing).
  void record_ack(NodeId acceptor, const AckKey& key);
  /// Alg. 4 accept-or-nack. An accepted (set, round) is published once;
  /// with recovery on, a repeated ack-req from an asker it already
  /// answered re-publishes it under a fresh tag, at most max_reacks
  /// times per key and asker.
  void handle_ack_req(const PendingPoint& msg);
  void handle_nack(const PendingPoint& msg);
  void drain_waiting();
  void check_decide();
  // -- checkpoint integration ----------------------------------------------
  /// proposed_set_ / accepted_set_ are stored as DELTAS relative to the
  /// own latest checkpoint (the frames ship [root]+delta, and retaining
  /// the cumulative sets would keep every evicted body alive in engine
  /// state). These helpers convert between the two representations.
  [[nodiscard]] ValueSet expand(const ValueSet& delta) const;
  [[nodiscard]] ValueSet delta_of(const ValueSet& full) const;
  /// Collapses downstream state after a new own checkpoint: re-deltas
  /// proposed/accepted, prunes value_round_ entries and ack bookkeeping
  /// the checkpoint now answers for, and expires Bracha instances ≥ 2
  /// rounds behind it.
  void compact_state();
  /// Anti-entropy discovery (recovery only): kVoteReq probes for RBC
  /// instances whose every frame fell inside a partition / crash window
  /// — invisible to retry_undelivered, but nameable because disclosure
  /// tags are rounds and ack tags a per-origin counter. Recovered
  /// disclosures + acks rebuild the missed rounds' commits, which the
  /// normal decide path then replays in order.
  void probe_missed_instances();

  // Shares the base's store (its digest frames and our value references
  // resolve against the same bodies) and registry.
  rbc::BrachaRbc rbc_;
  obs::Counter obs_broadcast_rejected_;  // warning: RBC refused our frame
  obs::Counter obs_compact_retries_;  // over-cap frames rescued by a
                                      // forced checkpoint + re-encode
  obs::Counter obs_commits_;  // (set, round) keys that reached a quorum
  obs::Gauge obs_accepted_delta_;  // acceptor delta cardinality
  obs::Gauge obs_proposed_delta_;  // proposer delta cardinality

  // Proposer state (Alg. 3). The decided set (base) is always full.
  State state_ = State::kIdle;
  std::uint64_t ts_ = 0;
  ValueSet proposed_set_;  // DELTA vs own checkpoint (see expand())

  // Safe-value bookkeeping: min round at which each value was disclosed,
  // plus per-round disclosure counters. safety_version_ bumps whenever
  // value_round_ gains an entry or lowers one — i.e. whenever a parked
  // safe_at verdict could flip (see PendingPoint::checked_version).
  std::map<Value, std::uint64_t> value_round_;
  std::map<std::uint64_t, std::size_t> disclosure_counter_;
  std::uint64_t safety_version_ = 0;

  // Shared ack history (proposer decides from it; acceptor advances
  // Safe_r from it).
  std::map<AckKey, std::set<NodeId>> ack_history_;
  std::map<std::uint64_t, std::vector<AckKey>> committed_by_round_;
  std::set<std::uint64_t> rounds_with_commit_;

  // Acceptor state (Alg. 4).
  ValueSet accepted_set_;  // DELTA vs own checkpoint (see expand())
  std::uint64_t safe_r_ = 0;
  std::uint64_t ack_tag_counter_ = 0;
  std::map<AckKey, AckPublished> acks_published_;

  // Recovery state (unused unless config_.recovery.enabled).
  // Discovery-probe bookkeeping (probe_missed_instances): the highest
  // round observed in any peer frame, the highest ack-tag counter seen
  // delivered per origin, and a monotone per-origin probe cursor over
  // the ack tag space.
  std::uint64_t max_seen_round_ = 0;
  std::map<NodeId, std::uint64_t> max_ack_seq_seen_;
  std::map<NodeId, std::uint64_t> ack_probe_cursor_;
  /// Rounds of delivered ack broadcasts, per origin and ack-tag seq —
  /// what lets compact_state translate "rounds behind the checkpoint"
  /// into a contiguous ack-tag floor for rbc_.expire_below. Pruned below
  /// the floor at each checkpoint, so it holds inter-checkpoint churn.
  std::map<NodeId, std::map<std::uint64_t, std::uint64_t>>
      delivered_ack_rounds_;
  /// First not-yet-expired ack seq per origin (the contiguous prefix
  /// below it has been handed to rbc_.expire_below).
  std::map<NodeId, std::uint64_t> ack_expired_floor_;

  std::deque<PendingPoint> waiting_point_;
  std::deque<PendingAck> waiting_acks_;
  bool draining_ = false;  // drain_waiting re-entrancy guard
};

}  // namespace bla::core
