#pragma once
// GSbS — Generalized Safety by Signature (paper §8.2).
//
// The paper sketches how to generalize SbS while keeping its message
// complexity: replace the reliable broadcast GWTS uses for acks with
// (1) *signed* point-to-point acks, so a proposer can prove to anyone
//     that its proposal was accepted by a quorum, and
// (2) a `decided` certificate — the proposal plus ⌊(n+f)/2⌋+1 signed
//     acks — broadcast before deciding, which replaces the "public
//     acceptance" role of the ack RBC: an acceptor trusts round r+1 once
//     it saw a well-formed certificate ending round r, and certificates
//     are piggybacked to lagging proposers on their round-r requests.
//
// This file is our concretization of that sketch. Per round, the value
// *disclosure* also runs SbS-style (signed batches + conflict-listing
// safe-acks) instead of Bracha RBC, keeping the whole round at O(f·n)
// messages per proposer. The Alg. 10 rules are core/signed_safety.hpp,
// shared with SbS; GsbsRules below is what GSbS adds. Equivocation is
// scoped per round: a conflict is two differently-valued batches signed
// by the same node *for the same round* (an honest proposer legitimately
// signs one batch per round), and a safe-ack vouches only for batches of
// its own round.
//
// The scaffold shared with GWTS — EngineConfig, the decision chain,
// store / registry / checkpoint plumbing, the stall timer and the rule
// that starts rounds only on demand — is core::EngineBase; this class
// holds the protocol. A replica with nothing to sign idles and joins a
// round once a valid peer INIT for it arrives (within the limit the base
// puts on INITs that carry nothing new). With digest_refs,
// safe-acks, proposals (with their proofs) and decided certificates
// carry 32-byte value references; INIT batches stay inline. Counters
// include sig_checks (real signature verifications), sig_cache_hits
// (checks answered by the store's verify-once memo) and conflicts_listed
// (equivocation pairs signed into safe-acks). Checkpointing evicts
// checkpointed bodies, prunes round-indexed collections and provides the
// snapshot laggard catch-up; ack-req frames advertise the sender's root
// so vouchers accumulate.
//
// Hash-then-sign: no signature or digest covers an encoding of values.
// A batch enters every signed message, the proposal digest and the
// certificate replay guard as (signer, round, content key), the key
// being core::content_key — SHA-256(uvarint(k) ‖ digest(e_1) ‖ … ‖
// digest(e_k)) with element digests from the body store's content index,
// computed once per batch (BatchKeys). A re-shown batch therefore costs
// a lookup and ~100 hashed bytes per check, not a re-encode and re-hash
// of its bodies, and a verify-once memo hit stays exactly as strong as a
// fresh verification. Because signatures bind 32-byte keys rather than
// transport bytes, a signed root + delta proposal could carry the same
// evidence; today the proposal/accepted maps still travel in full, so
// [root]+delta frame compaction is GWTS-only.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "core/common.hpp"
#include "core/engine.hpp"
#include "core/signed_safety.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "net/process.hpp"
#include "store/fetch.hpp"
#include "store/ref.hpp"

namespace bla::core {

/// A proposer's batch for one round, bound to its author and round by a
/// signature over batch_signing_bytes.
struct SignedBatch {
  NodeId signer = 0;
  std::uint64_t round = 0;
  ValueSet batch;
  wire::Bytes signature;

  /// Identity for set membership: signature bytes are evidence, and the
  /// batch content is pinned by (signer, round) once conflict-free.
  [[nodiscard]] std::tuple<NodeId, std::uint64_t, const std::vector<Value>&>
  key() const {
    return {signer, round, batch.elements()};
  }
  friend bool operator==(const SignedBatch& a, const SignedBatch& b) {
    return a.key() == b.key();
  }
  friend bool operator<(const SignedBatch& a, const SignedBatch& b) {
    return a.key() < b.key();
  }
};

/// Signed acceptor response of a round's safetying phase.
struct BatchSafeAck {
  NodeId acceptor = 0;
  std::uint64_t round = 0;
  std::vector<SignedBatch> received;
  std::vector<std::pair<SignedBatch, SignedBatch>> conflicts;
  wire::Bytes signature;
};

/// A batch with its proof of safety.
using ProvenBatch = Proven<SignedBatch, BatchSafeAck>;

/// Signed acceptance of a proposal (digest-based).
struct SignedAck {
  NodeId acceptor = 0;
  crypto::Sha256::Digest digest{};
  std::uint64_t ts = 0;
  std::uint64_t round = 0;
  wire::Bytes signature;
};

/// The §8.2 `decided` certificate: proof that a round legitimately ended.
struct DecidedCert {
  std::uint64_t round = 0;
  std::uint64_t ts = 0;
  std::vector<ProvenBatch> proposal;
  std::vector<SignedAck> acks;
};

/// What a proposer signs for its round batch:
/// "gsbs-batch" ‖ u32 signer ‖ u64 round ‖ `key`, the batch's content key
/// (core::content_key of its values).
[[nodiscard]] wire::Bytes batch_signing_bytes(
    const SignedBatch& sb, const crypto::Sha256::Digest& key);

/// Content keys of signed batches, memoised by (signer, round, values):
/// a batch re-shown in every later cumulative proposal, proof and
/// certificate costs one lookup, not k element digests (each a hash when
/// the body is too small for the store). The key is a pure function of
/// the values, so a memo answer is exactly what a fresh computation
/// gives. Bounded: cleared on overflow.
class BatchKeys {
public:
  explicit BatchKeys(const store::BodyStore& store) : store_(store) {}
  [[nodiscard]] crypto::Sha256::Digest operator()(const SignedBatch& sb);

private:
  const store::BodyStore& store_;
  std::map<SignedBatch, crypto::Sha256::Digest> keys_;
};

/// GSbS's side of the signed-safety core: round-scoped items and acks,
/// content-key signing bytes, and signature checks through the store's
/// verify-once memo.
struct GsbsRules {
  using Item = SignedBatch;
  using Ack = BatchSafeAck;

  const crypto::ISigner* signer = nullptr;
  store::BodyStore* store = nullptr;
  BatchKeys* keys = nullptr;
  const obs::Counter* sig_checks = nullptr;      // memo misses
  const obs::Counter* sig_cache_hits = nullptr;  // memo answers

  static std::uint64_t round(const SignedBatch& sb) { return sb.round; }
  static std::uint64_t round(const BatchSafeAck& ack) { return ack.round; }
  [[nodiscard]] wire::Bytes item_bytes(const SignedBatch& sb) const {
    return batch_signing_bytes(sb, (*keys)(sb));
  }
  /// "gsbs-safe-ack" ‖ u32 acceptor ‖ u64 round ‖ the received and
  /// conflicting batches as (signer, round, content key).
  [[nodiscard]] wire::Bytes ack_bytes(const BatchSafeAck& ack) const;
  /// Every signature check of the engine, counted as a real check or a
  /// memo hit. `message` is always content-key signing bytes, so short.
  [[nodiscard]] bool check(NodeId signer_id, wire::BytesView message,
                           wire::BytesView signature) const;
};

class GsbsProcess : public EngineBase {
public:
  GsbsProcess(EngineConfig config,
              std::shared_ptr<const crypto::ISigner> signer,
              DecideFn on_decide = nullptr,
              std::shared_ptr<store::BodyStore> store = nullptr);

  [[nodiscard]] std::uint64_t trusted_round() const { return safe_r_; }

private:
  enum class State { kIdle, kInit, kSafetying, kProposing, kStopped };

  using ProposalMap = ProvenMap<SignedBatch, BatchSafeAck>;

  // -- signing bytes and digests, over content keys (see the header
  // note), never value encodings ----------------------------------------
  [[nodiscard]] wire::Bytes ack_signing_bytes(const SignedAck& ack) const;
  [[nodiscard]] crypto::Sha256::Digest proposal_digest(
      const ProposalMap& proposal) const;
  [[nodiscard]] bool verify_cert(const DecidedCert& cert) const;

  // -- EngineBase hooks ---------------------------------------------------
  void start_round() override;
  [[nodiscard]] bool idle() const override { return state_ == State::kIdle; }
  /// Clause 2 over the proven batches proposed and accepted; clause 4 as
  /// a valid peer INIT for round_ whose batch holds an undecided value.
  [[nodiscard]] bool round_wanted() const override;
  /// Clause 5: a valid peer INIT for round_.
  [[nodiscard]] bool peer_opened() const override;
  bool handle_layer_frame(NodeId from, std::uint8_t type,
                          wire::Decoder& dec) override;
  // Each frame handler fully decodes (resolving value references) before
  // any side effect; a frame whose referenced bodies are absent is parked
  // via park() and replayed through handle_frame once the pull completes.
  void handle_frame(NodeId from, wire::BytesView frame) override;
  store::BodyFetcher& fetcher() override { return *fetcher_; }
  /// Pull retries, then the INIT batch / safe-req / ack-req re-send.
  /// Every re-send is idempotent at receivers (all collections dedupe by
  /// sender / signer).
  void on_stall() override;
  [[nodiscard]] std::uint64_t phase() const override {
    return static_cast<std::uint64_t>(state_);
  }
  /// Quorum-vouched snapshots merge into the decided chain — the
  /// deep-laggard catch-up that replaces cert-by-cert walks for rounds
  /// whose certificates were pruned.
  void on_snapshot_adopted(const checkpoint::Snapshot& snap,
                           bool quorum) override;

  // -- protocol steps ---------------------------------------------------
  /// Signs round_'s batch and broadcasts it as INIT (inline bodies —
  /// first contact with the content).
  void broadcast_init();
  void broadcast_safe_req();
  void maybe_enter_safetying();
  void enter_proposing();
  void send_ack_req();
  void broadcast_cert_and_decide(DecidedCert cert);
  void adopt_cert(const DecidedCert& cert);
  void adopt_cert_if_held(std::uint64_t round);
  /// Sends the stored certificate for `round` (if any) to `to` — the
  /// §8.2 catch-up reply for stale-round INIT / safe-req / ack-req
  /// traffic from lagging proposers.
  void send_cert_if_held(std::uint64_t round, NodeId to);
  /// Whether a proposer's frame for `round` lags enough to earn the
  /// certificate that ended it: two or more rounds behind a running
  /// round, or any round behind while idle. One round of skew is normal
  /// lock-step operation and gets nothing: handing heavy cumulative
  /// certs to every slightly-behind peer would turn each round into an
  /// O(n) certificate storm. An idle replica runs no round to storm, and
  /// a peer one round behind it may need the certificate to leave kInit
  /// at all (the frames it lost were sent once).
  [[nodiscard]] bool lags(std::uint64_t round) const;
  /// Decides a certificate-proven union for round_ and moves to the next
  /// round, which starts at once if the decision grew the decided set or
  /// the replica was `left_behind` (see adopt_cert).
  void decide_and_advance(const ValueSet& decision, bool left_behind = false);
  void advance_trust();
  void drain_buffers();
  // -- checkpoint integration ----------------------------------------------
  /// Called after every growing decision: commits a checkpoint when due
  /// and prunes round-indexed state behind it (init/candidate indices,
  /// batches, old certificates beyond the catch-up window).
  void maybe_checkpoint_and_compact(std::uint64_t decided_round);
  /// Reads an [flags u8][root 32B?] advertisement prefix, vouching for
  /// and (if unknown) pulling any root it carries.
  void read_root_ad(NodeId from, wire::Decoder& dec);
  /// Emits our own advertisement prefix.
  void write_root_ad(wire::Encoder& enc) const;

  // -- handlers -------------------------------------------------------------
  void on_init(NodeId from, wire::Decoder& dec, store::RefResolver& resolver,
               wire::BytesView frame);
  void on_safe_req(NodeId from, wire::Decoder& dec,
                   store::RefResolver& resolver, wire::BytesView frame);
  void on_safe_ack(NodeId from, wire::Decoder& dec,
                   store::RefResolver& resolver, wire::BytesView frame);
  void on_ack_req(NodeId from, wire::Decoder& dec,
                  store::RefResolver& resolver, wire::BytesView frame);
  void on_ack(NodeId from, wire::Decoder& dec);
  void on_nack(NodeId from, wire::Decoder& dec,
               store::RefResolver& resolver, wire::BytesView frame);
  void on_decided(NodeId from, wire::Decoder& dec,
                  store::RefResolver& resolver, wire::BytesView frame);

  std::shared_ptr<const crypto::ISigner> signer_;
  std::unique_ptr<store::BodyFetcher> fetcher_;
  mutable BatchKeys batch_keys_;
  /// Real signature verifications only (verify-once memo misses,
  /// accepted or not); memo hits count in obs_sig_cache_hits_.
  obs::Counter obs_sig_checks_;
  obs::Counter obs_sig_cache_hits_;
  SignedSafety<GsbsRules> safety_;
  /// Equivocation pairs this acceptor signed into its safe-acks.
  obs::Counter obs_conflicts_listed_;

  State state_ = State::kIdle;
  std::uint64_t ts_ = 0;

  // Per-round init collections: signer -> distinct signed batches seen.
  std::map<std::uint64_t, BySigner<SignedBatch>> init_seen_;
  std::vector<SignedBatch> safety_snapshot_;
  std::map<NodeId, BatchSafeAck> safe_acks_;

  // Cumulative proposal across rounds (the GWTS Proposed_set analogue).
  ProposalMap proposed_;
  std::set<NodeId> ack_senders_;
  std::vector<SignedAck> collected_acks_;

  // Acceptor state.
  std::map<std::uint64_t, BySigner<SignedBatch>> candidate_seen_;
  ProposalMap accepted_;
  std::uint64_t safe_r_ = 0;
  std::map<std::uint64_t, DecidedCert> certs_;  // well-formed, by round
  // Replay keys of every kGsbsDecided certificate already processed
  // (valid or not), so a replayed certificate costs its content keys and
  // a hash instead of a quorum of signature verifications. Bounded:
  // cleared on overflow.
  std::set<crypto::Sha256::Digest> certs_processed_;

  // Buffered frames awaiting round trust.
  struct BufferedReq {
    NodeId from;
    std::vector<ProvenBatch> proposal;
    std::uint64_t ts = 0;
    std::uint64_t round = 0;
  };
  std::deque<BufferedReq> buffered_reqs_;
};

}  // namespace bla::core
