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
// messages per proposer. Equivocation is scoped per round: a conflict is
// two differently-valued batches signed by the same node *for the same
// round* (an honest proposer legitimately signs one batch per round).

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
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "net/process.hpp"
#include "store/fetch.hpp"
#include "store/ref.hpp"

namespace bla::core {

/// A proposer's batch for one round, bound to its author and round by a
/// signature over (signer, round, batch).
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
struct ProvenBatch {
  SignedBatch sb;
  std::vector<BatchSafeAck> proof;
};

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

struct GsbsConfig {
  NodeId self = 0;
  std::size_t n = 0;
  std::size_t f = 0;
  std::uint64_t max_rounds = 0;  // 0 = unbounded
  /// Digest-only dissemination: safe-acks, proposals (with their
  /// proofs), and decided certificates carry 32-byte value references;
  /// INIT batches stay inline (first contact). Missing bodies are pulled
  /// via the store protocol. false = full frames (bench baseline).
  bool digest_refs = true;
  /// Shared content-addressed body store (created internally when null).
  std::shared_ptr<store::BodyStore> store;
  /// Observability registry shared down through the fetcher; engine
  /// counters register as "node<self>/gsbs/*" — including sig_checks
  /// (real signature verifications) and sig_cache_hits (checks answered
  /// by the store's verify-once memo). Created internally when null.
  std::shared_ptr<obs::Registry> registry;
  /// Opt-in lossy-link recovery (see core::RecoveryConfig). Default off.
  RecoveryConfig recovery;
  /// Checkpoint + unified GC (src/checkpoint/). For GSbS the manager
  /// evicts checkpointed bodies (the store fallback re-serves them),
  /// prunes round-indexed collections, and provides the snapshot
  /// laggard catch-up; ack-req frames advertise the sender's root so
  /// vouchers accumulate. The signed proposal/accepted maps stay full —
  /// their encodings are signature-pinned, so the [root]+delta *frame*
  /// compaction is GWTS-only for now (see ROADMAP). 0 = disabled.
  std::size_t checkpoint_interval = 0;
};

class GsbsProcess : public IAgreementEngine {
public:
  using Decision = core::Decision;
  using DecideFn = IAgreementEngine::DecideFn;

  GsbsProcess(GsbsConfig config,
              std::shared_ptr<const crypto::ISigner> signer,
              DecideFn on_decide = nullptr);

  /// new_value(v): batched into the next round, as in GWTS.
  void submit(Value value) override;

  void on_start(net::IContext& ctx) override;
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) override;
  /// Recovery tick (armed only when config.recovery.enabled): on stall,
  /// re-sends the current phase frame (INIT batch / safe-req / ack-req)
  /// and re-arms dormant body fetches. Every re-send is idempotent at
  /// receivers (all collections dedupe by sender / signer).
  void on_timer(net::IContext& ctx, std::uint64_t token) override;

  [[nodiscard]] const std::vector<Decision>& decisions() const override {
    return decisions_;
  }
  [[nodiscard]] const ValueSet& decided_set() const override {
    return decided_set_;
  }

  /// Alg. 7 confirmation predicate: `set` is committed iff some
  /// well-formed `decided` certificate we have seen proves it. Populated
  /// from our own certificates and every verified kGsbsDecided broadcast.
  [[nodiscard]] bool is_committed(const ValueSet& set) const override {
    return committed_sets_.contains(committed_set_digest(set.elements()));
  }
  [[nodiscard]] std::uint64_t current_round() const { return round_; }
  [[nodiscard]] std::uint64_t trusted_round() const { return safe_r_; }
  [[nodiscard]] std::size_t refinement_count() const { return refinements_; }
  [[nodiscard]] const store::BodyFetcher::Stats& fetch_stats() const {
    return fetcher_->stats();
  }
  [[nodiscard]] const store::BodyStore& body_store() const { return *store_; }

  [[nodiscard]] const checkpoint::CheckpointManager* checkpoints()
      const override {
    return ckpt_.enabled() ? &ckpt_ : nullptr;
  }

private:
  enum class State { kInit, kSafetying, kProposing, kStopped };

  using ProposalMap = std::map<SignedBatch, std::vector<BatchSafeAck>>;

  // -- signing-bytes helpers ------------------------------------------------
  [[nodiscard]] wire::Bytes batch_signing_bytes(const SignedBatch& sb) const;
  [[nodiscard]] wire::Bytes safe_ack_signing_bytes(
      const BatchSafeAck& ack) const;
  [[nodiscard]] wire::Bytes ack_signing_bytes(const SignedAck& ack) const;
  [[nodiscard]] crypto::Sha256::Digest proposal_digest(
      const ProposalMap& proposal) const;

  // -- validation -----------------------------------------------------------
  /// Every signature check of the engine: through the store's
  /// verify-once memo, counted as a real check or a memo hit.
  [[nodiscard]] bool check_signature(NodeId signer, wire::BytesView message,
                                     wire::BytesView signature) const;
  [[nodiscard]] bool verify_signed_batch(const SignedBatch& sb) const;
  [[nodiscard]] bool verify_conflict_pair(
      const std::pair<SignedBatch, SignedBatch>& pair) const;
  [[nodiscard]] bool verify_batch_safe_ack(const BatchSafeAck& ack) const;
  [[nodiscard]] bool all_safe(const std::vector<ProvenBatch>& batches) const;
  [[nodiscard]] bool verify_cert(const DecidedCert& cert) const;

  // -- protocol steps ---------------------------------------------------
  void start_round();
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
  /// Records a certificate-proven decision set as commit evidence (the
  /// single place the Alg. 7 is_committed key is computed for GSbS).
  void record_committed(const ValueSet& decision) {
    committed_sets_.insert(committed_set_digest(decision.elements()));
  }
  void advance_trust();
  void drain_buffers();
  void note_progress();
  void recover_stall();
  // -- checkpoint integration ----------------------------------------------
  /// Called after every growing decision: commits a checkpoint when due
  /// and prunes round-indexed state behind it (init/candidate indices,
  /// batches, old certificates beyond the catch-up window).
  void maybe_checkpoint_and_compact(std::uint64_t decided_round);
  /// Adoption upcall: quorum-vouched snapshots merge into the decided
  /// chain — the deep-laggard catch-up that replaces cert-by-cert walks
  /// for rounds whose certificates were pruned.
  void on_snapshot_adopted(const checkpoint::Snapshot& snap, bool quorum);
  /// Reads an [flags u8][root 32B?] advertisement prefix, vouching for
  /// and (if unknown) pulling any root it carries.
  void read_root_ad(NodeId from, wire::Decoder& dec);
  /// Emits our own advertisement prefix.
  void write_root_ad(wire::Encoder& enc) const;

  // -- handlers -------------------------------------------------------------
  // Each handler fully decodes (resolving value references) before any
  // side effect; a frame whose referenced bodies are absent is parked via
  // park() and replayed through handle_frame once the pull completes.
  void handle_frame(NodeId from, wire::BytesView frame);
  void park(NodeId from, const store::RefResolver& resolver,
            wire::BytesView frame);
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

  GsbsConfig config_;
  std::shared_ptr<const crypto::ISigner> signer_;
  DecideFn on_decide_;
  net::IContext* ctx_ = nullptr;
  std::shared_ptr<store::BodyStore> store_;
  std::shared_ptr<obs::Registry> registry_;  // before fetcher_: shared down
  std::unique_ptr<store::BodyFetcher> fetcher_;
  checkpoint::CheckpointManager ckpt_;  // after fetcher_: sends via ctx_
  /// Round of the latest own checkpoint (the GC pruning floor).
  std::uint64_t ckpt_round_ = 0;
  obs::Counter obs_rounds_;
  obs::Counter obs_decisions_;
  obs::Counter obs_refinements_;
  /// Real signature verifications only (verify-once memo misses,
  /// accepted or not); memo hits count in obs_sig_cache_hits_.
  obs::Counter obs_sig_checks_;
  obs::Counter obs_sig_cache_hits_;
  obs::Counter obs_retries_;  // stall-recovery passes run

  // Recovery state (unused unless config_.recovery.enabled).
  double last_progress_ = 0.0;
  std::size_t resends_ = 0;

  State state_ = State::kInit;
  std::uint64_t round_ = 0;
  std::uint64_t ts_ = 0;
  bool started_ = false;
  std::map<std::uint64_t, ValueSet> batches_;

  // Per-round init collections: signer -> distinct signed batches seen.
  std::map<std::uint64_t, std::map<NodeId, std::vector<SignedBatch>>>
      init_seen_;
  std::vector<SignedBatch> safety_snapshot_;
  std::map<NodeId, BatchSafeAck> safe_acks_;

  // Cumulative proposal across rounds (the GWTS Proposed_set analogue).
  ProposalMap proposed_;
  std::set<NodeId> ack_senders_;
  std::vector<SignedAck> collected_acks_;

  ValueSet decided_set_;
  std::vector<Decision> decisions_;
  std::size_t refinements_ = 0;

  // Acceptor state.
  std::map<std::uint64_t, std::map<NodeId, std::vector<SignedBatch>>>
      candidate_seen_;
  ProposalMap accepted_;
  std::uint64_t safe_r_ = 0;
  std::map<std::uint64_t, DecidedCert> certs_;  // well-formed, by round
  // Canonical-encoding digests of every certificate-proven proposal
  // union (feeds is_committed).
  std::set<crypto::Sha256::Digest> committed_sets_;
  // Digests of every kGsbsDecided frame already processed (valid or
  // not), so replayed certificates cost a hash instead of a quorum of
  // signature verifications. Bounded: cleared on overflow.
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
