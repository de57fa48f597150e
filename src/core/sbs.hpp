#pragma once
// SbS — Safety by Signature (paper §8, Algorithms 8, 9, 10).
//
// One-shot Byzantine Lattice Agreement that replaces the O(n²)-message
// reliable broadcast of WTS with digital signatures, trading message
// *count* (O(n) per proposer when f = O(1)) for message *size* (proofs of
// safety are quorums of signed acks, so requests can reach O(n²) bytes).
//
// Three phases:
//  * Init       — every proposer broadcasts its signed value; a process
//                 collects n−f mutually conflict-free signed values.
//  * Safetying  — the collected set is sent to the acceptors, which answer
//                 with *signed* safe-acks listing any conflicts (two
//                 different values signed by the same key).
//  * Proposing  — WTS's deciding phase, except every value travels with
//                 its proof of safety and both roles refuse unproven
//                 values. Refinements ≤ 2f (Lemma 16); decision within
//                 5+4f message delays (Theorem 8).
//
// The Alg. 10 proof-of-safety rules (conflict removal, conflict pairs,
// AllSafe; Lemma 13's quorum intersection) are core/signed_safety.hpp,
// shared with GSbS. SbsRules below is what SbS adds: its signing bytes,
// a plain signature check, and one round for everything.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/common.hpp"
#include "core/signed_safety.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "net/process.hpp"

namespace bla::core {

/// A value bound to its author by a signature. The signature covers
/// (value, signer) so a Byzantine node cannot re-attribute another node's
/// value to itself.
struct SignedValue {
  Value value;
  NodeId signer = 0;
  wire::Bytes signature;

  friend bool operator==(const SignedValue& a, const SignedValue& b) {
    return a.value == b.value && a.signer == b.signer;
  }
  friend auto operator<=>(const SignedValue& a, const SignedValue& b) {
    if (auto c = a.value <=> b.value; c != 0) return c;
    return a.signer <=> b.signer;
  }
};

/// Signed acceptor response of the safetying phase. `conflicts` carries
/// cryptographic proof of equivocation: pairs of differently-valued
/// SignedValues from one signer.
struct SafeAck {
  NodeId acceptor = 0;
  std::vector<SignedValue> received;  // echo of the proposer's Safety_set
  std::vector<std::pair<SignedValue, SignedValue>> conflicts;
  wire::Bytes signature;
};

/// Canonical bytes a proposer signs for a SignedValue.
[[nodiscard]] wire::Bytes signed_value_signing_bytes(const Value& value,
                                                     NodeId signer);

/// A value plus its proof of safety.
using ProvenValue = Proven<SignedValue, SafeAck>;
using ProvenValues = ProvenMap<SignedValue, SafeAck>;

/// SbS's side of the signed-safety core: one-shot, so every item and ack
/// is in round 0, and signatures are checked directly by the signer.
struct SbsRules {
  using Item = SignedValue;
  using Ack = SafeAck;

  const crypto::ISigner* signer = nullptr;

  static std::uint64_t round(const auto& /*item or ack*/) { return 0; }
  [[nodiscard]] wire::Bytes item_bytes(const SignedValue& sv) const {
    return signed_value_signing_bytes(sv.value, sv.signer);
  }
  [[nodiscard]] wire::Bytes ack_bytes(const SafeAck& ack) const;
  [[nodiscard]] bool check(NodeId signer_id, wire::BytesView message,
                           wire::BytesView signature) const {
    return signer->verify(signer_id, message, signature);
  }
};

struct SbsConfig {
  NodeId self = 0;
  std::size_t n = 0;
  std::size_t f = 0;
};

class SbsProcess : public net::IProcess {
public:
  SbsProcess(SbsConfig config, Value initial_value,
             std::shared_ptr<const crypto::ISigner> signer);

  void on_start(net::IContext& ctx) override;
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) override;

  // -- Observers -----------------------------------------------------------

  [[nodiscard]] bool has_decided() const { return decision_.has_value(); }
  [[nodiscard]] const ValueSet& decision() const { return *decision_; }
  [[nodiscard]] double decide_time() const { return decide_time_; }
  [[nodiscard]] std::size_t refinement_count() const { return refinements_; }
  /// Nodes this process has flagged as provably Byzantine.
  [[nodiscard]] const std::set<NodeId>& flagged_byzantine() const {
    return byz_;
  }

private:
  enum class State { kInit, kSafetying, kProposing, kDecided };

  // Proposer-side handlers.
  void on_init(net::IContext& ctx, NodeId from, wire::Decoder& dec);
  void on_safe_ack(net::IContext& ctx, NodeId from, wire::Decoder& dec);
  void on_ack(net::IContext& ctx, NodeId from, wire::Decoder& dec);
  void on_nack(net::IContext& ctx, NodeId from, wire::Decoder& dec);
  void maybe_enter_safetying(net::IContext& ctx);
  void enter_proposing(net::IContext& ctx);
  void send_ack_req(net::IContext& ctx);

  // Acceptor-side handlers.
  void on_safe_req(net::IContext& ctx, NodeId from, wire::Decoder& dec);
  void on_ack_req(net::IContext& ctx, NodeId from, wire::Decoder& dec);

  SbsConfig config_;
  Value initial_value_;
  std::shared_ptr<const crypto::ISigner> signer_;
  SignedSafety<SbsRules> safety_;
  State state_ = State::kInit;

  // Init phase: everything seen, grouped by signer.
  BySigner<SignedValue> init_seen_;
  std::vector<SignedValue> safety_snapshot_;  // frozen when leaving kInit

  // Safetying phase.
  std::map<NodeId, SafeAck> safe_acks_;

  // Proposing phase: value -> proof.
  ProvenValues proposed_;
  std::uint64_t ts_ = 0;
  std::set<NodeId> ack_set_;
  std::set<NodeId> byz_;
  std::optional<ValueSet> decision_;
  double decide_time_ = -1.0;
  std::size_t refinements_ = 0;

  // Acceptor state.
  BySigner<SignedValue> candidate_seen_;  // SafeCandidates
  ProvenValues accepted_;
};

// SbS wire helpers, also used by SbS tests and the multi-org ledger
// example to forge frames.
void encode_signed_value(wire::Encoder& enc, const SignedValue& sv);
void encode_safe_ack(wire::Encoder& enc, const SafeAck& ack);

}  // namespace bla::core
