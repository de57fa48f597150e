#include "core/sbs.hpp"

#include <algorithm>

namespace bla::core {

namespace {

SignedValue decode_signed_value(wire::Decoder& dec) {
  SignedValue sv;
  sv.value = lattice::decode_value(dec);
  sv.signer = dec.u32();
  sv.signature = dec.bytes();
  if (sv.signature.size() > 128) throw wire::WireError("oversized signature");
  return sv;
}

SafeAck decode_safe_ack(wire::Decoder& dec) {
  SafeAck ack;
  ack.acceptor = dec.u32();
  decode_ack_lists(dec, ack, lattice::kMaxSetElements, decode_signed_value);
  ack.signature = dec.bytes();
  if (ack.signature.size() > 128) throw wire::WireError("oversized signature");
  return ack;
}

void encode_proven_values(wire::Encoder& enc, const ProvenValues& entries) {
  // Shared ack table: proofs are usually one quorum of acks shared by all
  // of a proposer's values, so indexing keeps messages near O(n²) bytes.
  // An ack is looked up by (acceptor, echo size) and matched on its
  // signature; the table precedes the entries that index into it.
  std::vector<const SafeAck*> table;
  std::map<std::pair<NodeId, std::size_t>, std::size_t> table_index;
  wire::Encoder indexed;
  indexed.uvarint(entries.size());
  for (const auto& [sv, proof] : entries) {
    encode_signed_value(indexed, sv);
    indexed.uvarint(proof.size());
    for (const SafeAck& ack : proof) {
      auto [it, fresh] = table_index.try_emplace(
          std::pair(ack.acceptor, ack.received.size()), table.size());
      if (!fresh && table[it->second]->signature != ack.signature) {
        it->second = table.size();
        fresh = true;
      }
      if (fresh) table.push_back(&ack);
      indexed.uvarint(it->second);
    }
  }
  enc.uvarint(table.size());
  for (const SafeAck* ack : table) encode_safe_ack(enc, *ack);
  enc.raw(indexed.view());
}

std::vector<ProvenValue> decode_proven_values(wire::Decoder& dec) {
  const std::uint64_t table_size = dec.uvarint();
  if (table_size > kMaxProofAcks) throw wire::WireError("oversized table");
  std::vector<SafeAck> table;
  table.reserve(table_size);
  for (std::uint64_t i = 0; i < table_size; ++i) {
    table.push_back(decode_safe_ack(dec));
  }
  const std::uint64_t count = dec.uvarint();
  if (count > lattice::kMaxSetElements) throw wire::WireError("oversized set");
  std::vector<ProvenValue> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ProvenValue pv;
    pv.item = decode_signed_value(dec);
    const std::uint64_t np = dec.uvarint();
    if (np > kMaxProofAcks) throw wire::WireError("oversized proof");
    for (std::uint64_t j = 0; j < np; ++j) {
      const std::uint64_t idx = dec.uvarint();
      if (idx >= table.size()) throw wire::WireError("bad proof index");
      pv.proof.push_back(table[idx]);
    }
    out.push_back(std::move(pv));
  }
  return out;
}

crypto::Sha256::Digest proposal_digest(const ProvenValues& entries) {
  // Digest over the signed values only: two proposals are "the same set"
  // iff they bind the same values to the same authors; proofs are
  // evidence, not content.
  wire::Encoder enc;
  enc.uvarint(entries.size());
  for (const auto& [sv, proof] : entries) {
    enc.bytes(sv.value);
    enc.u32(sv.signer);
  }
  return crypto::Sha256::hash(std::span(enc.view()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire helpers and signing bytes.
// ---------------------------------------------------------------------------

wire::Bytes signed_value_signing_bytes(const Value& value, NodeId signer) {
  wire::Encoder enc;
  enc.str("sbs-value");
  enc.u32(signer);
  enc.bytes(value);
  return enc.take();
}

void encode_signed_value(wire::Encoder& enc, const SignedValue& sv) {
  enc.bytes(sv.value);
  enc.u32(sv.signer);
  enc.bytes(sv.signature);
}

void encode_safe_ack(wire::Encoder& enc, const SafeAck& ack) {
  enc.u32(ack.acceptor);
  encode_ack_lists(enc, ack, encode_signed_value);
  enc.bytes(ack.signature);
}

wire::Bytes SbsRules::ack_bytes(const SafeAck& ack) const {
  // The wire encoding without the signature, under a domain tag.
  wire::Encoder enc;
  enc.str("sbs-safe-ack");
  enc.u32(ack.acceptor);
  encode_ack_lists(enc, ack, encode_signed_value);
  return enc.take();
}

// ---------------------------------------------------------------------------
// SbsProcess.
// ---------------------------------------------------------------------------

SbsProcess::SbsProcess(SbsConfig config, Value initial_value,
                       std::shared_ptr<const crypto::ISigner> signer)
    : config_(config),
      initial_value_(std::move(initial_value)),
      signer_(std::move(signer)),
      safety_(SbsRules{signer_.get()}, config_.n, config_.f) {}

void SbsProcess::on_start(net::IContext& ctx) {
  // Alg. 8 lines 8-11 (Init phase).
  SignedValue sv;
  sv.value = initial_value_;
  sv.signer = config_.self;
  sv.signature =
      signer_->sign(signed_value_signing_bytes(initial_value_, config_.self));
  safety_.index_signed(init_seen_, sv);

  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kSbsInit));
  encode_signed_value(enc, sv);
  ctx.broadcast(enc.take());
  maybe_enter_safetying(ctx);
}

void SbsProcess::on_message(net::IContext& ctx, NodeId from,
                            wire::BytesView payload) {
  try {
    wire::Decoder dec(payload);
    const auto type = static_cast<MsgType>(dec.u8());
    switch (type) {
      case MsgType::kSbsInit:
        on_init(ctx, from, dec);
        break;
      case MsgType::kSbsSafeReq:
        on_safe_req(ctx, from, dec);
        break;
      case MsgType::kSbsSafeAck:
        on_safe_ack(ctx, from, dec);
        break;
      case MsgType::kSbsAckReq:
        on_ack_req(ctx, from, dec);
        break;
      case MsgType::kSbsAck:
        on_ack(ctx, from, dec);
        break;
      case MsgType::kSbsNack:
        on_nack(ctx, from, dec);
        break;
      default:
        break;  // not an SbS message
    }
  } catch (const wire::WireError&) {
    // Malformed: Byzantine; drop.
  }
}

void SbsProcess::on_init(net::IContext& ctx, NodeId from, wire::Decoder& dec) {
  // Alg. 8 lines 12-14. The signer must be the channel sender: INIT is how
  // a proposer commits to *its own* value.
  SignedValue sv = decode_signed_value(dec);
  dec.expect_done();
  if (sv.signer != from) return;
  if (!safety_.verify_item(sv)) return;
  if (state_ != State::kInit) return;
  safety_.index_signed(init_seen_, sv);
  maybe_enter_safetying(ctx);
}

void SbsProcess::maybe_enter_safetying(net::IContext& ctx) {
  // Alg. 8 lines 16-18.
  if (state_ != State::kInit) return;
  std::vector<SignedValue> safety_set = safety_.conflict_free(init_seen_);
  if (safety_set.size() < disclosure_threshold(config_.n, config_.f)) return;
  state_ = State::kSafetying;
  std::sort(safety_set.begin(), safety_set.end());
  safety_snapshot_ = std::move(safety_set);

  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kSbsSafeReq));
  enc.uvarint(safety_snapshot_.size());
  for (const SignedValue& sv : safety_snapshot_) encode_signed_value(enc, sv);
  ctx.broadcast(enc.take());
}

void SbsProcess::on_safe_req(net::IContext& ctx, NodeId from,
                             wire::Decoder& dec) {
  // Alg. 9 lines 3-6 (acceptor role).
  const std::uint64_t count = dec.uvarint();
  if (count > lattice::kMaxSetElements) throw wire::WireError("oversized");
  std::vector<SignedValue> set;
  set.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    set.push_back(decode_signed_value(dec));
  }
  dec.expect_done();
  if (!safety_.all_signed(set, /*round=*/0)) return;

  SafeAck ack;
  ack.acceptor = config_.self;
  ack.received = set;
  ack.conflicts = safety_.return_conflicts(candidate_seen_, set);
  ack.signature = signer_->sign(safety_.rules().ack_bytes(ack));

  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kSbsSafeAck));
  encode_safe_ack(enc, ack);
  ctx.send(from, enc.take());
}

void SbsProcess::on_safe_ack(net::IContext& ctx, NodeId from,
                             wire::Decoder& dec) {
  // Alg. 8 lines 19-23.
  if (state_ != State::kSafetying) return;
  SafeAck ack = decode_safe_ack(dec);
  dec.expect_done();
  if (ack.acceptor != from) {
    byz_.insert(from);
    return;
  }
  if (ack.received != safety_snapshot_ || !safety_.verify_safe_ack(ack)) {
    byz_.insert(from);
    return;
  }
  safe_acks_.emplace(from, std::move(ack));
  if (safe_acks_.size() >= safety_.quorum()) enter_proposing(ctx);
}

void SbsProcess::enter_proposing(net::IContext& ctx) {
  state_ = State::kProposing;
  safety_.propose_unaccused(safety_snapshot_, safe_acks_, proposed_);

  ack_set_.clear();
  ts_ += 1;
  send_ack_req(ctx);
}

void SbsProcess::send_ack_req(net::IContext& ctx) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kSbsAckReq));
  encode_proven_values(enc, proposed_);
  enc.u64(ts_);
  ctx.broadcast(enc.take());
}

void SbsProcess::on_ack_req(net::IContext& ctx, NodeId from,
                            wire::Decoder& dec) {
  // Alg. 9 lines 7-14 (acceptor role).
  std::vector<ProvenValue> received = decode_proven_values(dec);
  const std::uint64_t req_ts = dec.u64();
  dec.expect_done();
  if (!safety_.all_safe(received)) return;

  const bool acked = safety_.accept_or_nack(
      accepted_, std::move(received), [&](const ProvenValues& mine) {
        wire::Encoder enc;
        enc.u8(static_cast<std::uint8_t>(MsgType::kSbsNack));
        encode_proven_values(enc, mine);
        enc.u64(req_ts);
        ctx.send(from, enc.take());
      });
  if (!acked) return;
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kSbsAck));
  const auto digest = proposal_digest(accepted_);
  enc.bytes(std::span(digest.data(), digest.size()));
  enc.u64(req_ts);
  ctx.send(from, enc.take());
}

void SbsProcess::on_ack(net::IContext& ctx, NodeId from, wire::Decoder& dec) {
  // Alg. 8 lines 32-37.
  if (state_ != State::kProposing) return;
  const wire::Bytes digest = dec.bytes();
  const std::uint64_t rts = dec.u64();
  dec.expect_done();
  if (rts != ts_) return;

  if (!std::ranges::equal(digest, proposal_digest(proposed_)) ||
      byz_.contains(from)) {
    byz_.insert(from);
    return;
  }
  ack_set_.insert(from);
  if (ack_set_.size() >= safety_.quorum()) {
    // Alg. 8 lines 47-50: decide the values, stripped of proofs.
    state_ = State::kDecided;
    ValueSet only_values;
    for (const auto& [sv, proof] : proposed_) only_values.insert(sv.value);
    decision_ = std::move(only_values);
    decide_time_ = ctx.now();
  }
}

void SbsProcess::on_nack(net::IContext& ctx, NodeId from, wire::Decoder& dec) {
  // Alg. 8 lines 38-46.
  if (state_ != State::kProposing) return;
  std::vector<ProvenValue> received = decode_proven_values(dec);
  const std::uint64_t rts = dec.u64();
  dec.expect_done();
  if (rts != ts_) return;

  if (byz_.contains(from) || !safety_.refine(proposed_, std::move(received))) {
    byz_.insert(from);
    return;
  }
  ack_set_.clear();
  ts_ += 1;
  refinements_ += 1;
  send_ack_req(ctx);
}

}  // namespace bla::core
