#include "core/gsbs.hpp"

#include <algorithm>
#include <ranges>

namespace bla::core {

namespace {

constexpr std::size_t kMaxBatchesPerMessage = 1 << 12;
/// Untrusted-round ack-reqs parked per sender. Honest senders park a few
/// per round an acceptor lags; the test suites, table benches and fuzz
/// schedules peak at 7.
constexpr std::ptrdiff_t kMaxBufferedPerSender = 64;

// ---------------------------------------------------------------------------
// Codecs (local to GSbS).
//
// Transport only: batch value sets are ref-encoded (store/ref.hpp) so
// safe-acks, proposals-with-proofs, and certificates — which echo the
// same signed batches over and over — ship 32-byte references instead of
// bodies. Signing bytes and digests never see a transport spelling: they
// cover each batch's content key (core::content_key over the resolved
// values), so references carry no trust — a frame only acts once every
// reference resolved to bytes that hash to its digest.
// ---------------------------------------------------------------------------

/// A batch as every GSbS signature and digest sees it: signer, round and
/// the batch's content key — never the encoding of its values.
void encode_batch_key(wire::Encoder& enc, const SignedBatch& sb,
                      const crypto::Sha256::Digest& key) {
  enc.u32(sb.signer);
  enc.u64(sb.round);
  enc.raw(std::span(key.data(), key.size()));
}

/// Digest over the (signer, round, batch) triples of `batches`, given in
/// ProposalMap order (sorted, deduplicated) — the content a quorum
/// accepts; proofs and signature bytes are evidence.
template <std::ranges::sized_range Batches>
crypto::Sha256::Digest batches_digest(Batches&& batches, BatchKeys& keys) {
  wire::Encoder enc;
  enc.uvarint(std::ranges::size(batches));
  for (const SignedBatch& sb : batches) encode_batch_key(enc, sb, keys(sb));
  return crypto::Sha256::hash(std::span(enc.view()));
}

/// Transport-encode context: where referenced bodies are registered and
/// whether references are emitted at all (false = inline full bodies —
/// first-contact INIT frames, the local replay loop, bench baseline).
struct Codec {
  store::BodyStore* store = nullptr;
  bool refs = false;
  /// When set, batches as encode_batch_key, no bodies: the canonical
  /// spelling the certificate replay guard hashes. Never sent.
  BatchKeys* keys = nullptr;
};

void encode_signed_batch(wire::Encoder& enc, const SignedBatch& sb,
                         const Codec& codec) {
  if (codec.keys != nullptr) {
    encode_batch_key(enc, sb, (*codec.keys)(sb));
  } else {
    enc.u32(sb.signer);
    enc.u64(sb.round);
    store::encode_value_set_ref(enc, sb.batch, codec.store, codec.refs);
  }
  enc.bytes(sb.signature);
}

SignedBatch decode_signed_batch(wire::Decoder& dec,
                                store::RefResolver& resolver) {
  SignedBatch sb;
  sb.signer = dec.u32();
  sb.round = dec.u64();
  sb.batch = resolver.value_set(dec);
  sb.signature = dec.bytes();
  if (sb.signature.size() > 128) throw wire::WireError("oversized signature");
  return sb;
}

void encode_batch_safe_ack(wire::Encoder& enc, const BatchSafeAck& ack,
                           const Codec& codec) {
  enc.u32(ack.acceptor);
  enc.u64(ack.round);
  encode_ack_lists(enc, ack, [&](wire::Encoder& e, const SignedBatch& sb) {
    encode_signed_batch(e, sb, codec);
  });
  enc.bytes(ack.signature);
}

BatchSafeAck decode_batch_safe_ack(wire::Decoder& dec,
                                   store::RefResolver& resolver) {
  BatchSafeAck ack;
  ack.acceptor = dec.u32();
  ack.round = dec.u64();
  decode_ack_lists(dec, ack, kMaxBatchesPerMessage, [&](wire::Decoder& d) {
    return decode_signed_batch(d, resolver);
  });
  ack.signature = dec.bytes();
  if (ack.signature.size() > 128) throw wire::WireError("oversized signature");
  return ack;
}

/// `proposal`: a ProposalMap or a vector of ProvenBatch, encoded alike.
template <class Proposal>
void encode_proposal(wire::Encoder& enc, const Proposal& proposal,
                     const Codec& codec) {
  enc.uvarint(proposal.size());
  for (const auto& [sb, proof] : proposal) {
    encode_signed_batch(enc, sb, codec);
    enc.uvarint(proof.size());
    for (const BatchSafeAck& ack : proof) {
      encode_batch_safe_ack(enc, ack, codec);
    }
  }
}

std::vector<ProvenBatch> decode_proposal(wire::Decoder& dec,
                                         store::RefResolver& resolver) {
  const std::uint64_t count = dec.uvarint();
  if (count > kMaxBatchesPerMessage) throw wire::WireError("oversized");
  std::vector<ProvenBatch> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ProvenBatch pb;
    pb.item = decode_signed_batch(dec, resolver);
    const std::uint64_t np = dec.uvarint();
    if (np > kMaxProofAcks) throw wire::WireError("oversized proof");
    for (std::uint64_t j = 0; j < np; ++j) {
      pb.proof.push_back(decode_batch_safe_ack(dec, resolver));
    }
    out.push_back(std::move(pb));
  }
  return out;
}

void encode_signed_ack(wire::Encoder& enc, const SignedAck& ack) {
  enc.u32(ack.acceptor);
  enc.raw(std::span(ack.digest.data(), ack.digest.size()));
  enc.u64(ack.ts);
  enc.u64(ack.round);
  enc.bytes(ack.signature);
}

SignedAck decode_signed_ack(wire::Decoder& dec) {
  SignedAck ack;
  ack.acceptor = dec.u32();
  const wire::BytesView digest = dec.raw(ack.digest.size());
  std::copy(digest.begin(), digest.end(), ack.digest.begin());
  ack.ts = dec.u64();
  ack.round = dec.u64();
  ack.signature = dec.bytes();
  if (ack.signature.size() > 128) throw wire::WireError("oversized signature");
  return ack;
}

void encode_cert(wire::Encoder& enc, const DecidedCert& cert,
                 const Codec& codec) {
  enc.u64(cert.round);
  enc.u64(cert.ts);
  encode_proposal(enc, cert.proposal, codec);
  enc.uvarint(cert.acks.size());
  for (const SignedAck& ack : cert.acks) encode_signed_ack(enc, ack);
}

DecidedCert decode_cert(wire::Decoder& dec, store::RefResolver& resolver) {
  DecidedCert cert;
  cert.round = dec.u64();
  cert.ts = dec.u64();
  cert.proposal = decode_proposal(dec, resolver);
  const std::uint64_t na = dec.uvarint();
  if (na > kMaxProofAcks) throw wire::WireError("oversized cert");
  for (std::uint64_t i = 0; i < na; ++i) {
    cert.acks.push_back(decode_signed_ack(dec));
  }
  return cert;
}

ValueSet proposal_union(const std::vector<ProvenBatch>& proposal) {
  ValueSet out;
  for (const ProvenBatch& pb : proposal) out.merge(pb.item.batch);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / submission.
// ---------------------------------------------------------------------------

GsbsProcess::GsbsProcess(EngineConfig config,
                         std::shared_ptr<const crypto::ISigner> signer,
                         DecideFn on_decide,
                         std::shared_ptr<store::BodyStore> store)
    : EngineBase(std::move(config), std::move(on_decide), std::move(store),
                 "gsbs",
                 // GSbS decisions are certificate-proven, so decided
                 // membership is the known-safe predicate: a snapshot of
                 // locally decided values adopts without a vouch quorum.
                 [this](const Value& v) { return decided_set_.contains(v); }),
      signer_(std::move(signer)),
      fetcher_(std::make_unique<store::BodyFetcher>(
          store::BodyFetcher::Config{config_.self, config_.n,
                                     lattice::kMaxValueBytes,
                                     /*fanout=*/config_.f + 1,
                                     /*max_auto_rearms=*/4, registry_},
          store_,
          [this](NodeId to, wire::Bytes b) { ctx_->send(to, std::move(b)); })),
      batch_keys_(*store_),
      safety_(GsbsRules{signer_.get(), store_.get(), &batch_keys_,
                        &obs_sig_checks_, &obs_sig_cache_hits_},
              config_.n, config_.f) {
  const std::string p = "node" + std::to_string(config_.self) + "/gsbs/";
  obs_sig_checks_ = registry_->counter(p + "sig_checks");
  obs_sig_cache_hits_ = registry_->counter(p + "sig_cache_hits");
  obs_conflicts_listed_ = registry_->counter(p + "conflicts_listed");
}

// ---------------------------------------------------------------------------
// Signing bytes / digests.
// ---------------------------------------------------------------------------

wire::Bytes batch_signing_bytes(const SignedBatch& sb,
                                const crypto::Sha256::Digest& key) {
  wire::Encoder enc;
  enc.str("gsbs-batch");
  encode_batch_key(enc, sb, key);
  return enc.take();
}

crypto::Sha256::Digest BatchKeys::operator()(const SignedBatch& sb) {
  const auto it = keys_.find(sb);
  if (it != keys_.end()) return it->second;
  if (keys_.size() >= (std::size_t{1} << 12)) keys_.clear();
  const crypto::Sha256::Digest key = content_key(sb.batch.elements(), store_);
  keys_.emplace(sb, key);
  return key;
}

wire::Bytes GsbsRules::ack_bytes(const BatchSafeAck& ack) const {
  wire::Encoder enc;
  enc.str("gsbs-safe-ack");
  enc.u32(ack.acceptor);
  enc.u64(ack.round);
  encode_ack_lists(enc, ack, [this](wire::Encoder& e, const SignedBatch& sb) {
    encode_batch_key(e, sb, (*keys)(sb));
  });
  return enc.take();
}

bool GsbsRules::check(NodeId signer_id, wire::BytesView message,
                      wire::BytesView signature) const {
  // The cumulative proposal re-presents every batch and safe-ack proof on
  // each ack-req, nack and certificate; the replica's verify-once memo
  // turns all but the first sighting into a lookup. Signing bytes are
  // built from content keys, so the memo key hashes ~100 bytes for a
  // batch and a few hundred for a safe-ack, whatever the bodies weigh.
  using Verdict = store::BodyStore::Verdict;
  const Verdict verdict = store->verify(*signer, signer_id, message, signature);
  if (verdict == Verdict::kCached) {
    sig_cache_hits->inc();
    return true;
  }
  sig_checks->inc();
  return verdict == Verdict::kVerified;
}

wire::Bytes GsbsProcess::ack_signing_bytes(const SignedAck& ack) const {
  wire::Encoder enc;
  enc.str("gsbs-ack");
  enc.u32(ack.acceptor);
  enc.raw(std::span(ack.digest.data(), ack.digest.size()));
  enc.u64(ack.ts);
  enc.u64(ack.round);
  return enc.take();
}

crypto::Sha256::Digest GsbsProcess::proposal_digest(
    const ProposalMap& proposal) const {
  return batches_digest(proposal | std::views::keys, batch_keys_);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

bool GsbsProcess::verify_cert(const DecidedCert& cert) const {
  if (cert.acks.size() < safety_.quorum()) return false;
  // The digest needs only the batches in ProposalMap order — sorted and
  // deduplicated under the map's ordering — not a copy of the proposal
  // with its proofs.
  const auto by_value = [](const SignedBatch* a, const SignedBatch* b) {
    return *a < *b;
  };
  std::set<const SignedBatch*, decltype(by_value)> batches;
  for (const ProvenBatch& pb : cert.proposal) batches.insert(&pb.item);
  const crypto::Sha256::Digest digest = batches_digest(
      batches | std::views::transform(
                    [](const SignedBatch* sb) -> const SignedBatch& {
                      return *sb;
                    }),
      batch_keys_);
  std::set<NodeId> senders;
  for (const SignedAck& ack : cert.acks) {
    if (ack.acceptor >= config_.n) return false;
    if (!senders.insert(ack.acceptor).second) return false;
    if (ack.round != cert.round || ack.ts != cert.ts) return false;
    if (ack.digest != digest) return false;
    if (!safety_.rules().check(ack.acceptor, ack_signing_bytes(ack),
                               ack.signature)) {
      return false;
    }
  }
  return safety_.all_safe(cert.proposal);
}

// ---------------------------------------------------------------------------
// Round machinery.
// ---------------------------------------------------------------------------

void GsbsProcess::on_stall() {
  retry_pulls();
  switch (state_) {
    case State::kInit:
      // batches_[round_] is frozen once the round started (submit()
      // targets round_+1), and receivers dedupe by (signer, round, batch)
      // in index_signed, so the re-send is idempotent even if the
      // signature bytes differ.
      broadcast_init();
      break;
    case State::kSafetying:
      // The frozen snapshot again. Acceptors answer every safe-req; our
      // on_safe_ack dedupes by acceptor.
      broadcast_safe_req();
      break;
    case State::kProposing:
      // Acceptors re-ack (accepted_ is already a superset match) and
      // piggyback any certificate ending the round, which is exactly the
      // catch-up path §8.2 prescribes.
      send_ack_req();
      break;
    case State::kIdle:  // the base joins round_ next
    case State::kStopped:
      break;
  }
}

bool GsbsProcess::round_wanted() const {
  const auto undecided = [this](const SignedBatch& sb) {
    return std::ranges::any_of(
        sb.batch, [this](const Value& v) { return !decided_set_.contains(v); });
  };
  if (std::ranges::any_of(proposed_ | std::views::keys, undecided) ||
      std::ranges::any_of(accepted_ | std::views::keys, undecided)) {
    return true;
  }
  const auto inits = init_seen_.find(round_);
  return inits != init_seen_.end() &&
         std::ranges::any_of(inits->second | std::views::values,
                             [&](const std::vector<SignedBatch>& batches) {
                               return std::ranges::any_of(batches, undecided);
                             });
}

bool GsbsProcess::peer_opened() const {
  const auto inits = init_seen_.find(round_);
  return inits != init_seen_.end() && !inits->second.empty();
}

bool GsbsProcess::lags(std::uint64_t round) const {
  return round + 1 < round_ || (idle() && round < round_);
}

void GsbsProcess::start_round() {
  if (!begin_round()) {
    state_ = State::kStopped;
    return;
  }
  state_ = State::kInit;
  note_progress();
  safe_acks_.clear();
  safety_snapshot_.clear();
  broadcast_init();
  maybe_enter_safetying();
}

void GsbsProcess::broadcast_init() {
  SignedBatch sb;
  sb.signer = config_.self;
  sb.round = round_;
  sb.batch = batches_[round_];
  sb.signature = signer_->sign(safety_.rules().item_bytes(sb));
  safety_.index_signed(init_seen_[round_], sb);

  // INIT inlines the batch bodies — first contact with the content; the
  // Codec still registers them in the store so every later reference we
  // emit (safe-req onward) is servable.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsInit));
  encode_signed_batch(enc, sb, Codec{store_.get(), false});
  ctx_->broadcast(enc.take());
}

void GsbsProcess::broadcast_safe_req() {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsSafeReq));
  enc.u64(round_);
  enc.uvarint(safety_snapshot_.size());
  for (const SignedBatch& sb : safety_snapshot_) {
    encode_signed_batch(enc, sb, Codec{store_.get(), config_.digest_refs});
  }
  ctx_->broadcast(enc.take());
}

void GsbsProcess::maybe_enter_safetying() {
  if (state_ != State::kInit) return;
  std::vector<SignedBatch> safety_set =
      safety_.conflict_free(init_seen_[round_]);
  if (safety_set.size() < disclosure_threshold(config_.n, config_.f)) return;
  state_ = State::kSafetying;
  note_progress();
  std::sort(safety_set.begin(), safety_set.end());
  safety_snapshot_ = std::move(safety_set);
  broadcast_safe_req();
}

void GsbsProcess::enter_proposing() {
  state_ = State::kProposing;
  note_progress();
  // Cumulative across rounds.
  safety_.propose_unaccused(safety_snapshot_, safe_acks_, proposed_);

  ack_senders_.clear();
  collected_acks_.clear();
  ts_ += 1;
  send_ack_req();
}

void GsbsProcess::send_ack_req() {
  registry_->trace_event(config_.self, obs::EventKind::kPropose, round_,
                         proposed_.size());
  // The proposal is cumulative and every batch drags its quorum of
  // safe-ack proofs along — by far the heaviest GSbS frame. References
  // collapse each repeated batch body to 33 bytes.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsAckReq));
  write_root_ad(enc);
  enc.u64(ts_);
  enc.u64(round_);
  encode_proposal(enc, proposed_, Codec{store_.get(), config_.digest_refs});
  ctx_->broadcast(enc.take());
}

void GsbsProcess::broadcast_cert_and_decide(DecidedCert cert) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsDecided));
  encode_cert(enc, cert, Codec{store_.get(), config_.digest_refs});
  ctx_->broadcast(enc.take());

  const ValueSet decision = proposal_union(cert.proposal);
  certs_.emplace(cert.round, std::move(cert));
  record_committed(decision.elements());
  advance_trust();
  decide_and_advance(decision);
}

void GsbsProcess::decide_and_advance(const ValueSet& decision,
                                     bool left_behind) {
  // record_decision merges rather than replaces: after a snapshot
  // adoption the decided set may hold values the
  // (cumulative-since-our-rounds) proposal never carried.
  const bool grew = record_decision(decision, round_);
  if (grew) maybe_checkpoint_and_compact(round_);
  state_ = State::kIdle;
  next_round(grew || left_behind);
}

void GsbsProcess::adopt_cert(const DecidedCert& cert) {
  // The GWTS rule transplanted: any legitimately ended round we are
  // currently *in* can be decided, if Local Stability allows. Adoption is
  // legal from every live phase, not just kProposing — a replica that was
  // crashed/partitioned through a round may still sit idle, in kInit or
  // in kSafetying when the certificate ending that round reaches it, and
  // waiting for its own proposal to form would wedge it forever (peers
  // will not re-run a round they already ended).
  if (state_ == State::kStopped || cert.round != round_) return;
  const ValueSet union_set = proposal_union(cert.proposal);
  // Local Stability, checkpoint-aware: every decided value must be covered
  // by the certified union or by a committed checkpoint. A replica that
  // adopted a snapshot may hold decided values that predate the rounds the
  // certificate's proposals accumulate over — the quorum that certified
  // this round also committed the checkpoint, so those values are stable
  // without appearing in the union.
  for (const Value& v : decided_set_) {
    if (!union_set.contains(v) && !ckpt_.covered_any(v)) return;
  }
  for (const auto& [sb, proof] : cert.proposal) proposed_.emplace(sb, proof);
  // Still collecting INITs when the round already ended: the peers ended
  // it without us (we were crashed or cut off), and they may be idle
  // rounds ahead, sending nothing. Starting the next round at once sends
  // its INIT, which peers past that round answer with its certificate
  // (lags), until we reach them.
  decide_and_advance(union_set, /*left_behind=*/state_ == State::kInit);
}

void GsbsProcess::adopt_cert_if_held(std::uint64_t round) {
  auto it = certs_.find(round);
  if (it != certs_.end()) adopt_cert(it->second);
}

void GsbsProcess::advance_trust() {
  while (certs_.contains(safe_r_)) {
    safe_r_ += 1;
  }
  drain_buffers();
}

void GsbsProcess::drain_buffers() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = buffered_reqs_.begin(); it != buffered_reqs_.end();) {
      if (it->round <= safe_r_) {
        BufferedReq req = std::move(*it);
        it = buffered_reqs_.erase(it);
        // Replay through the acceptor path now that the round is
        // trusted. Local loop: inline encoding, nothing to pull.
        wire::Encoder enc;
        enc.u64(req.ts);
        enc.u64(req.round);
        encode_proposal(enc, req.proposal, Codec{store_.get(), false});
        wire::Decoder dec(enc.view());
        store::RefResolver resolver(store_.get());
        on_ack_req(req.from, dec, resolver, {});
        progress = true;
      } else {
        ++it;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

bool GsbsProcess::handle_layer_frame(NodeId from, std::uint8_t type,
                                     wire::Decoder& dec) {
  return fetcher_->handle(from, type, dec);
}

void GsbsProcess::handle_frame(NodeId from, wire::BytesView frame) {
  try {
    wire::Decoder dec(frame);
    const auto type = static_cast<MsgType>(dec.u8());
    store::RefResolver resolver(store_.get());
    switch (type) {
      case MsgType::kGsbsInit:
        on_init(from, dec, resolver, frame);
        break;
      case MsgType::kGsbsSafeReq:
        on_safe_req(from, dec, resolver, frame);
        break;
      case MsgType::kGsbsSafeAck:
        on_safe_ack(from, dec, resolver, frame);
        break;
      case MsgType::kGsbsAckReq:
        // Transport-only checkpoint-root advertisement (never part of
        // any signing bytes): consumed here so the loopback replay in
        // drain_buffers — which carries no advertisement — can enter
        // on_ack_req directly.
        read_root_ad(from, dec);
        on_ack_req(from, dec, resolver, frame);
        break;
      case MsgType::kGsbsAck:
        on_ack(from, dec);
        break;
      case MsgType::kGsbsNack:
        read_root_ad(from, dec);
        on_nack(from, dec, resolver, frame);
        break;
      case MsgType::kGsbsDecided:
        on_decided(from, dec, resolver, frame);
        break;
      default:
        break;
    }
  } catch (const wire::WireError&) {
    // Byzantine; drop.
  }
}

void GsbsProcess::on_init(NodeId from, wire::Decoder& dec,
                          store::RefResolver& resolver,
                          wire::BytesView frame) {
  SignedBatch sb = decode_signed_batch(dec, resolver);
  dec.expect_done();
  if (!resolver.complete()) {
    park(from, resolver, frame);
    return;
  }
  if (sb.signer != from) return;  // INIT commits the *sender's* batch
  if (!safety_.verify_item(sb)) return;
  safety_.index_signed(init_seen_[sb.round], sb);
  note_round(from, sb.round);
  if (sb.round == round_) maybe_enter_safetying();
  // §8.2 catch-up: hand a lagging proposer the certificate that ended its
  // round so it can adopt and skip forward — its own next-round INIT then
  // elicits the next certificate, message-driven.
  if (lags(sb.round)) send_cert_if_held(sb.round, from);
}

void GsbsProcess::on_safe_req(NodeId from, wire::Decoder& dec,
                              store::RefResolver& resolver,
                              wire::BytesView frame) {
  const std::uint64_t round = dec.u64();
  const std::uint64_t count = dec.uvarint();
  if (count > kMaxBatchesPerMessage) throw wire::WireError("oversized");
  std::vector<SignedBatch> set;
  set.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    set.push_back(decode_signed_batch(dec, resolver));
  }
  dec.expect_done();
  if (!resolver.complete()) {
    park(from, resolver, frame);
    return;
  }
  if (!safety_.all_signed(set, round)) return;
  note_round(from, round);

  BatchSafeAck ack;
  ack.acceptor = config_.self;
  ack.round = round;
  ack.received = set;
  ack.conflicts = safety_.return_conflicts(candidate_seen_[round], set);
  obs_conflicts_listed_.inc(ack.conflicts.size());
  ack.signature = signer_->sign(safety_.rules().ack_bytes(ack));

  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsSafeAck));
  encode_batch_safe_ack(enc, ack, Codec{store_.get(), config_.digest_refs});
  ctx_->send(from, enc.take());
  // §8.2 catch-up, as in on_init: a lagging safe-req gets the
  // certificate alongside the safe-ack.
  if (lags(round)) send_cert_if_held(round, from);
}

void GsbsProcess::on_safe_ack(NodeId from, wire::Decoder& dec,
                              store::RefResolver& resolver,
                              wire::BytesView frame) {
  if (state_ != State::kSafetying) return;
  BatchSafeAck ack = decode_batch_safe_ack(dec, resolver);
  dec.expect_done();
  if (!resolver.complete()) {
    park(from, resolver, frame);
    return;
  }
  if (ack.acceptor != from || ack.round != round_) return;
  std::vector<SignedBatch> rcvd_sorted = ack.received;
  std::sort(rcvd_sorted.begin(), rcvd_sorted.end());
  if (rcvd_sorted != safety_snapshot_) return;
  if (!safety_.verify_safe_ack(ack)) return;
  if (safe_acks_.emplace(from, std::move(ack)).second) note_progress();
  if (safe_acks_.size() >= safety_.quorum()) enter_proposing();
}

void GsbsProcess::on_ack_req(NodeId from, wire::Decoder& dec,
                             store::RefResolver& resolver,
                             wire::BytesView frame) {
  const std::uint64_t ts = dec.u64();
  const std::uint64_t round = dec.u64();
  std::vector<ProvenBatch> proposal = decode_proposal(dec, resolver);
  dec.expect_done();
  if (!resolver.complete()) {
    park(from, resolver, frame);
    return;
  }
  note_round(from, round);

  if (round > safe_r_) {
    // Round not yet trusted (Lemma 7's gate): park the request. Proposals
    // are cumulative, so a sender's newest request supersedes its older
    // ones; at the per-sender cap its oldest entry makes room. A peer
    // flooding far-future rounds thus crowds out only itself.
    if (std::ranges::count(buffered_reqs_, from, &BufferedReq::from) >=
        kMaxBufferedPerSender) {
      buffered_reqs_.erase(
          std::ranges::find(buffered_reqs_, from, &BufferedReq::from));
    }
    buffered_reqs_.push_back({from, std::move(proposal), ts, round});
    return;
  }
  if (!safety_.all_safe(proposal)) return;

  const bool acked = safety_.accept_or_nack(
      accepted_, std::move(proposal), [&](const ProposalMap& accepted) {
        wire::Encoder enc;
        enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsNack));
        write_root_ad(enc);
        enc.u64(ts);
        enc.u64(round);
        encode_proposal(enc, accepted,
                        Codec{store_.get(), config_.digest_refs});
        ctx_->send(from, enc.take());
      });
  if (acked) {
    SignedAck ack;
    ack.acceptor = config_.self;
    ack.digest = proposal_digest(accepted_);
    ack.ts = ts;
    ack.round = round;
    ack.signature = signer_->sign(ack_signing_bytes(ack));
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsAck));
    encode_signed_ack(enc, ack);
    ctx_->send(from, enc.take());
  }

  // §8.2 piggyback: attach any certificate we hold for this round so a
  // lagging proposer can decide and move on.
  send_cert_if_held(round, from);
}

void GsbsProcess::send_cert_if_held(std::uint64_t round, NodeId to) {
  const auto it = certs_.find(round);
  if (it == certs_.end()) return;
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsDecided));
  encode_cert(enc, it->second, Codec{store_.get(), config_.digest_refs});
  ctx_->send(to, enc.take());
}

void GsbsProcess::on_ack(NodeId from, wire::Decoder& dec) {
  if (state_ != State::kProposing) return;
  SignedAck ack = decode_signed_ack(dec);
  dec.expect_done();
  if (ack.acceptor != from || ack.ts != ts_ || ack.round != round_) return;
  if (ack.digest != proposal_digest(proposed_)) return;
  if (!safety_.rules().check(from, ack_signing_bytes(ack), ack.signature)) {
    return;
  }
  if (!ack_senders_.insert(from).second) return;
  note_progress();
  collected_acks_.push_back(std::move(ack));

  if (ack_senders_.size() >= safety_.quorum()) {
    DecidedCert cert;
    cert.round = round_;
    cert.ts = ts_;
    for (const auto& [sb, proof] : proposed_) {
      cert.proposal.push_back({sb, proof});
    }
    cert.acks = collected_acks_;
    broadcast_cert_and_decide(std::move(cert));
  }
}

void GsbsProcess::on_nack(NodeId from, wire::Decoder& dec,
                          store::RefResolver& resolver,
                          wire::BytesView frame) {
  if (state_ != State::kProposing) return;
  const std::uint64_t ts = dec.u64();
  const std::uint64_t round = dec.u64();
  std::vector<ProvenBatch> proposal = decode_proposal(dec, resolver);
  dec.expect_done();
  if (!resolver.complete()) {
    park(from, resolver, frame);
    return;
  }
  if (ts != ts_ || round != round_) return;
  if (!safety_.refine(proposed_, std::move(proposal))) return;
  ack_senders_.clear();
  collected_acks_.clear();
  ts_ += 1;
  count_refinement();
  note_progress();
  send_ack_req();
}

void GsbsProcess::on_decided(NodeId from, wire::Decoder& dec,
                             store::RefResolver& resolver,
                             wire::BytesView frame) {
  DecidedCert cert = decode_cert(dec, resolver);
  dec.expect_done();
  if (!resolver.complete()) {
    park(from, resolver, frame);
    return;
  }
  // Replay guard: a certificate already processed — accepted or
  // rejected — is never re-verified, so a Byzantine peer resending it
  // pays us only its content keys and a hash, not a quorum of signature
  // checks. Hashing raw frame bytes would not work: the decoder tolerates
  // non-minimal varints and reference vs inline spellings, so one
  // certificate has unboundedly many byte-distinct frames. The key hashes
  // the keys-only encoding instead: content keys, rounds, signers and
  // every signature byte.
  {
    wire::Encoder canonical;
    encode_cert(canonical, cert, Codec{store_.get(), false, &batch_keys_});
    const crypto::Sha256::Digest key =
        crypto::Sha256::hash(std::span(canonical.view()));
    if (certs_processed_.contains(key)) {
      adopt_cert_if_held(cert.round);
      return;
    }
    if (certs_processed_.size() >= (std::size_t{1} << 12)) {
      certs_processed_.clear();
    }
    certs_processed_.insert(key);
  }
  if (certs_.contains(cert.round)) {
    // Already trusted; still try adoption (we may have lagged). A
    // *different* well-formed certificate for an already-trusted round
    // still matters to the confirmation plug-in: its union is a
    // quorum-committed set a client may ask us to confirm.
    const ValueSet other = proposal_union(cert.proposal);
    if (!is_committed(other) && verify_cert(cert)) {
      record_committed(other.elements());
    }
    adopt_cert(certs_.at(cert.round));
    return;
  }
  if (!verify_cert(cert)) return;
  const std::uint64_t round = cert.round;
  record_committed(proposal_union(cert.proposal).elements());
  certs_.emplace(round, std::move(cert));
  advance_trust();
  adopt_cert(certs_.at(round));
}

// ---------------------------------------------------------------------------
// Checkpointing.
// ---------------------------------------------------------------------------

void GsbsProcess::write_root_ad(wire::Encoder& enc) const {
  // Transport-only advertisement — never part of any signed encoding. The
  // flags byte is always present so the frame shape is config-independent.
  if (ckpt_.enabled() && ckpt_.latest().seq > 0) {
    enc.u8(1);
    const crypto::Sha256::Digest& root = ckpt_.latest().root;
    enc.raw(std::span(root.data(), root.size()));
  } else {
    enc.u8(0);
  }
}

void GsbsProcess::read_root_ad(NodeId from, wire::Decoder& dec) {
  const std::uint8_t flags = dec.u8();
  if (flags > 1) throw wire::WireError("gsbs: bad root-ad flags");
  if ((flags & 1) == 0) return;
  wire::BytesView raw = dec.raw(crypto::Sha256::kDigestSize);
  crypto::Sha256::Digest root;
  std::copy(raw.begin(), raw.end(), root.begin());
  if (!ckpt_.enabled()) return;
  ckpt_.vouch(root, from);
  if (!ckpt_.knows_root(root)) {
    // Unknown committed state: trigger the snapshot pull. Adoption (once
    // the vouch quorum forms) merges into decided_set_ via
    // on_snapshot_adopted; no frame replay is needed because GSbS frames
    // carry full (not delta) sets.
    ckpt_.await_root(root, from, [] {});
  }
}

void GsbsProcess::maybe_checkpoint_and_compact(std::uint64_t decided_round) {
  if (!ckpt_.maybe_checkpoint(decided_set_)) return;
  ckpt_round_ = decided_round;
  // Round-indexed state below the checkpointed round can no longer be
  // consulted: rounds strictly below ckpt_round_ ended before the decision
  // that produced this snapshot.
  batches_.erase(batches_.begin(), batches_.lower_bound(ckpt_round_));
  init_seen_.erase(init_seen_.begin(), init_seen_.lower_bound(ckpt_round_));
  candidate_seen_.erase(candidate_seen_.begin(),
                        candidate_seen_.lower_bound(ckpt_round_));
  // Certificates are kept for a trailing window: send_cert_if_held serves
  // laggards catching up round-by-round; anyone further behind than the
  // window recovers via the snapshot path instead.
  constexpr std::uint64_t kCertKeepWindow = 8;
  const std::uint64_t cert_floor =
      ckpt_round_ > kCertKeepWindow ? ckpt_round_ - kCertKeepWindow : 0;
  certs_.erase(certs_.begin(), certs_.lower_bound(cert_floor));
}

void GsbsProcess::on_snapshot_adopted(const checkpoint::Snapshot& snap,
                                      bool quorum) {
  if (!quorum) return;
  if (record_decision(ValueSet::from_sorted(*snap.elements), round_)) {
    note_progress();
  }
}

}  // namespace bla::core
