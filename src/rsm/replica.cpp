#include "rsm/replica.hpp"

#include "batch/batch.hpp"

namespace bla::rsm {

namespace {
constexpr std::size_t kMaxPendingConfs = 1 << 14;

ReplicaConfig with_registry(ReplicaConfig config) {
  config.registry = obs::registry_or_private(std::move(config.registry));
  return config;
}
}  // namespace

RsmReplica::RsmReplica(ReplicaConfig config)
    : config_(with_registry(std::move(config))),
      store_(std::make_shared<store::BodyStore>()),
      engine_(core::make_engine(
          config_.engine, config_, config_.signer,
          [this](const core::Decision& d) { on_decide(d); }, store_)) {
  const std::string p = "node" + std::to_string(config_.self) + "/rsm/";
  batches_admitted_ = config_.registry->counter(p + "batches_admitted");
  batches_rejected_ = config_.registry->counter(p + "batches_rejected");
  // The verifier shares the replica-wide store with the engine: one
  // verify-once memo for the whole replica, so each batch body is stored
  // and signature-checked once per replica.
  if (config_.signer) verifier_.emplace(config_.signer, store_);
}

void RsmReplica::on_start(net::IContext& ctx) {
  ctx_ = &ctx;
  engine_->on_start(ctx);
  ctx_ = nullptr;
}

void RsmReplica::on_timer(net::IContext& ctx, std::uint64_t token) {
  ctx_ = &ctx;
  engine_->on_timer(ctx, token);
  drain_pending_confirmations();
  ctx_ = nullptr;
}

void RsmReplica::on_message(net::IContext& ctx, NodeId from,
                            wire::BytesView payload) {
  ctx_ = &ctx;
  try {
    wire::Decoder dec(payload);
    if (dec.done()) {
      ctx_ = nullptr;
      return;
    }
    const auto type = static_cast<core::MsgType>(payload[0]);

    if (type == core::MsgType::kRsmNewValue) {
      // Alg. 5 line 3 / Alg. 3 lines 8-9, with the Lemma 12 admissibility
      // filter: only well-formed commands enter the lattice.
      dec.u8();
      const Value value = lattice::decode_value(dec);
      dec.expect_done();
      if (decode_command(value).has_value()) {
        engine_->submit(value, ctx);
      }
    } else if (type == core::MsgType::kRsmNewBatch) {
      dec.u8();
      on_new_batch(from, dec, payload);
    } else if (type == core::MsgType::kRsmConfReq) {
      // Alg. 7 lines 2-3.
      dec.u8();
      ValueSet set = lattice::decode_value_set(dec);
      dec.expect_done();
      if (!confirm(from, set) && pending_confs_.size() < kMaxPendingConfs) {
        pending_confs_.push_back({from, std::move(set)});
      }
    } else {
      // Engine traffic (GWTS/RBC or GSbS frames) — replicas only. Ids
      // ≥ n are clients; letting them through would count Byzantine
      // clients toward RBC echo/ready and engine quorums, voiding the
      // Lemma 12 "Byzantine clients are harmless" contract.
      if (from < config_.n) {
        engine_->on_message(ctx, from, payload);
        drain_pending_confirmations();
      }
    }
  } catch (const wire::WireError&) {
    // Byzantine client or replica; drop.
  }
  ctx_ = nullptr;
}

void RsmReplica::on_new_batch(NodeId from, wire::Decoder& dec,
                              wire::BytesView frame) {
  // Cheapest check first: grossly padded frames are Byzantine by
  // construction (the canonical encoding of any cap-respecting batch
  // fits a lattice value — see the static_assert in batch.hpp), and
  // rejecting them here keeps a flood from buying signature work.
  if (frame.size() - 1 > lattice::kMaxValueBytes) {
    ++batches_rejected_;
    return;
  }
  batch::SignedCommandBatch b;
  try {
    b = batch::decode_signed_batch(dec);
    dec.expect_done();
  } catch (const wire::WireError&) {
    // Count malformed frames here rather than letting them unwind to
    // on_message's catch, so batches_rejected() covers every
    // non-admitted batch, not just well-formed-but-invalid ones.
    ++batches_rejected_;
    return;
  }
  // The runtime authenticates channels, so the claimed proposer must be
  // the actual sender — otherwise a Byzantine client could submit batches
  // in another client's name.
  if (b.proposer != from || !verifier_ || !verifier_->verify(b)) {
    ++batches_rejected_;
    return;
  }
  // Lemma 12 admissibility, amortized: every command must still be
  // well-formed, but the signature work was one check for the whole
  // batch (and zero on a verify-once memo hit).
  for (const Value& command : b.commands) {
    if (!decode_command(command).has_value()) {
      ++batches_rejected_;
      return;
    }
  }
  ++batches_admitted_;
  // Submit the *canonical* re-encoding, never the received bytes: the
  // wire decoder tolerates non-minimal varints, so one signed batch has
  // many byte-distinct frame spellings, and submitting raw frames would
  // let a Byzantine client mint arbitrarily many duplicate lattice
  // values from a single signature. Canonicalizing collapses every
  // spelling to one value (and one verify-once memo entry).
  Value value = batch::batch_value(b);
  // Register the body immediately: peers may pull it by reference the
  // moment our disclosure/init mentions it.
  const store::Digest digest = store_->put(value);
  config_.registry->trace_event(config_.self, obs::EventKind::kPropose,
                                obs::id64(digest), b.commands.size());
  if (engine_->decided_set().contains(value)) {
    // A retransmitted batch whose value is already decided: the original
    // decide notification must have been lost (engines notify only
    // set-growing decisions, so it will not repeat on its own). Answer
    // this sender directly with the current decided state.
    ctx_->send(from, encode_decide_frame(engine_->decided_set()));
    return;
  }
  engine_->submit(std::move(value), *ctx_);
}

void RsmReplica::on_decide(const core::Decision& decision) {
  obs::Registry& registry = *config_.registry;
  if (registry.lifecycle().enabled()) {
    // Decisions are cumulative, so most values here repeat from earlier
    // decisions — the Lifecycle's monotone marking dedups them, and the
    // engine-agnostic placement means GWTS and GSbS feed the same
    // kDecide/kExecute stage histograms. Execution (state
    // materialization) happens in the same callback, so the two marks
    // share a timestamp; the decide_to_execute histogram records the
    // (simulated) gap, which is 0 in this runtime by construction.
    for (const Value& v : decision.set) {
      const auto d = store_->digest(v);
      registry.lifecycle().mark(d, obs::Stage::kDecide, config_.self);
      registry.lifecycle().mark(d, obs::Stage::kExecute, config_.self);
    }
  }
  registry.trace_event(config_.self, obs::EventKind::kExecute, decision.round,
                       decision.set.size());
  // Alg. 5 line 5: push <decide, Accepted_set, replica> to every client.
  // Clients occupy every node id ≥ n. Decided state is cumulative, so
  // the digest form keeps this O(32·|set|) per notification instead of
  // re-shipping every command body on every decision.
  const wire::Bytes frame = encode_decide_frame(decision.set);
  const std::size_t total = ctx_->node_count();
  for (NodeId client = static_cast<NodeId>(config_.n); client < total;
       ++client) {
    ctx_->send(client, frame);
  }
}

wire::Bytes RsmReplica::encode_decide_frame(const ValueSet& set) const {
  wire::Encoder enc;
  if (config_.digest_decide_notifications) {
    enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmDecideDigest));
    enc.uvarint(set.size());
    for (const Value& v : set) {
      const auto d = store_->digest(v);
      enc.raw(std::span(d.data(), d.size()));
    }
  } else {
    enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmDecide));
    lattice::encode_value_set(enc, set);
  }
  return enc.take();
}

bool RsmReplica::confirm(NodeId client, const ValueSet& set) {
  // Alg. 7 lines 4-6: confirm once the set shows a quorum in the engine's
  // commit evidence (GWTS ack history / GSbS certificates).
  if (!engine_->is_committed(set)) return false;
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmConfRep));
  lattice::encode_value_set(enc, set);
  ctx_->send(client, enc.take());
  return true;
}

void RsmReplica::drain_pending_confirmations() {
  // Commit evidence only grows, and a parked conf was tested when it
  // arrived, so it can turn answerable only after the evidence grew:
  // re-test then, not on every frame.
  const std::size_t committed = engine_->committed_count();
  if (committed == committed_seen_) return;
  committed_seen_ = committed;
  std::erase_if(pending_confs_, [this](const PendingConf& conf) {
    return confirm(conf.client, conf.set);
  });
}

}  // namespace bla::rsm
