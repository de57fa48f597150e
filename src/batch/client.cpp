#include "batch/client.hpp"

#include <algorithm>

#include "lattice/value.hpp"

namespace bla::batch {

namespace {
[[nodiscard]] BatchBuilderConfig with_proposer(BatchBuilderConfig cfg,
                                               NodeId proposer) {
  cfg.proposer = proposer;
  return cfg;
}
}  // namespace

BatchClient::BatchClient(Config config,
                         std::shared_ptr<const crypto::ISigner> signer,
                         std::vector<lattice::Value> commands)
    : config_(config),
      registry_(obs::registry_or_private(config.registry)),
      builder_(with_proposer(config.builder, config.self), std::move(signer)),
      pipeline_(BatchProposer::Config{config.max_in_flight, config.f + 1,
                                      config.self, registry_, config.retry}),
      queue_(commands.begin(), commands.end()),
      total_commands_(commands.size()) {}

void BatchClient::on_start(net::IContext& ctx) {
  registry_->trace_event(config_.self, obs::EventKind::kSubmit,
                         total_commands_);
  if (paced()) {
    pace_allowance_ = config_.pace_commands;
    ctx.schedule(config_.pace_interval, 1);
  }
  pump(ctx);
  maybe_finish(ctx);
  if (config_.retry.enabled && !done()) {
    ctx.schedule(config_.retry.tick, 0);
  }
}

void BatchClient::on_timer(net::IContext& ctx, std::uint64_t token) {
  if (token == 1) {
    // Pacing tick: refill the allowance (no carry-over — a stalled
    // pipeline must not bank a burst) and release the next slice.
    if (done() || !paced()) return;
    pace_allowance_ = config_.pace_commands;
    pump(ctx);
    maybe_finish(ctx);
    if (!done() && !queue_.empty()) ctx.schedule(config_.pace_interval, 1);
    return;
  }
  // Letting the chain end at done() is what lets simulations quiesce
  // with retry enabled.
  if (!config_.retry.enabled || done()) return;
  for (BatchProposer::Retransmit& rt : pipeline_.due(ctx.now())) {
    // Widen the contact set by one replica per attempt: the original
    // f+1 may all sit behind a partition or include a crashed replica.
    const auto fanout = static_cast<NodeId>(
        std::min(config_.n, config_.f + rt.attempts));
    for (NodeId replica = 0; replica < fanout; ++replica) {
      ctx.send(replica, rt.frame);
    }
  }
  pump(ctx);          // give-ups may have freed window slots
  maybe_finish(ctx);  // ...or drained the pipeline entirely
  if (!done()) ctx.schedule(config_.retry.tick, 0);
}

void BatchClient::maybe_finish(net::IContext& ctx) {
  if (done()) return;
  if (queue_.empty() && builder_.pending_commands() == 0 &&
      pipeline_.in_flight() == 0) {
    finish_time_ = ctx.now();
    done_.store(true, std::memory_order_release);
  }
}

void BatchClient::on_message(net::IContext& ctx, NodeId from,
                             wire::BytesView payload) {
  if (from >= config_.n) return;  // only replicas speak to clients
  try {
    wire::Decoder dec(payload);
    const auto type = static_cast<core::MsgType>(dec.u8());
    if (type == core::MsgType::kRsmDecide) {
      const lattice::ValueSet decided = lattice::decode_value_set(dec);
      dec.expect_done();
      pipeline_.on_decide_report(from, decided);
    } else if (type == core::MsgType::kRsmDecideDigest) {
      const std::uint64_t count = dec.uvarint();
      if (count > lattice::kMaxSetElements) {
        throw wire::WireError("oversized digest set");
      }
      std::set<crypto::Sha256::Digest> decided;
      for (std::uint64_t i = 0; i < count; ++i) {
        const wire::BytesView raw = dec.raw(crypto::Sha256::kDigestSize);
        crypto::Sha256::Digest d;
        std::copy(raw.begin(), raw.end(), d.begin());
        decided.insert(d);
      }
      dec.expect_done();
      pipeline_.on_decide_digest_report(from, decided);
    } else {
      return;
    }
    pump(ctx);
    maybe_finish(ctx);
  } catch (const wire::WireError&) {
    // Byzantine replica; drop.
  }
}

void BatchClient::pump(net::IContext& ctx) {
  while (pipeline_.can_submit()) {
    std::optional<SignedCommandBatch> sealed;
    while (!queue_.empty() && !sealed) {
      if (paced()) {
        if (pace_allowance_ == 0) break;  // wait for the next pace tick
        --pace_allowance_;
      }
      sealed = builder_.add(std::move(queue_.front()), ctx.now());
      queue_.pop_front();
    }
    if (!sealed) {
      if (queue_.empty()) {
        // End of stream: push the partial batch unconditionally. (The
        // builder's time bound never fires on an unpaced client — the
        // whole workload arrives upfront.)
        sealed = builder_.flush();
      } else {
        // Paced and out of allowance mid-stream: only the time bound may
        // seal the partial, so a trickle-rate workload still makes
        // progress in max_delay-sized batches instead of waiting for a
        // full one.
        sealed = builder_.flush_due(ctx.now());
      }
    }
    if (!sealed) return;
    submit(ctx, *sealed);
  }
}

void BatchClient::submit(net::IContext& ctx, const SignedCommandBatch& b) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
  encode_signed_batch(enc, b);
  // The frame is retained by the window only when retry is on — it is
  // the retransmission payload.
  pipeline_.mark_submitted(b, ctx.now(),
                           config_.retry.enabled
                               ? wire::Bytes(enc.view().begin(),
                                             enc.view().end())
                               : wire::Bytes{});
  // Alg. 5 line 3, batched: f+1 replicas, so at least one correct replica
  // proposes the batch.
  for (NodeId replica = 0;
       replica < static_cast<NodeId>(config_.f + 1) &&
       replica < static_cast<NodeId>(config_.n);
       ++replica) {
    ctx.send(replica, enc.view());
  }
}

}  // namespace bla::batch
