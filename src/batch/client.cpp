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
      commands_(std::move(commands)) {}

void BatchClient::on_start(net::IContext& ctx) {
  registry_->trace_event(config_.self, obs::EventKind::kSubmit,
                         commands_.size());
  if (paced()) {
    t0_ = ctx.now();
    due_to_confirm_ = registry_->histogram("latency/due_to_confirm");
  }
  pump(ctx);
  maybe_finish(ctx);
  if (paced()) schedule_tick(ctx);
  if (config_.retry.enabled && !done()) {
    ctx.schedule(config_.retry.tick, 0);
  }
}

std::size_t BatchClient::releasable() const {
  if (!paced()) return commands_.size();
  const std::uint64_t slots = tick_ + 1;
  return slots > commands_.size() / config_.pace_commands
             ? commands_.size()
             : static_cast<std::size_t>(slots) * config_.pace_commands;
}

void BatchClient::schedule_tick(net::IContext& ctx) {
  if (done() || released_ == commands_.size()) return;
  const double next =
      t0_ + static_cast<double>(tick_ + 1) * config_.pace_interval;
  ctx.schedule(std::max(0.0, next - ctx.now()), 1);
}

void BatchClient::on_timer(net::IContext& ctx, std::uint64_t token) {
  if (token == 1) {
    // Pacing tick: every tick up to now has come, so a late timer
    // releases all of their commands. The 1e-9 absorbs rounding in the
    // runtime's now() + delay; the max keeps a timer that fires on time
    // from reading as one tick early.
    if (done() || !paced()) return;
    const double ticks = (ctx.now() - t0_) / config_.pace_interval + 1e-9;
    tick_ = std::max(tick_ + 1, static_cast<std::uint64_t>(ticks));
    pump(ctx);
    maybe_finish(ctx);
    schedule_tick(ctx);
    return;
  }
  // Letting the chain end at done() is what lets simulations quiesce
  // with retry enabled.
  if (!config_.retry.enabled || done()) return;
  const std::uint64_t abandoned = pipeline_.batches_abandoned();
  for (BatchProposer::Retransmit& rt : pipeline_.due(ctx.now())) {
    // Widen the contact set by one replica per attempt: the original
    // f+1 may all sit behind a partition or include a crashed replica.
    const auto fanout = static_cast<NodeId>(
        std::min(config_.n, config_.f + rt.attempts));
    for (NodeId replica = 0; replica < fanout; ++replica) {
      ctx.send(replica, rt.frame);
    }
  }
  if (pipeline_.batches_abandoned() != abandoned) {
    std::erase_if(in_flight_due_,
                  [&](const auto& kv) { return !pipeline_.holds(kv.first); });
  }
  pump(ctx);          // give-ups may have freed window slots
  maybe_finish(ctx);  // ...or drained the pipeline entirely
  if (!done()) ctx.schedule(config_.retry.tick, 0);
}

void BatchClient::maybe_finish(net::IContext& ctx) {
  if (done()) return;
  if (released_ == commands_.size() && builder_.pending_commands() == 0 &&
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
      record_confirms(ctx, pipeline_.on_decide_report(from, decided));
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
      record_confirms(ctx, pipeline_.on_decide_digest_report(from, decided));
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
  // Nagle's rule: fill a batch with what may be released now, and seal
  // it, full or not, while a window slot is free. Commands that may not
  // be released yet wait for their pacing tick; commands beyond the
  // window wait for a confirm, and then go out in full batches.
  const std::size_t limit = releasable();
  while (pipeline_.can_submit()) {
    std::optional<SignedCommandBatch> sealed;
    while (released_ < limit && !sealed) {
      const std::uint64_t dropped = builder_.commands_dropped();
      sealed = builder_.add(std::move(commands_[released_]));
      if (paced() && builder_.commands_dropped() == dropped) {
        builder_due_.push_back(due(released_));
      }
      ++released_;
    }
    if (!sealed) sealed = builder_.flush();
    if (!sealed) return;
    submit(ctx, *sealed);
  }
}

void BatchClient::record_confirms(net::IContext& ctx,
                                  const std::vector<std::uint64_t>& seqs) {
  for (const std::uint64_t seq : seqs) {
    const auto it = in_flight_due_.find(seq);
    if (it == in_flight_due_.end()) continue;
    for (const double d : it->second) due_to_confirm_.observe(ctx.now() - d);
    in_flight_due_.erase(it);
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
  if (paced()) {
    // The builder is FIFO: the batch holds its oldest commands.
    const auto end = builder_due_.begin() +
                     static_cast<std::ptrdiff_t>(b.commands.size());
    in_flight_due_.emplace(b.seq,
                           std::vector<double>(builder_due_.begin(), end));
    builder_due_.erase(builder_due_.begin(), end);
  }
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
