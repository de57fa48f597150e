#include "core/engine.hpp"

#include <stdexcept>

#include "core/gsbs.hpp"
#include "core/gwts.hpp"

namespace bla::core {

EngineBase::EngineBase(EngineConfig config, DecideFn on_decide,
                       std::shared_ptr<store::BodyStore> store,
                       const char* name,
                       std::function<bool(const Value&)> known_safe)
    : config_(std::move(config)),
      on_decide_(std::move(on_decide)),
      store_(store ? std::move(store) : std::make_shared<store::BodyStore>()),
      registry_(obs::registry_or_private(config_.registry)),
      ckpt_(checkpoint::Config{config_.self, config_.n, config_.f,
                               config_.checkpoint_interval, store_, registry_,
                               std::move(known_safe)},
            [this](NodeId to, wire::Bytes bytes) {
              ctx_->send(to, std::move(bytes));
            },
            [this](const checkpoint::Snapshot& snap, bool quorum) {
              on_snapshot_adopted(snap, quorum);
            }) {
  const std::string p =
      "node" + std::to_string(config_.self) + "/" + name + "/";
  obs_rounds_ = registry_->counter(p + "rounds");
  obs_decisions_ = registry_->counter(p + "decisions");
  obs_refinements_ = registry_->counter(p + "refinements");
  obs_retries_ = registry_->counter(p + "retries");
}

void EngineBase::submit(Value value) {
  const std::uint64_t target = started_ ? round_ + 1 : 0;
  batches_[target].insert(std::move(value));
}

void EngineBase::on_start(net::IContext& ctx) {
  ctx_ = &ctx;
  started_ = true;
  if (config_.recovery.enabled) {
    last_progress_ = ctx.now();
    last_round_change_ = ctx.now();
    ctx.schedule(config_.recovery.tick, 0);
  }
  start_round();
  ctx_ = nullptr;
}

void EngineBase::on_message(net::IContext& ctx, NodeId from,
                            wire::BytesView payload) {
  ctx_ = &ctx;
  try {
    wire::Decoder dec(payload);
    const std::uint8_t type = dec.u8();
    // Deliveries, parked replays, fetch traffic and adoption upcalls all
    // run inside these handlers with ctx_ set.
    if (handle_layer_frame(from, type, dec) || ckpt_.handle(from, type, dec)) {
      ctx_ = nullptr;
      return;
    }
  } catch (const wire::WireError&) {
    ctx_ = nullptr;
    return;  // empty/truncated frame: Byzantine; drop
  }
  handle_frame(from, payload);
  ctx_ = nullptr;
}

void EngineBase::on_timer(net::IContext& ctx, std::uint64_t /*token*/) {
  // The chain ends once stopped (a stopped engine serves acceptors
  // message-driven) or once the retry budget is spent on a permanently
  // wedged run — either way the simulation can quiesce.
  if (!config_.recovery.enabled || rounds_exhausted() ||
      resends_ >= config_.recovery.max_resends) {
    return;
  }
  ctx_ = &ctx;
  if (ctx.now() - last_progress_ >= config_.recovery.stall_after ||
      ctx.now() - last_round_change_ >= config_.recovery.stall_after) {
    ++resends_;
    obs_retries_.inc();
    registry_->trace_event(config_.self, obs::EventKind::kEngineRetry, round_,
                           phase());
    on_stall();
    last_progress_ = ctx.now();  // space retries one stall window apart
    last_round_change_ = ctx.now();
  }
  ctx.schedule(config_.recovery.tick, 0);
  ctx_ = nullptr;
}

void EngineBase::park(NodeId from, const store::RefResolver& resolver,
                      wire::BytesView frame) {
  wire::Bytes copy(frame.begin(), frame.end());
  fetcher().await(resolver.missing(), {from},
                  [this, from, copy = std::move(copy)] {
                    handle_frame(from, copy);
                  });
}

void EngineBase::retry_pulls() {
  fetcher().retry_exhausted();
  ckpt_.retry_pending();
}

void EngineBase::note_progress() {
  if (config_.recovery.enabled && ctx_ != nullptr) {
    last_progress_ = ctx_->now();
  }
}

bool EngineBase::begin_round() {
  if (rounds_exhausted()) return false;
  obs_rounds_.inc();
  if (config_.recovery.enabled && ctx_ != nullptr) {
    last_round_change_ = ctx_->now();
  }
  return true;
}

bool EngineBase::record_decision(const ValueSet& set, std::uint64_t round) {
  if (!decided_set_.would_grow_by(set)) return false;
  decided_set_.merge(set);
  decisions_.push_back(
      Decision{decided_set_, round, ctx_ != nullptr ? ctx_->now() : 0.0});
  obs_decisions_.inc();
  registry_->trace_event(config_.self, obs::EventKind::kDecide, round,
                         decided_set_.size());
  if (on_decide_) on_decide_(decisions_.back());
  return true;
}

crypto::Sha256::Digest content_key(std::span<const Value> sorted_elems,
                                   const store::BodyStore& store) {
  wire::Encoder count;
  count.uvarint(sorted_elems.size());
  crypto::Sha256 h;
  h.update(count.view());
  for (const Value& v : sorted_elems) h.update(store.digest(v));
  return h.finish();
}

std::unique_ptr<IAgreementEngine> make_engine(
    EngineKind kind, const EngineConfig& config,
    std::shared_ptr<const crypto::ISigner> signer,
    IAgreementEngine::DecideFn on_decide,
    std::shared_ptr<store::BodyStore> store) {
  switch (kind) {
    case EngineKind::kGwts:
      return std::make_unique<GwtsProcess>(config, std::move(on_decide),
                                           std::move(store));
    case EngineKind::kGsbs:
      if (!signer) {
        throw std::invalid_argument("GSbS engine requires a signer");
      }
      return std::make_unique<GsbsProcess>(config, std::move(signer),
                                           std::move(on_decide),
                                           std::move(store));
  }
  throw std::invalid_argument("unknown engine kind");
}

}  // namespace bla::core
