#include "core/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/gsbs.hpp"
#include "core/gwts.hpp"

namespace bla::core {

namespace {
// Timer tokens: the recovery tick, and the start hop of submit(value, ctx).
constexpr std::uint64_t kRecoveryToken = 0;
constexpr std::uint64_t kStartToken = 1;
}  // namespace

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
  peer_rounds_.assign(config_.n, 0);
}

void EngineBase::submit(Value value) {
  // Before start, on_start applies the start rule; inside an upcall, its
  // epilogue does. Anywhere else an idle engine would sit on the value.
  if (started_ && ctx_ == nullptr) {
    throw std::logic_error(
        "EngineBase::submit: after on_start, outside the engine's upcalls, "
        "pass the caller's context");
  }
  batches_[idle() ? round_ : round_ + 1].insert(std::move(value));
}

void EngineBase::submit(Value value, net::IContext& ctx) {
  const bool was_idle = idle();
  batches_[was_idle ? round_ : round_ + 1].insert(std::move(value));
  // Nested in the engine's own upcall, its epilogue applies the start
  // rule. Otherwise an idle engine applies it from a zero-delay timer,
  // after the rest of this instant's arrivals joined the batch: values
  // that arrive together start one round, not one round and the next.
  if (ctx_ != nullptr || !was_idle || start_pending_) return;
  start_pending_ = true;
  ctx.schedule(0.0, kStartToken);
}

void EngineBase::on_start(net::IContext& ctx) {
  ctx_ = &ctx;
  started_ = true;
  last_round_change_ = ctx.now();
  settle();
  ctx_ = nullptr;
}

void EngineBase::on_message(net::IContext& ctx, NodeId from,
                            wire::BytesView payload) {
  ctx_ = &ctx;
  bool consumed = true;
  try {
    wire::Decoder dec(payload);
    const std::uint8_t type = dec.u8();
    // Deliveries, parked replays, fetch traffic and adoption upcalls all
    // run inside these handlers with ctx_ set.
    consumed =
        handle_layer_frame(from, type, dec) || ckpt_.handle(from, type, dec);
  } catch (const wire::WireError&) {
    // empty/truncated frame: Byzantine; drop
  }
  if (!consumed) handle_frame(from, payload);
  settle();
  ctx_ = nullptr;
}

void EngineBase::on_timer(net::IContext& ctx, std::uint64_t token) {
  if (token == kStartToken) {
    start_pending_ = false;
    ctx_ = &ctx;
    settle();
    ctx_ = nullptr;
    return;
  }
  timer_armed_ = false;
  // The chain ends once stopped (a stopped engine serves acceptors
  // message-driven), once the retry budget is spent on a permanently
  // wedged run, or once nothing is pending — so the simulation can
  // quiesce.
  if (!config_.recovery.enabled || rounds_exhausted() ||
      resends_ >= config_.recovery.max_resends || (idle() && !behind())) {
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
    // An idle engine here is behind: joining round_ sends its first
    // frame, which peers past that round answer with what ended it. f+1
    // peers past round_ include a correct one, so this counts as demand.
    if (idle()) {
      opened_by_peer_ = false;
      start_round();
    }
    last_progress_ = ctx.now();  // space retries one stall window apart
    last_round_change_ = ctx.now();
  }
  timer_armed_ = true;
  ctx.schedule(config_.recovery.tick, kRecoveryToken);
  settle();
  ctx_ = nullptr;
}

void EngineBase::maybe_start(bool grew) {
  if (grew || batches_.contains(round_) || round_wanted()) {
    opened_by_peer_ = false;
  } else if (!opened_by_peer_ && peer_opened()) {
    opened_by_peer_ = true;
  } else {
    return;
  }
  start_round();
}

void EngineBase::settle() {
  if (idle()) maybe_start(/*grew=*/false);
  if (!config_.recovery.enabled || timer_armed_ || (idle() && !behind())) {
    return;
  }
  // A fresh chain: the engine was idle, which counts as progress.
  timer_armed_ = true;
  last_progress_ = ctx_->now();
  ctx_->schedule(config_.recovery.tick, kRecoveryToken);
}

void EngineBase::next_round(bool grew) {
  round_ += 1;
  maybe_start(grew);
}

void EngineBase::note_round(NodeId from, std::uint64_t round) {
  if (from < peer_rounds_.size() && from != config_.self) {
    peer_rounds_[from] = std::max(peer_rounds_[from], round);
  }
}

bool EngineBase::behind() const {
  const auto ahead = std::ranges::count_if(
      peer_rounds_, [this](std::uint64_t r) { return r > round_; });
  return static_cast<std::size_t>(ahead) > config_.f;
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
