#include "store/fetch.hpp"

#include <algorithm>

namespace bla::store {

namespace {
// Byzantine-facing caps: a fetch frame names at most this many digests
// (honest fetchers send exactly one — the slack only covers future
// batching), and the requester tracks at most this many distinct
// fetches / parked thunks before shedding load.
constexpr std::size_t kMaxDigestsPerFetch = 8;
constexpr std::size_t kMaxFetchStates = std::size_t{1} << 16;
constexpr std::size_t kMaxPending = std::size_t{1} << 12;
}  // namespace

BodyFetcher::BodyFetcher(Config config, std::shared_ptr<BodyStore> store,
                         SendFn send)
    : config_(std::move(config)),
      store_(std::move(store)),
      send_(std::move(send)),
      registry_(obs::registry_or_private(config_.registry)) {
  const std::string p = "node" + std::to_string(config_.self) + "/fetch/";
  stats_.fetches_sent = registry_->counter(p + "fetches_sent");
  stats_.replies_served = registry_->counter(p + "replies_served");
  stats_.bodies_fetched = registry_->counter(p + "bodies_fetched");
  stats_.not_found_replies = registry_->counter(p + "not_found_replies");
  stats_.garbage_replies = registry_->counter(p + "garbage_replies");
  stats_.rotations = registry_->counter(p + "rotations");
  // Warning class: an exhausted rotation or a shed thunk is a liveness
  // hazard the stall watchdog (Registry::health) must surface.
  stats_.exhausted = registry_->counter(p + "exhausted", /*warning=*/true);
  stats_.dedup_hits = registry_->counter(p + "dedup_hits");
  stats_.parked = registry_->counter(p + "parked");
  stats_.parked_dropped =
      registry_->counter(p + "parked_dropped", /*warning=*/true);
  stats_.rearms = registry_->counter(p + "rearms");
}

void BodyFetcher::add_candidates(FetchState& state,
                                 const std::vector<NodeId>& hints) {
  auto push = [&](NodeId id) {
    if (id == config_.self || id >= config_.n) return;
    if (std::find(state.candidates.begin(), state.candidates.end(), id) !=
        state.candidates.end()) {
      return;
    }
    state.candidates.push_back(id);
  };
  for (NodeId id : hints) push(id);
  for (NodeId id = 0; id < config_.n; ++id) push(id);
}

/// Tops the digest's outstanding requests up to the fan-out, walking the
/// candidate rotation. With fanout = f+1 at most f silent peers can
/// absorb requests while one stays with a responsive peer, whose
/// explicit (found / not-found / garbage) reply keeps rotation moving —
/// the runtime has no timers to recover a wedged single request.
void BodyFetcher::pump(const Digest& digest, FetchState& state) {
  const std::size_t fanout = std::max<std::size_t>(1, config_.fanout);
  while (state.outstanding.size() < fanout &&
         state.next < state.candidates.size()) {
    const NodeId to = state.candidates[state.next];
    state.next += 1;
    if (!state.outstanding.insert(to).second) continue;
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(MsgType::kFetchBody));
    enc.uvarint(1);
    enc.raw(std::span(digest.data(), digest.size()));
    ++stats_.fetches_sent;
    send_(to, enc.take());
  }
  if (state.outstanding.empty()) {
    // Every candidate failed. Go dormant; a future reference to the
    // same digest re-arms the rotation (await -> arm).
    ++stats_.exhausted;
    registry_->trace_event(config_.self, obs::EventKind::kWarnFetchExhausted,
                           obs::id64(digest));
  }
}

bool BodyFetcher::arm(const Digest& digest,
                      const std::vector<NodeId>& hints, bool critical) {
  auto it = fetches_.find(digest);
  if (it == fetches_.end()) {
    if (!critical && fetches_.size() >= kMaxFetchStates) {
      return false;  // Byzantine flood
    }
    it = fetches_.try_emplace(digest).first;
    registry_->trace_event(config_.self, obs::EventKind::kFetchMiss,
                           obs::id64(digest));
  }
  FetchState& state = it->second;
  add_candidates(state, hints);
  if (!state.outstanding.empty()) {
    ++stats_.dedup_hits;  // single-flight: join the outstanding fetch
    return true;
  }
  // Dormant (exhausted) fetch re-armed by a fresh reference: restart the
  // rotation from the top — a peer that answered not-found earlier may
  // well hold the body by now. Each reference buys at most one full
  // rotation, so termination is preserved.
  if (state.next >= state.candidates.size()) state.next = 0;
  pump(digest, state);
  return true;
}

void BodyFetcher::sweep() {
  std::vector<std::function<void()>> ready;
  for (auto it = pending_.begin(); it != pending_.end();) {
    for (auto dit = it->missing.begin(); dit != it->missing.end();) {
      if (store_->contains(*dit)) {
        dit = it->missing.erase(dit);
      } else {
        ++dit;
      }
    }
    if (it->missing.empty()) {
      ready.push_back(std::move(it->replay));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& replay : ready) replay();
}

std::size_t BodyFetcher::retry_exhausted() {
  std::size_t rearmed = 0;
  for (auto& [digest, state] : fetches_) {
    if (state.auto_rearms >= config_.max_auto_rearms) continue;
    // Only fetches a parked thunk still needs are worth more traffic.
    bool needed = false;
    for (const Pending& p : pending_) {
      if (p.missing.contains(digest)) {
        needed = true;
        break;
      }
    }
    if (!needed) continue;
    // A recovery pass means the owner saw a full stall window with no
    // progress, so any request still marked outstanding (or its reply)
    // is presumed dropped. Nothing else ever clears that mark on a
    // lossy link — a single lost kFetchBody would otherwise wedge the
    // digest forever behind the single-flight dedup.
    state.outstanding.clear();
    ++state.auto_rearms;
    state.next = 0;  // full fresh rotation: providers may hold it by now
    ++stats_.rearms;
    registry_->trace_event(config_.self, obs::EventKind::kFetchRearm,
                           obs::id64(digest), state.auto_rearms);
    pump(digest, state);
    ++rearmed;
  }
  return rearmed;
}

void BodyFetcher::await(const std::vector<Digest>& missing,
                        const std::vector<NodeId>& hints,
                        std::function<void()> replay, bool critical) {
  sweep();
  Pending pending;
  pending.replay = std::move(replay);
  for (const Digest& d : missing) {
    if (!store_->contains(d)) pending.missing.insert(d);
  }
  if (pending.missing.empty()) {
    pending.replay();  // resolved in the meantime (or spurious park)
    return;
  }
  if (!critical && pending_.size() >= kMaxPending) {
    // Queue full (a Byzantine reference flood can park unsatisfiable
    // thunks that never resolve): evict the *oldest* entry rather than
    // refusing the newest, so honest frames arriving after a flood
    // still get their slot while the junk ages out.
    ++stats_.parked_dropped;
    registry_->trace_event(config_.self, obs::EventKind::kWarnParkShed);
    pending_.pop_front();
  }
  for (const Digest& d : pending.missing) {
    if (!arm(d, hints, critical)) {
      // Fetch-state cap hit: nothing will ever wake this thunk, so
      // shed it (counted) instead of parking it to rot.
      ++stats_.parked_dropped;
      registry_->trace_event(config_.self, obs::EventKind::kWarnParkShed,
                             obs::id64(d));
      return;
    }
  }
  ++stats_.parked;
  registry_->trace_event(config_.self, obs::EventKind::kFetchPark,
                         obs::id64(*pending.missing.begin()),
                         pending.missing.size());
  pending_.push_back(std::move(pending));
}

bool BodyFetcher::handle(NodeId from, std::uint8_t type, wire::Decoder& dec) {
  if (!is_store_type(type)) return false;
  sweep();
  try {
    if (type == static_cast<std::uint8_t>(MsgType::kFetchBody)) {
      on_fetch(from, dec);
    } else {
      on_reply(from, dec);
    }
  } catch (const wire::WireError&) {
    // Malformed: Byzantine sender; drop.
  }
  return true;
}

void BodyFetcher::on_fetch(NodeId from, wire::Decoder& dec) {
  const std::uint64_t count = dec.uvarint();
  if (count == 0 || count > kMaxDigestsPerFetch) {
    throw wire::WireError("oversized fetch");
  }
  // Amplification bound: at most ONE body leaves per fetch frame (honest
  // fetchers only ask for one anyway — pump() encodes single-digest
  // frames). Extra found digests are answered not-found, which an honest
  // batching requester would simply retry; a Byzantine one gains no
  // multiplier. One reply frame per digest keeps each frame under the
  // body cap.
  bool body_served = false;
  for (std::uint64_t i = 0; i < count; ++i) {
    const wire::BytesView raw = dec.raw(crypto::Sha256::kDigestSize);
    Digest d;
    std::copy(raw.begin(), raw.end(), d.begin());
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(MsgType::kBodyReply));
    enc.uvarint(1);
    enc.raw(raw);
    const std::shared_ptr<const wire::Bytes> body =
        body_served ? nullptr : store_->get(d);
    if (body) {
      enc.u8(1);
      enc.bytes(*body);
      body_served = true;
    } else {
      enc.u8(0);
    }
    ++stats_.replies_served;
    send_(from, enc.take());
  }
}

void BodyFetcher::on_reply(NodeId from, wire::Decoder& dec) {
  const std::uint64_t count = dec.uvarint();
  if (count == 0 || count > kMaxDigestsPerFetch) {
    throw wire::WireError("oversized reply");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const wire::BytesView raw = dec.raw(crypto::Sha256::kDigestSize);
    Digest d;
    std::copy(raw.begin(), raw.end(), d.begin());
    const bool found = dec.u8() != 0;
    wire::Bytes body;
    if (found) body = dec.bytes();

    auto it = fetches_.find(d);
    // Only replies we actually solicited count: accepting unsolicited
    // bodies would let any peer stuff our store.
    if (it == fetches_.end() || it->second.outstanding.erase(from) == 0) {
      continue;
    }
    FetchState& state = it->second;
    if (found && body.size() <= config_.max_body_bytes &&
        body_digest(body) == d) {
      store_->put_trusted(d, std::move(body));
      ++stats_.bodies_fetched;
      registry_->trace_event(config_.self, obs::EventKind::kFetchResolve,
                             obs::id64(d));
      fetches_.erase(it);
      resolve(d);
      continue;
    }
    // Provider failed us: not-found, oversized, or a body that does not
    // hash to the digest. Rotate to the next candidate.
    if (found) {
      ++stats_.garbage_replies;
    } else {
      ++stats_.not_found_replies;
    }
    if (state.next < state.candidates.size()) ++stats_.rotations;
    pump(d, state);
  }
}

void BodyFetcher::resolve(const Digest& digest) {
  // Collect ready thunks first, run them after the queue is consistent:
  // a replay may reenter await() and push new pending entries.
  std::vector<std::function<void()>> ready;
  for (auto it = pending_.begin(); it != pending_.end();) {
    it->missing.erase(digest);
    if (it->missing.empty()) {
      ready.push_back(std::move(it->replay));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& replay : ready) replay();
}

}  // namespace bla::store
