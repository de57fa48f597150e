#include "rbc/bracha.hpp"

#include <algorithm>

namespace bla::rbc {

namespace {
/// Early-warning threshold for broadcast payload growth: 3/4 of the cap.
constexpr std::size_t near_cap(std::size_t cap) { return cap - cap / 4; }
}  // namespace

BrachaRbc::BrachaRbc(Config config, SendFn send, DeliverFn deliver)
    : config_(std::move(config)),
      send_(std::move(send)),
      deliver_(std::move(deliver)),
      store_(config_.store ? config_.store
                           : std::make_shared<store::BodyStore>()),
      registry_(obs::registry_or_private(config_.registry)),
      fetcher_(
          store::BodyFetcher::Config{config_.self, config_.n,
                                     config_.max_payload_bytes,
                                     /*fanout=*/config_.f + 1,
                                     /*max_auto_rearms=*/4, registry_},
          store_, [this](NodeId to, wire::Bytes b) { send_(to, std::move(b)); }) {
  const std::string p = "node" + std::to_string(config_.self) + "/rbc/";
  stats_.oversized_payload = registry_->counter(p + "oversized_payload");
  stats_.malformed = registry_->counter(p + "malformed");
  stats_.bad_origin = registry_->counter(p + "bad_origin");
  stats_.instance_cap = registry_->counter(p + "instance_cap");
  stats_.duplicate_vote = registry_->counter(p + "duplicate_vote");
  stats_.delivered = registry_->counter(p + "delivered");
  stats_.deliveries_pending_fetch =
      registry_->counter(p + "deliveries_pending_fetch");
  stats_.oversized_broadcast =
      registry_->counter(p + "oversized_broadcast", /*warning=*/true);
  stats_.near_cap_broadcast =
      registry_->counter(p + "near_cap_broadcast", /*warning=*/true);
  stats_.vote_reqs_sent = registry_->counter(p + "vote_reqs_sent");
  stats_.vote_reqs_served = registry_->counter(p + "vote_reqs_served");
  stats_.expired_instances = registry_->counter(p + "expired_instances");
  stats_.expired_frames = registry_->counter(p + "expired_frames");
  largest_broadcast_ = registry_->gauge(
      p + "largest_broadcast_bytes",
      /*warn_at=*/static_cast<double>(near_cap(config_.max_payload_bytes)));
  live_instances_ = registry_->gauge(p + "live_instances");
}

BrachaRbc::Instance* BrachaRbc::instance_for(const InstanceKey& key) {
  auto it = instances_.find(key);
  if (it != instances_.end()) return &it->second;
  std::size_t& count = instances_per_origin_[key.origin];
  if (count >= kMaxInstancesPerOrigin) {  // Byzantine flood
    ++stats_.instance_cap;
    return nullptr;
  }
  ++count;
  Instance* inst = &instances_[key];
  live_instances_.set(static_cast<double>(instances_.size()));
  return inst;
}

bool BrachaRbc::expired(NodeId origin, std::uint64_t tag) const {
  const auto it = epoch_floors_.find(origin);
  if (it == epoch_floors_.end()) return false;
  const auto& floors = it->second;
  auto f = floors.upper_bound(tag);  // first space base > tag
  if (f == floors.begin()) return false;
  --f;  // greatest space base <= tag
  return tag < f->second;
}

std::size_t BrachaRbc::expire_below(NodeId origin, std::uint64_t space,
                                    std::uint64_t floor) {
  if (floor <= space) return 0;
  std::uint64_t& recorded = epoch_floors_[origin][space];
  if (floor <= recorded) return 0;  // monotone
  recorded = floor;
  std::size_t erased = 0;
  auto it = instances_.lower_bound(InstanceKey{origin, space});
  const auto end = instances_.lower_bound(InstanceKey{origin, floor});
  while (it != end) {
    Instance& inst = it->second;
    // Evict the retained payload body: anything this instance carried is
    // superseded by the checkpoint the floor came from, and a laggard
    // that still needs the content catches up from the snapshot instead.
    if (config_.digest_frames && inst.delivered &&
        inst.delivered_vote.size() == crypto::Sha256::kDigestSize) {
      store::Digest d;
      std::copy(inst.delivered_vote.begin(), inst.delivered_vote.end(),
                d.begin());
      store_->erase(d);
    }
    it = instances_.erase(it);
    ++erased;
  }
  if (erased > 0) {
    auto count = instances_per_origin_.find(origin);
    if (count != instances_per_origin_.end()) {
      count->second -= std::min(count->second, erased);
    }
    stats_.expired_instances.inc(erased);
    live_instances_.set(static_cast<double>(instances_.size()));
  }
  return erased;
}

void BrachaRbc::release_instance(Instance& inst) {
  inst.echoers.clear();
  inst.readiers.clear();
  inst.echo_counts.clear();
  inst.ready_counts.clear();
}

void BrachaRbc::emit(MsgType type, const InstanceKey& key,
                     wire::BytesView vote) {
  registry_->trace_event(config_.self,
                         type == MsgType::kEcho ? obs::EventKind::kRbcEcho
                                                : obs::EventKind::kRbcReady,
                         key.tag, key.origin);
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(type));
  enc.u32(key.origin);
  enc.u64(key.tag);
  if (config_.digest_frames) {
    enc.raw(vote);  // fixed 32-byte digest
  } else {
    enc.bytes(vote);  // legacy: the full payload
  }
  for (NodeId to = 0; to < config_.n; ++to) {
    send_(to, enc.view());
  }
}

void BrachaRbc::emit_to(NodeId to, MsgType type, const InstanceKey& key,
                        wire::BytesView vote) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(type));
  enc.u32(key.origin);
  enc.u64(key.tag);
  if (config_.digest_frames) {
    enc.raw(vote);
  } else {
    enc.bytes(vote);
  }
  send_(to, enc.take());
}

bool BrachaRbc::broadcast(std::uint64_t tag, wire::BytesView payload) {
  largest_broadcast_.max_of(static_cast<double>(payload.size()));
  if (payload.size() > config_.max_payload_bytes) {
    // Every correct receiver would reject this SEND; fail loudly at the
    // send site instead of stalling the cluster silently. The engines
    // react by compacting to a checkpoint and retrying (ROADMAP 1b).
    ++stats_.oversized_broadcast;
    registry_->trace_event(config_.self,
                           obs::EventKind::kWarnOversizedBroadcast, tag,
                           payload.size());
    return false;
  }
  if (payload.size() > near_cap(config_.max_payload_bytes)) {
    ++stats_.near_cap_broadcast;
    registry_->trace_event(config_.self,
                           obs::EventKind::kWarnNearCapBroadcast, tag,
                           payload.size());
  }
  registry_->trace_event(config_.self, obs::EventKind::kRbcSend, tag,
                         payload.size());
  // SEND carries no origin field: the authenticated channel provides it.
  // It is the one frame type that ships the body even under digest
  // dissemination — the origin is the only process that has it.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kSend));
  enc.u64(tag);
  enc.bytes(payload);
  for (NodeId to = 0; to < config_.n; ++to) {
    send_(to, enc.view());
  }
  return true;
}

bool BrachaRbc::handle(NodeId from, std::uint8_t type, wire::Decoder& dec) {
  if (fetcher_.handle(from, type, dec)) return true;
  if (!is_rbc_type(type)) return false;
  try {
    switch (static_cast<MsgType>(type)) {
      case MsgType::kSend:
        on_send(from, dec);
        break;
      case MsgType::kEcho:
        on_echo(from, dec);
        break;
      case MsgType::kReady:
        on_ready(from, dec);
        break;
      case MsgType::kVoteReq:
        on_vote_req(from, dec);
        break;
    }
  } catch (const wire::WireError&) {
    // Malformed frame: necessarily from a Byzantine sender; drop it.
    ++stats_.malformed;
  }
  return true;
}

wire::Bytes BrachaRbc::decode_vote(wire::Decoder& dec) {
  if (config_.digest_frames) {
    const wire::BytesView raw = dec.raw(crypto::Sha256::kDigestSize);
    return wire::Bytes(raw.begin(), raw.end());
  }
  return dec.bytes();
}

void BrachaRbc::on_send(NodeId from, wire::Decoder& dec) {
  const std::uint64_t tag = dec.u64();
  wire::Bytes payload = dec.bytes();
  if (payload.size() > config_.max_payload_bytes) {
    ++stats_.oversized_payload;
    return;
  }
  if (expired(from, tag)) {
    ++stats_.expired_frames;
    return;
  }

  const InstanceKey key{from, tag};
  Instance* inst = instance_for(key);

  if (!config_.digest_frames) {
    if (inst == nullptr || inst->echoed) return;
    inst->echoed = true;
    emit(MsgType::kEcho, key, payload);
    return;
  }

  // Store the body only when this SEND advances an instance we admitted,
  // or is one a pending delivery / parked frame is actively waiting for
  // (quorum reached before SEND). Unconditional puts would hand a
  // Byzantine sender unbounded, never-evicted memory: rejected frames —
  // instance-cap overflow, duplicate SENDs nobody wants — must stay
  // allocation-free beyond this stack frame.
  const bool admits_echo = inst != nullptr && !inst->echoed;
  const store::Digest d = store::body_digest(payload);
  if (!admits_echo && !fetcher_.awaiting(d)) return;
  store_->put_trusted(d, std::move(payload));
  fetcher_.sweep();
  if (!admits_echo) return;
  inst->echoed = true;
  wire::Bytes vote(d.begin(), d.end());
  emit(MsgType::kEcho, key, vote);
}

void BrachaRbc::on_vote_req(NodeId from, wire::Decoder& dec) {
  const NodeId origin = dec.u32();
  const std::uint64_t tag = dec.u64();
  if (origin >= config_.n) {
    ++stats_.bad_origin;
    return;
  }
  // Never materialize an instance for a request: a Byzantine asker must
  // not be able to burn per-origin cap slots with probes.
  const auto it = instances_.find(InstanceKey{origin, tag});
  if (it == instances_.end()) return;
  const Instance& inst = it->second;
  const InstanceKey& key = it->first;
  if (inst.delivered) {
    if (inst.delivered_vote.empty()) return;  // legacy mode: not retained
    ++stats_.vote_reqs_served;
    emit_to(from, MsgType::kEcho, key, inst.delivered_vote);
    emit_to(from, MsgType::kReady, key, inst.delivered_vote);
    return;
  }
  // Undelivered: our own votes are in the tallies (emit() loops back
  // through self), so re-offer exactly what we voted — no new retention.
  bool served = false;
  for (const auto& [vote, supporters] : inst.echo_counts) {
    if (supporters.contains(config_.self)) {
      emit_to(from, MsgType::kEcho, key, vote);
      served = true;
      break;
    }
  }
  for (const auto& [vote, supporters] : inst.ready_counts) {
    if (supporters.contains(config_.self)) {
      emit_to(from, MsgType::kReady, key, vote);
      served = true;
      break;
    }
  }
  if (served) ++stats_.vote_reqs_served;
}

bool BrachaRbc::has_delivered(NodeId origin, std::uint64_t tag) const {
  if (expired(origin, tag)) return true;  // superseded by a checkpoint
  const auto it = instances_.find(InstanceKey{origin, tag});
  return it != instances_.end() && it->second.delivered;
}

void BrachaRbc::request_votes(NodeId origin, std::uint64_t tag) {
  registry_->trace_event(config_.self, obs::EventKind::kRbcVoteReq, tag,
                         origin);
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kVoteReq));
  enc.u32(origin);
  enc.u64(tag);
  for (NodeId to = 0; to < config_.n; ++to) {
    if (to == config_.self) continue;
    ++stats_.vote_reqs_sent;
    send_(to, enc.view());
  }
}

std::size_t BrachaRbc::retry_undelivered(std::size_t max_requests) {
  std::size_t sent = 0;
  for (auto& [key, inst] : instances_) {
    if (sent >= max_requests) break;
    if (inst.delivered) continue;
    if (inst.vote_req_rounds >= kMaxVoteReqRounds) continue;
    ++inst.vote_req_rounds;
    registry_->trace_event(config_.self, obs::EventKind::kRbcVoteReq,
                           key.tag, key.origin);
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(MsgType::kVoteReq));
    enc.u32(key.origin);
    enc.u64(key.tag);
    for (NodeId to = 0; to < config_.n; ++to) {
      if (to == config_.self) continue;
      ++stats_.vote_reqs_sent;
      send_(to, enc.view());
    }
    ++sent;
  }
  return sent;
}

void BrachaRbc::maybe_ready(const InstanceKey& key, Instance& inst,
                            const wire::Bytes& vote) {
  if (inst.readied) return;
  inst.readied = true;
  emit(MsgType::kReady, key, vote);
}

void BrachaRbc::on_echo(NodeId from, wire::Decoder& dec) {
  const NodeId origin = dec.u32();
  const std::uint64_t tag = dec.u64();
  // Origins are always real broadcasters (ids < n). Without this check a
  // Byzantine echoer could fabricate instances under 2^32 distinct
  // origins, making the per-origin instance cap bound nothing. Checked
  // before materializing the vote so rejection is allocation-free.
  if (origin >= config_.n) {
    ++stats_.bad_origin;
    return;
  }
  wire::Bytes vote = decode_vote(dec);
  if (vote.size() > config_.max_payload_bytes) {
    ++stats_.oversized_payload;
    return;
  }
  if (expired(origin, tag)) {
    ++stats_.expired_frames;
    return;
  }

  const InstanceKey key{origin, tag};
  Instance* inst = instance_for(key);
  if (inst == nullptr || inst->delivered) return;
  // One ECHO per peer per instance: a Byzantine echoing many payloads
  // contributes to at most one tally.
  if (!inst->echoers.insert(from).second) {
    ++stats_.duplicate_vote;
    return;
  }
  auto& supporters = inst->echo_counts[vote];
  supporters.insert(from);
  if (supporters.size() >= echo_quorum()) {
    maybe_ready(key, *inst, vote);
  }
}

void BrachaRbc::on_ready(NodeId from, wire::Decoder& dec) {
  const NodeId origin = dec.u32();
  const std::uint64_t tag = dec.u64();
  if (origin >= config_.n) {  // see on_echo
    ++stats_.bad_origin;
    return;
  }
  wire::Bytes vote = decode_vote(dec);
  if (vote.size() > config_.max_payload_bytes) {
    ++stats_.oversized_payload;
    return;
  }
  if (expired(origin, tag)) {
    ++stats_.expired_frames;
    return;
  }

  const InstanceKey key{origin, tag};
  Instance* inst = instance_for(key);
  if (inst == nullptr || inst->delivered) return;
  if (!inst->readiers.insert(from).second) {
    ++stats_.duplicate_vote;
    return;
  }
  auto& supporters = inst->ready_counts[vote];
  supporters.insert(from);

  if (supporters.size() >= ready_amplify()) {
    // f+1 READYs contain at least one correct process: safe to amplify.
    maybe_ready(key, *inst, vote);
  }
  if (supporters.size() >= ready_deliver()) {
    deliver(key, *inst, vote);
  }
}

void BrachaRbc::deliver(const InstanceKey& key, Instance& inst,
                        const wire::Bytes& vote) {
  inst.delivered = true;

  if (!config_.digest_frames) {
    wire::Bytes payload = vote;
    // Integrity makes the tallies dead weight from here on (at most one
    // delivery per instance); free them and refund the payers.
    release_instance(inst);
    ++stats_.delivered;
    registry_->trace_event(config_.self, obs::EventKind::kRbcDeliver,
                           key.tag, key.origin);
    deliver_(key.origin, key.tag, std::move(payload));
    return;
  }

  // Retain the winning digest (32 bytes) so kVoteReq from lagging peers
  // can be answered after the tallies are released.
  inst.delivered_vote = vote;
  store::Digest d;
  std::copy(vote.begin(), vote.end(), d.begin());
  if (auto body = store_->get(d)) {
    release_instance(inst);
    ++stats_.delivered;
    registry_->trace_event(config_.self, obs::EventKind::kRbcDeliver,
                           key.tag, key.origin);
    deliver_(key.origin, key.tag, *body);
    return;
  }

  // Delivery quorum reached before the body (SEND reordered behind the
  // quorum, or a Byzantine origin excluded us). Any delivery quorum
  // contains ≥ f+1 correct processes whose READY chains back to an echo
  // quorum, so ≥ f+1 correct peers hold the body: pull it from the
  // supporters of this digest, then every other peer.
  ++stats_.deliveries_pending_fetch;
  std::vector<NodeId> hints;
  for (NodeId id : inst.echo_counts[vote]) hints.push_back(id);
  for (NodeId id : inst.ready_counts[vote]) hints.push_back(id);
  release_instance(inst);
  const NodeId origin = key.origin;
  const std::uint64_t tag = key.tag;
  // Critical park: this delivery fires at most once per (origin, tag)
  // instance — volume already bounded by the per-origin instance caps —
  // and shedding it would break Totality with no recovery path (the
  // instance is marked delivered above).
  fetcher_.await(
      {d}, hints,
      [this, origin, tag, d] {
        auto body = store_->get(d);
        if (!body) return;
        ++stats_.delivered;
        registry_->trace_event(config_.self, obs::EventKind::kRbcDeliver,
                               tag, origin);
        deliver_(origin, tag, *body);
      },
      /*critical=*/true);
}

}  // namespace bla::rbc
