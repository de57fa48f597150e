#include "core/gwts.hpp"

#include <algorithm>
#include <iterator>

namespace bla::core {

namespace {
constexpr std::size_t kMaxWaitingMsgs = 1 << 16;
}  // namespace

GwtsProcess::GwtsProcess(EngineConfig config, DecideFn on_decide,
                         std::shared_ptr<store::BodyStore> store,
                         std::size_t max_payload_bytes)
    : EngineBase(std::move(config), std::move(on_decide), std::move(store),
                 "gwts",
                 // A value is known-safe locally once it has a disclosure
                 // round or is already decided — snapshots made of such
                 // values adopt without a vouch quorum (pure expansion).
                 [this](const Value& v) {
                   return value_round_.contains(v) || decided_set_.contains(v);
                 }),
      rbc_(
          rbc::BrachaRbc::Config{config_.self, config_.n, config_.f,
                                 config_.digest_refs, store_, registry_,
                                 max_payload_bytes},
          [this](NodeId to, wire::Bytes bytes) {
            ctx_->send(to, std::move(bytes));
          },
          [this](NodeId origin, std::uint64_t tag, wire::Bytes payload) {
            on_rbc_deliver(origin, tag, std::move(payload));
          }) {
  const std::string p = "node" + std::to_string(config_.self) + "/gwts/";
  obs_broadcast_rejected_ =
      registry_->counter(p + "broadcast_rejected", /*warning=*/true);
  obs_compact_retries_ = registry_->counter(p + "compact_retries");
  obs_commits_ = registry_->counter(p + "commits");
  obs_accepted_delta_ = registry_->gauge(p + "accepted_delta");
  obs_proposed_delta_ = registry_->gauge(p + "proposed_delta");
}

bool GwtsProcess::handle_layer_frame(NodeId from, std::uint8_t type,
                                     wire::Decoder& dec) {
  return rbc_.handle(from, type, dec);
}

void GwtsProcess::on_stall() {
  // Fill tally gaps message loss tore into wedged RBC instances, retry
  // pulls, and probe for instances we never heard of at all (partition /
  // crash windows). Then re-send the current phase frame. Both are
  // idempotent at receivers: a repeated SEND is ignored by echoed
  // instances, and a repeated ack-req re-publishes the acceptor's ack
  // (bounded by max_reacks) — the repeat is what marks ours as lost.
  rbc_.retry_undelivered();
  retry_pulls();
  probe_missed_instances();
  if (state_ == State::kDisclosing) {
    broadcast_disclosure(batches_[round_]);
  } else if (state_ == State::kProposing) {
    send_ack_req();
  }
}

void GwtsProcess::probe_missed_instances() {
  // A replica that sat out a partition or crash window can be rounds
  // behind peers who kept deciding without it. The RBC instances it
  // missed left no local trace, so retry_undelivered cannot ask for
  // them — but their tags are predictable: disclosures are tagged by
  // round, acks by a per-origin counter, and both namespaces' horizons
  // are visible in post-heal traffic (max_seen_round_ /
  // max_ack_seq_seen_). Probe a bounded window of not-yet-delivered
  // tags per origin; peers answer kVoteReq from retained votes, and the
  // recovered disclosures + acks rebuild each missed round's commit,
  // which check_decide replays in order (the quorum-intersection
  // comparability argument is round-agnostic, so replaying old commits
  // is exactly as safe as deciding them live).
  constexpr std::size_t kProbesPerOrigin = 32;
  for (NodeId origin = 0; origin < static_cast<NodeId>(config_.n);
       ++origin) {
    if (origin == config_.self) continue;
    std::size_t sent = 0;
    for (std::uint64_t r = round_; r <= max_seen_round_ && sent < kProbesPerOrigin;
         ++r) {
      if (!rbc_.has_delivered(origin, r)) {
        rbc_.request_votes(origin, r);
        ++sent;
      }
    }
    const auto seq_it = max_ack_seq_seen_.find(origin);
    if (seq_it == max_ack_seq_seen_.end()) continue;
    auto& cursor = ack_probe_cursor_[origin];
    while (cursor <= seq_it->second &&
           rbc_.has_delivered(origin, kAckTagBase | cursor)) {
      ++cursor;
    }
    sent = 0;
    for (std::uint64_t c = cursor;
         c <= seq_it->second && sent < kProbesPerOrigin; ++c) {
      if (!rbc_.has_delivered(origin, kAckTagBase | c)) {
        rbc_.request_votes(origin, kAckTagBase | c);
        ++sent;
      }
    }
  }
}

void GwtsProcess::start_round() {
  // Alg. 3 lines 11-15 (the state=newround transition). round_ holds the
  // round being started; the constructor primes it at 0.
  if (!begin_round()) {
    state_ = State::kStopped;  // acceptor role stays live
    return;
  }
  state_ = State::kDisclosing;
  // Peers' values first disclosed for this round while an earlier one ran
  // were not merged on delivery (they are safe only from this round on):
  // merge them now, as if delivered in this round.
  std::vector<Value> early;
  for (const auto& [v, round] : value_round_) {
    if (round == round_ && !decided_set_.contains(v)) early.push_back(v);
  }
  if (!early.empty()) {
    proposed_set_.merge(delta_of(ValueSet::from_sorted(std::move(early))));
    obs_proposed_delta_.set(proposed_set_.size());
  }

  const ValueSet& batch = batches_[round_];
  bool sent = broadcast_disclosure(batch);
  if (!sent && ckpt_.force_checkpoint(decided_set_)) {
    // RBC refused the disclosure (frame cap). Checkpoint-covered values
    // are already decided and need no re-disclosure; a forced checkpoint
    // plus stripping them often shrinks the batch back under the cap
    // (ROADMAP 1b: compact and retry instead of counting and dropping).
    ckpt_round_ = round_;
    compact_state();
    ValueSet& stored = batches_[round_];
    stored = delta_of(stored);
    sent = broadcast_disclosure(stored);
    if (sent) {
      obs_compact_retries_.inc();
      proposed_set_.merge(stored);
      obs_proposed_delta_.set(proposed_set_.size());
    }
  } else if (sent) {
    proposed_set_.merge(delta_of(batch));
    obs_proposed_delta_.set(proposed_set_.size());
  }
  if (!sent) {
    // Still over the cap: proposing undisclosed values would wedge us —
    // acceptors park ack-reqs until every value is safe — so the batch
    // is dropped *loudly*: warning counter + trace, and the client-side
    // retransmit give-up surfaces the loss.
    ++obs_broadcast_rejected_;
    registry_->trace_event(config_.self,
                           obs::EventKind::kWarnBroadcastRejected, round_,
                           batches_[round_].size());
  }
  // The transition below may already hold if n-f disclosures for this
  // round arrived while we were finishing the previous one.
  if (disclosure_counter_[round_] >= disclosure_threshold(config_.n, config_.f)) {
    begin_proposing();
  }
}

bool GwtsProcess::round_wanted() const {
  const auto undecided = [this](const Value& v) {
    return !decided_set_.contains(v);
  };
  if (std::ranges::any_of(proposed_set_, undecided) ||
      std::ranges::any_of(accepted_set_, undecided)) {
    return true;
  }
  // A disclosure for round_ delivered while an earlier round ran is not
  // in proposed_set_; its fresh values are those first disclosed in it.
  return peer_opened() &&
         std::ranges::any_of(value_round_, [&](const auto& entry) {
           return entry.second == round_ && undecided(entry.first);
         });
}

bool GwtsProcess::peer_opened() const {
  const auto disclosed = disclosure_counter_.find(round_);
  return disclosed != disclosure_counter_.end() && disclosed->second > 0;
}

bool GwtsProcess::broadcast_disclosure(const ValueSet& batch) {
  // Inline spelling (refs=false: disclosure is first contact with the
  // content), but through the ref codec — receivers decode disclosures
  // with a RefResolver, so the escape rules must match on both sides —
  // and registering the bodies in our store up front serves early pulls.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kDisclosure));
  store::encode_value_set_ref(enc, batch, store_.get(), /*refs=*/false);
  enc.u64(round_);
  return rbc_.broadcast(/*tag=*/round_, enc.view());
}

void GwtsProcess::begin_proposing() {
  // Alg. 3 lines 22-25.
  state_ = State::kProposing;
  note_progress();
  ts_ += 1;
  send_ack_req();
  drain_waiting();
  check_decide();
}

void GwtsProcess::send_ack_req() {
  registry_->trace_event(config_.self, obs::EventKind::kPropose, round_,
                         proposed_set_.size());
  // The proposed set is cumulative across rounds; the compact codec
  // ships it as [checkpoint root]+delta (references keep each delta
  // value at 33 bytes), so the frame stops growing with history.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kAckReq));
  ckpt_.encode_compact_set(enc, proposed_set_, config_.digest_refs);
  enc.u64(ts_);
  enc.u64(round_);
  ctx_->broadcast(enc.take());
}

void GwtsProcess::handle_frame(NodeId from, wire::BytesView payload) {
  try {
    wire::Decoder dec(payload);
    PendingPoint msg;
    msg.from = from;
    msg.type = static_cast<MsgType>(dec.u8());
    switch (msg.type) {
      case MsgType::kAckReq:
      case MsgType::kNack: {
        store::RefResolver resolver(store_.get());
        auto compact = ckpt_.decode_compact_set(dec, resolver, from);
        msg.ts = dec.u64();
        msg.round = dec.u64();
        dec.expect_done();
        // Horizon for the discovery probes: peers' ack-reqs are the
        // earliest post-heal signal of how far the cluster advanced.
        max_seen_round_ = std::max(max_seen_round_, msg.round);
        if (msg.type == MsgType::kAckReq) note_round(from, msg.round);
        if (!resolver.complete()) {
          park(from, resolver, payload);
          return;
        }
        if (compact.root && !compact.expanded) {
          // [unknown root]+delta: park until the checkpoint manager has
          // pulled and adopted the sender's snapshot, then replay the
          // whole frame (decode will expand it against the root).
          wire::Bytes copy(payload.begin(), payload.end());
          ckpt_.await_root(*compact.root, from,
                           [this, from, copy = std::move(copy)] {
                             handle_frame(from, copy);
                           });
          return;
        }
        msg.set = std::move(compact.set);
        break;
      }
      default:
        return;  // not a GWTS point-to-point message
    }
    if (waiting_point_.size() < kMaxWaitingMsgs) {
      waiting_point_.push_back(std::move(msg));
    }
    drain_waiting();
  } catch (const wire::WireError&) {
    // Malformed: Byzantine; drop.
  }
}

void GwtsProcess::on_rbc_deliver(NodeId origin, std::uint64_t tag,
                                 wire::Bytes payload) {
  try {
    if ((tag & kAckTagBase) != 0) {
      const std::uint64_t ack_seq = tag & ~kAckTagBase;
      auto& seq = max_ack_seq_seen_[origin];
      seq = std::max(seq, ack_seq);
      on_broadcast_ack(origin, ack_seq, std::move(payload));
    } else {
      max_seen_round_ = std::max(max_seen_round_, tag);
      on_disclosure(origin, /*round=*/tag, std::move(payload));
    }
  } catch (const wire::WireError&) {
    // Byzantine payload inside a correctly delivered broadcast; drop.
  }
}

void GwtsProcess::on_disclosure(NodeId origin, std::uint64_t round,
                                wire::Bytes payload) {
  wire::Decoder dec(payload);
  if (static_cast<MsgType>(dec.u8()) != MsgType::kDisclosure) return;
  // Honest disclosures inline their values (first contact with the
  // content) and the resolver absorbs the bodies into the store, which
  // is what later digest references resolve against. References inside
  // a disclosure still resolve/pull correctly (Byzantine senders may
  // produce them).
  store::RefResolver resolver(store_.get());
  ValueSet batch = resolver.value_set(dec);
  const std::uint64_t declared_round = dec.u64();
  dec.expect_done();
  if (declared_round != round) return;  // tag / payload mismatch: Byzantine
  if (!resolver.complete()) {
    rbc_.fetcher().await(resolver.missing(), {origin},
                         [this, origin, round, payload] {
                           on_disclosure(origin, round, payload);
                         });
    return;
  }

  // Alg. 3 lines 16-20. The RBC tag pins (origin, round), so each origin
  // contributes at most one batch per round (Observation 3).
  if (registry_->lifecycle().enabled()) {
    // A disclosed value has cleared reliable broadcast: the kRbcDeliver
    // stage of its lifecycle. Monotone marking in the Lifecycle makes
    // repeats (n replicas see each disclosure) free after the first.
    for (const Value& v : batch) {
      registry_->lifecycle().mark(store_->digest(v),
                                  obs::Stage::kRbcDeliver, config_.self);
    }
  }
  for (const Value& v : batch) {
    auto [it, inserted] = value_round_.try_emplace(v, round);
    if (inserted) {
      ++safety_version_;
    } else if (round < it->second) {
      it->second = round;
      ++safety_version_;
    }
  }
  disclosure_counter_[round] += 1;
  note_round(origin, round);
  note_progress();
  if (round <= round_ && state_ != State::kStopped) {
    // Delta-space merge: a laggard re-disclosing checkpointed values
    // must not re-inflate our proposal delta.
    proposed_set_.merge(delta_of(batch));
    obs_proposed_delta_.set(proposed_set_.size());
  }

  if (state_ == State::kDisclosing &&
      disclosure_counter_[round_] >=
          disclosure_threshold(config_.n, config_.f)) {
    begin_proposing();
  } else {
    drain_waiting();
  }
}

bool GwtsProcess::safe_at(const ValueSet& set, std::uint64_t round) const {
  return safe_at(set.elements(), round);
}

bool GwtsProcess::safe_at(const std::vector<Value>& elems,
                          std::uint64_t round) const {
  for (const Value& v : elems) {
    // Checkpoint grant: a covered value was decided — either here (own
    // checkpoint; it had a disclosure round ≤ its decision round) or at
    // a correct replica (quorum-vouched adopted snapshot). Decided
    // values are in every W_r universe, so the grant only shortcuts the
    // lookup that compact_state pruned.
    if (ckpt_.covered_any(v)) continue;
    auto it = value_round_.find(v);
    if (it == value_round_.end() || it->second > round) return false;
  }
  return true;
}

void GwtsProcess::on_broadcast_ack(NodeId acceptor, std::uint64_t seq,
                                   wire::Bytes payload) {
  wire::Decoder dec(payload);
  if (static_cast<MsgType>(dec.u8()) != MsgType::kGwtsAck) return;
  PendingAck pending;
  pending.acceptor = acceptor;
  store::RefResolver resolver(store_.get());
  auto compact = ckpt_.decode_compact_set(dec, resolver, acceptor);
  pending.key.round = dec.u64();
  dec.expect_done();
  max_seen_round_ = std::max(max_seen_round_, pending.key.round);
  // The (seq → round) record is what lets compact_state translate
  // "rounds behind the checkpoint" into a contiguous ack-tag expiry
  // floor. Recorded before any parking: the instance *is* delivered.
  delivered_ack_rounds_[acceptor][seq] = pending.key.round;
  if (!resolver.complete()) {
    // The acceptor holds every body its (cumulative) ack references.
    rbc_.fetcher().await(resolver.missing(), {acceptor},
                         [this, acceptor, seq, payload] {
                           on_broadcast_ack(acceptor, seq, payload);
                         });
    return;
  }
  if (compact.root && !compact.expanded) {
    // Ack over an unknown checkpoint root: park until the snapshot is
    // pulled and adopted (the payload copy keeps the frame replayable
    // even if the Bracha instance is expired meanwhile).
    ckpt_.await_root(*compact.root, acceptor,
                     [this, acceptor, seq, payload] {
                       on_broadcast_ack(acceptor, seq, payload);
                     });
    return;
  }
  pending.key.set_elems = compact.set.elements();

  if (waiting_acks_.size() < kMaxWaitingMsgs) {
    waiting_acks_.push_back(std::move(pending));
  }
  drain_waiting();
}

void GwtsProcess::record_ack(NodeId acceptor, const AckKey& key) {
  // Alg. 3 lines 34-36 + Alg. 4 lines 14-16: the ack joins the (shared)
  // history; quorum appearances commit the proposal.
  // A re-delivered ack (a re-publication under a fresh tag) adds no
  // supporter and must not commit the key again.
  auto& supporters = ack_history_[key];
  if (!supporters.insert(acceptor).second) return;
  note_progress();
  if (supporters.size() == byz_quorum(config_.n, config_.f)) {
    obs_commits_.inc();
    committed_by_round_[key.round].push_back(key);
    rounds_with_commit_.insert(key.round);
    record_committed(key.set_elems);
    // Alg. 4 lines 17-19: a committed proposal of round Safe_r lets the
    // acceptor trust the next round. Chain upward in case later rounds
    // committed while we lagged.
    while (rounds_with_commit_.contains(safe_r_)) {
      safe_r_ += 1;
    }
    check_decide();
  }
}

void GwtsProcess::check_decide() {
  // Alg. 3 lines 37-41: decide any proposal committed in our current
  // round that extends our previous decision (Local Stability).
  if (state_ != State::kProposing) return;
  auto it = committed_by_round_.find(round_);
  if (it == committed_by_round_.end()) return;
  for (const AckKey& key : it->second) {
    // set_elems is canonical (sorted elements()) — adopt, don't rebuild.
    ValueSet set = ValueSet::from_sorted(key.set_elems);
    if (!decided_set_.leq(set)) continue;
    // Growing decisions drive the checkpoint clock: once the decided set
    // outgrew the interval, commit it and collapse downstream state
    // before the next round's frames are built.
    const bool grew = record_decision(set, round_);
    if (grew && ckpt_.maybe_checkpoint(decided_set_)) {
      ckpt_round_ = round_;
      compact_state();
    }
    note_progress();
    state_ = State::kIdle;
    next_round(grew);
    return;
  }
}

void GwtsProcess::drain_waiting() {
  // Re-entrancy guard: record_ack / handle_ack_req can synchronously
  // self-deliver an RBC frame (check_decide → start_round → broadcast),
  // whose handler pushes onto these queues and calls drain_waiting
  // again. The nested call must not touch the queues mid-scan — the
  // outer fixpoint loop picks up whatever it appended.
  if (draining_) return;
  draining_ = true;
  bool progress = true;
  while (progress) {
    progress = false;

    // Reliably broadcast acks become actionable once safe at their round
    // and the acceptor trusts that round (Alg. 4 line 14). A failed
    // safe_at verdict is cached against safety_version_: it cannot flip
    // until a disclosure changes value_round_, and skipping the re-scan
    // keeps this loop linear when recovery parks hundreds of cumulative
    // acks at once. Indices, not iterators: nested handlers may
    // push_back (which invalidates deque iterators) even with the
    // re-entrancy guard in place.
    for (std::size_t i = 0; i < waiting_acks_.size();) {
      PendingAck& ack = waiting_acks_[i];
      if (ack.key.round > safe_r_ ||
          ack.checked_version == safety_version_) {
        ++i;
        continue;
      }
      if (safe_at(ack.key.set_elems, ack.key.round)) {
        const PendingAck pending = std::move(ack);
        waiting_acks_.erase(waiting_acks_.begin() + i);
        record_ack(pending.acceptor, pending.key);
        progress = true;
      } else {
        ack.checked_version = safety_version_;
        ++i;
      }
    }

    // Point-to-point ack requests (acceptor) and nacks (proposer).
    for (std::size_t i = 0; i < waiting_point_.size();) {
      PendingPoint& msg = waiting_point_[i];
      bool consumed = false;
      if (msg.type == MsgType::kAckReq) {
        // Alg. 4 line 6: requires safety and round trust.
        if (msg.round <= safe_r_ &&
            msg.checked_version != safety_version_) {
          if (safe_at(msg.set, msg.round)) {
            handle_ack_req(msg);
            consumed = true;
          } else {
            msg.checked_version = safety_version_;
          }
        }
      } else {  // kNack
        if (state_ != State::kProposing) {
          consumed = (state_ == State::kStopped);
        } else if (msg.ts != ts_ || msg.round != round_) {
          consumed = msg.ts < ts_ || msg.round < round_;  // stale: drop
        } else if (msg.checked_version != safety_version_) {
          if (safe_at(msg.set, round_)) {
            handle_nack(msg);
            consumed = true;
          } else {
            msg.checked_version = safety_version_;
          }
        }
      }
      if (consumed) {
        waiting_point_.erase(waiting_point_.begin() + i);
        progress = true;
      } else {
        ++i;
      }
    }
  }
  draining_ = false;
}

void GwtsProcess::handle_ack_req(const PendingPoint& msg) {
  // Alg. 4 lines 6-13. msg.set arrived fully expanded (decode merged the
  // snapshot behind any known root); accepted_set_ is stored as a delta,
  // so the inclusion test runs over its expansion. Ack keys stay over
  // the FULL elements — is_committed digests are representation-free.
  if (expand(accepted_set_).leq(msg.set)) {
    accepted_set_ = delta_of(msg.set);
    obs_accepted_delta_.set(accepted_set_.size());
    // Publish the acceptance — but only once per (set, round): a second
    // identical RBC would add no information (Bracha Totality hands the
    // first to every correct proposer, whoever asked) and would blow the
    // §6.4 message bound. A first ask from another proposer is answered
    // by the broadcast already out.
    AckKey key{msg.set.elements(), msg.round};
    auto [it, fresh] = acks_published_.try_emplace(std::move(key));
    auto [asker, first_ask] = it->second.try_emplace(msg.from, 0);
    bool rebroadcast = fresh;
    if (!first_ask && config_.recovery.enabled &&
        asker->second < config_.recovery.max_reacks) {
      // The same asker asking again is its stall re-send: it (or its RBC
      // instance) lost the ack. Re-publish under a fresh tag — the old
      // instance may be wedged mid-quorum — bounded per key and asker so
      // a Byzantine pester can't mint unbounded RBCs. Per asker: askers
      // cut off from a quorum through an outage re-send all along, and
      // must not spend the re-acks of one that rejoins after it.
      ++asker->second;
      obs_retries_.inc();
      registry_->trace_event(config_.self, obs::EventKind::kEngineRetry,
                             msg.round, msg.from);
      rebroadcast = true;
    }
    if (rebroadcast) {
      bool sent = broadcast_ack(msg.round);
      if (!sent && ckpt_.force_checkpoint(decided_set_)) {
        // The delta outgrew the frame cap: force a checkpoint, re-delta
        // against it, and retry once (ROADMAP 1b — compact instead of
        // counting and dropping).
        ckpt_round_ = round_;
        compact_state();
        sent = broadcast_ack(msg.round);
        if (sent) obs_compact_retries_.inc();
      }
      if (!sent) {
        // Still over the cap. Un-record a first publication so a later,
        // post-checkpoint ack-req can retry instead of being silently
        // suppressed forever; a refused re-ack keeps the record and its
        // spent budget. By key: the compaction above may have pruned
        // the record `it` points to (its round is below round_).
        if (fresh) acks_published_.erase(AckKey{msg.set.elements(), msg.round});
        ++obs_broadcast_rejected_;
        registry_->trace_event(config_.self,
                               obs::EventKind::kWarnBroadcastRejected,
                               msg.round, accepted_set_.size());
      }
    }
  } else {
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(MsgType::kNack));
    ckpt_.encode_compact_set(enc, accepted_set_, config_.digest_refs);
    enc.u64(msg.ts);
    enc.u64(msg.round);
    ctx_->send(msg.from, enc.take());
    accepted_set_.merge(delta_of(msg.set));
    obs_accepted_delta_.set(accepted_set_.size());
  }
}

bool GwtsProcess::broadcast_ack(std::uint64_t round) {
  // The accepted set is cumulative — the by-far biggest repeat offender
  // in bytes (it rides an O(n²) RBC per ack). The compact codec ships
  // [root]+delta with 33-byte references; every receiver saw the bodies
  // via disclosure or pulls them from us.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGwtsAck));
  ckpt_.encode_compact_set(enc, accepted_set_, config_.digest_refs);
  enc.u64(round);
  return rbc_.broadcast(kAckTagBase | ack_tag_counter_++, enc.view());
}

void GwtsProcess::handle_nack(const PendingPoint& msg) {
  // Alg. 3 lines 28-33, in delta space: a checkpoint-covered element is
  // in every expansion already, so only the delta can grow the proposal
  // (and growth-vs-delta ⟺ growth-vs-expansion for such elements).
  const ValueSet delta = delta_of(msg.set);
  if (!proposed_set_.would_grow_by(delta)) return;
  proposed_set_.merge(delta);
  obs_proposed_delta_.set(proposed_set_.size());
  note_progress();
  ts_ += 1;
  count_refinement();
  send_ack_req();
}

ValueSet GwtsProcess::expand(const ValueSet& delta) const {
  const checkpoint::Snapshot& snap = ckpt_.latest();
  if (snap.seq == 0) return delta;
  ValueSet full = ValueSet::from_sorted(*snap.elements);
  full.merge(delta);
  return full;
}

ValueSet GwtsProcess::delta_of(const ValueSet& full) const {
  if (ckpt_.latest().seq == 0) return full;
  std::vector<Value> kept;
  kept.reserve(full.size());
  for (const Value& v : full) {
    if (!ckpt_.covered(v)) kept.push_back(v);
  }
  return ValueSet::from_sorted(std::move(kept));  // filtered: still sorted
}

void GwtsProcess::compact_state() {
  // A fresh own checkpoint covers everything the previous one did plus
  // more (decided sets only grow), so re-deltaing the working sets is a
  // pure filter by the new covered() — no expansion round-trip needed.
  proposed_set_ = delta_of(proposed_set_);
  accepted_set_ = delta_of(accepted_set_);
  obs_proposed_delta_.set(proposed_set_.size());
  obs_accepted_delta_.set(accepted_set_.size());

  // Disclosure rounds of covered values are now answered by the safe_at
  // checkpoint grant; dropping the entries unpins the value bodies from
  // engine state. The version bump re-arms parked safe_at verdicts
  // (their cached failures may flip under the new grant).
  for (auto it = value_round_.begin(); it != value_round_.end();) {
    if (ckpt_.covered(it->first)) {
      it = value_round_.erase(it);
    } else {
      ++it;
    }
  }
  ++safety_version_;

  // Ack bookkeeping below the checkpoint round is settled history. A
  // decision at ckpt_round_ required a quorum-committed proposal there,
  // which required safe_r_ ≥ ckpt_round_ — the chaining already passed
  // these rounds, so partial tallies for them can never matter again.
  // committed_sets_ (is_committed answers over all time) and
  // rounds_with_commit_ (Safe_r chaining, 8 bytes/round) stay.
  for (auto it = ack_history_.begin(); it != ack_history_.end();) {
    it = it->first.round < ckpt_round_ ? ack_history_.erase(it)
                                       : std::next(it);
  }
  committed_by_round_.erase(committed_by_round_.begin(),
                            committed_by_round_.lower_bound(ckpt_round_));
  for (auto it = acks_published_.begin(); it != acks_published_.end();) {
    it = it->first.round < ckpt_round_ ? acks_published_.erase(it)
                                       : std::next(it);
  }
  batches_.erase(batches_.begin(), batches_.lower_bound(round_));
  disclosure_counter_.erase(
      disclosure_counter_.begin(),
      disclosure_counter_.lower_bound(
          ckpt_round_ >= 1 ? ckpt_round_ - 1 : 0));

  // Bracha expiry — the unified-GC half that caps RBC instance state.
  // Disclosures (tag = round): everything ≥ 2 rounds behind the
  // checkpoint. Acks (tag = kAckTagBase | seq): per-origin contiguous
  // seq prefix whose recorded rounds are all ≥ 2 behind; gaps stop the
  // floor (an undelivered instance may still be wanted by probes).
  if (ckpt_round_ >= 2) {
    const std::uint64_t floor_round = ckpt_round_ - 1;
    for (NodeId origin = 0; origin < static_cast<NodeId>(config_.n);
         ++origin) {
      rbc_.expire_below(origin, /*space=*/0, floor_round);
    }
  }
  for (auto& [origin, rounds] : delivered_ack_rounds_) {
    std::uint64_t floor = ack_expired_floor_[origin];
    while (true) {
      auto it = rounds.find(floor);
      if (it == rounds.end() || it->second + 1 >= ckpt_round_) break;
      ++floor;
    }
    if (floor > ack_expired_floor_[origin]) {
      rbc_.expire_below(origin, kAckTagBase, kAckTagBase | floor);
      rounds.erase(rounds.begin(), rounds.lower_bound(floor));
      auto& cursor = ack_probe_cursor_[origin];
      cursor = std::max(cursor, floor);
      ack_expired_floor_[origin] = floor;
    }
  }
}

void GwtsProcess::on_snapshot_adopted(const checkpoint::Snapshot& snap,
                                      bool quorum) {
  // Adoption widens the safe_at grant (covered_any now passes for the
  // snapshot's elements) — parked verdicts must re-check.
  ++safety_version_;
  if (quorum) {
    // Laggard catch-up: ≥ f+1 distinct peers referenced this root, so a
    // correct replica checkpointed it — the snapshot is that replica's
    // decided prefix. GLA Comparability makes merging it into our own
    // decided set stay on the common chain, without replaying the
    // history (rounds, disclosures, acks) that produced it.
    record_decision(ValueSet::from_sorted(*snap.elements), round_);
    note_progress();
  }
  drain_waiting();
}

}  // namespace bla::core
