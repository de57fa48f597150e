#include "checkpoint/checkpoint.hpp"

#include <algorithm>

namespace bla::checkpoint {

namespace {
/// Byzantine peers can mint roots for free; everything keyed by a root
/// is capped and shed (counted) rather than grown without bound.
constexpr std::size_t kMaxPendingRoots = 64;
constexpr std::size_t kMaxParkedReplays = 256;
constexpr std::size_t kMaxAdoptedSnapshots = 16;
constexpr std::size_t kMaxPullRearms = 8;

Digest read_digest(wire::Decoder& dec) {
  const wire::BytesView raw = dec.raw(crypto::Sha256::kDigestSize);
  Digest d{};
  std::copy(raw.begin(), raw.end(), d.begin());
  return d;
}

void write_digest(wire::Encoder& enc, const Digest& d) {
  enc.raw(std::span(d.data(), d.size()));
}

/// The rest of a kCkptSnapshot reply for `root`: nullopt for a clean
/// not-found; throws WireError when the frame is malformed or its
/// elements do not re-derive `root`.
std::optional<Snapshot> decode_snapshot(const Digest& root,
                                        wire::Decoder& dec) {
  const std::uint8_t found = dec.u8();
  if (found == 0) {
    dec.expect_done();
    return std::nullopt;
  }
  const std::uint64_t num_leaves = dec.uvarint();
  const std::uint64_t target_count = dec.uvarint();
  const std::uint64_t hash_count = dec.uvarint();
  if (num_leaves > lattice::kMaxSetElements ||
      target_count != num_leaves || hash_count != 0) {
    throw wire::WireError("bad snapshot shape");
  }
  const std::uint64_t elem_count = dec.uvarint();
  if (elem_count != num_leaves) throw wire::WireError("bad snapshot count");
  std::vector<Value> elems;
  elems.reserve(elem_count);
  for (std::uint64_t i = 0; i < elem_count; ++i) {
    elems.push_back(lattice::decode_value(dec));
    if (i > 0 && !(elems[i - 1] < elems[i])) {
      throw wire::WireError("snapshot not canonical");
    }
  }
  dec.expect_done();
  // Untrusted bytes: every leaf is hashed here, never looked up.
  std::vector<Hash> leaves;
  leaves.reserve(elems.size());
  for (const Value& v : elems) leaves.push_back(store::body_digest(v));
  if (commitment(leaves) != root) {
    throw wire::WireError("snapshot does not re-derive its root");
  }
  Snapshot snap;
  snap.seq = 0;  // foreign snapshots carry no own-sequence meaning
  snap.root = root;
  snap.elements = std::make_shared<const std::vector<Value>>(std::move(elems));
  snap.leaves = std::make_shared<const std::vector<Hash>>(std::move(leaves));
  return snap;
}

/// Leaf digest of `body` when `s` holds it: a binary search over the
/// sorted elements, comparing spans (no Value copy).
std::optional<Digest> snapshot_leaf(const Snapshot& s, wire::BytesView body) {
  if (!s.elements) return std::nullopt;
  const std::vector<Value>& elems = *s.elements;
  const auto it = std::lower_bound(
      elems.begin(), elems.end(), body, [](const Value& v, wire::BytesView b) {
        return std::lexicographical_compare(v.begin(), v.end(), b.begin(),
                                            b.end());
      });
  if (it == elems.end() || !std::equal(it->begin(), it->end(), body.begin(),
                                       body.end())) {
    return std::nullopt;
  }
  return (*s.leaves)[static_cast<std::size_t>(it - elems.begin())];
}
}  // namespace

CheckpointManager::CheckpointManager(Config config, SendFn send,
                                     AdoptFn on_adopt)
    : config_(std::move(config)),
      send_(std::move(send)),
      on_adopt_(std::move(on_adopt)) {
  config_.registry = obs::registry_or_private(std::move(config_.registry));
  const std::string p =
      "node" + std::to_string(config_.self) + "/checkpoint/";
  auto& reg = *config_.registry;
  taken_ = reg.counter(p + "taken");
  forced_ = reg.counter(p + "forced");
  evicted_ = reg.counter(p + "bodies_evicted");
  reserved_ = reg.counter(p + "bodies_reserved");
  pulls_sent_ = reg.counter(p + "pulls_sent");
  snapshots_served_ = reg.counter(p + "snapshots_served");
  snapshot_rejects_ = reg.counter(p + "snapshot_rejects", /*warning=*/true);
  adopted_count_ = reg.counter(p + "snapshots_adopted");
  adopted_quorum_ = reg.counter(p + "snapshots_adopted_quorum");
  replays_parked_ = reg.counter(p + "replays_parked");
  replays_dropped_ = reg.counter(p + "replays_dropped", /*warning=*/true);
  rearms_ = reg.counter(p + "rearms");
  elements_gauge_ = reg.gauge(p + "elements");
  store_bodies_gauge_ = reg.gauge(p + "store_bodies");
  if (enabled() && config_.store) config_.store->set_fallback(this);
}

CheckpointManager::~CheckpointManager() {
  if (enabled() && config_.store) config_.store->set_fallback(nullptr);
}

// -- checkpoint commit ------------------------------------------------------

bool CheckpointManager::maybe_checkpoint(const ValueSet& decided) {
  if (!enabled()) return false;
  if (decided.size() < own_.size() + config_.interval) return false;
  return take(decided, /*forced=*/false);
}

bool CheckpointManager::force_checkpoint(const ValueSet& decided) {
  if (!enabled()) return false;
  if (decided.size() <= own_.size()) return false;
  return take(decided, /*forced=*/true);
}

bool CheckpointManager::take(const ValueSet& decided, bool forced) {
  // Leaf order = canonical (sorted) element order, so any two replicas
  // checkpointing the same decided set derive the same root, no matter
  // which intermediate decisions each observed. Leaves come through the
  // store: each element was hashed when it was first stored (or is
  // served from an earlier snapshot's leaves).
  auto elements =
      std::make_shared<const std::vector<Value>>(decided.elements());
  std::vector<Hash> leaves;
  leaves.reserve(elements->size());
  for (const Value& v : *elements) leaves.push_back(leaf_digest(v));
  Snapshot snap;
  snap.seq = own_.seq + 1;
  snap.root = commitment(leaves);
  snap.elements = std::move(elements);
  snap.leaves = std::make_shared<const std::vector<Hash>>(std::move(leaves));
  previous_ = std::move(own_);
  own_ = std::move(snap);
  taken_.inc();
  if (forced) forced_.inc();
  elements_gauge_.set(static_cast<double>(own_.size()));
  // Collapse the store: checkpointed bodies are re-served from the
  // snapshot through the fallback hook, so the live map can shed them.
  if (config_.store) {
    for (const Hash& d : *own_.leaves) {
      if (config_.store->erase(d)) evicted_.inc();
    }
    store_bodies_gauge_.set(
        static_cast<double>(config_.store->body_count()));
  }
  // Foreign snapshots fully covered by the new own checkpoint are dead
  // weight (covered_any answers from own_ first).
  for (auto it = adopted_.begin(); it != adopted_.end();) {
    const std::vector<Value>& elems = *it->second.elements;
    const bool subsumed =
        std::all_of(elems.begin(), elems.end(),
                    [this](const Value& v) { return covered(v); });
    it = subsumed ? adopted_.erase(it) : ++it;
  }
  reindex();
  config_.registry->trace_event(config_.self, obs::EventKind::kDecide,
                                own_.seq, own_.size());
  return true;
}

void CheckpointManager::reindex() {
  body_index_.clear();
  const auto index_snapshot = [this](const Snapshot& s) {
    if (!s.elements) return;
    for (std::size_t i = 0; i < s.elements->size(); ++i) {
      body_index_.try_emplace((*s.leaves)[i], s.elements, i);
    }
  };
  index_snapshot(own_);
  index_snapshot(previous_);
  for (const auto& [root, snap] : adopted_) index_snapshot(snap);
}

Digest CheckpointManager::leaf_digest(const Value& v) const {
  return config_.store ? config_.store->digest(v) : store::body_digest(v);
}

std::shared_ptr<const wire::Bytes> CheckpointManager::body(
    const Digest& d) const {
  const auto it = body_index_.find(d);
  if (it == body_index_.end()) return nullptr;
  reserved_.inc();
  // Aliasing handle into the snapshot's element vector: no copy, and the
  // vector stays alive as long as any caller holds the body.
  const auto& [elements, i] = it->second;
  return {elements, &(*elements)[i]};
}

std::optional<Digest> CheckpointManager::digest(wire::BytesView body) const {
  if (auto d = snapshot_leaf(own_, body)) return d;
  if (auto d = snapshot_leaf(previous_, body)) return d;
  for (const auto& [root, snap] : adopted_) {
    if (auto d = snapshot_leaf(snap, body)) return d;
  }
  return std::nullopt;
}

// -- coverage queries -------------------------------------------------------

bool CheckpointManager::covered(const Value& v) const {
  if (!own_.elements) return false;
  return std::binary_search(own_.elements->begin(), own_.elements->end(), v);
}

bool CheckpointManager::covered_any(const Value& v) const {
  if (covered(v)) return true;
  for (const auto& [root, snap] : adopted_) {
    if (std::binary_search(snap.elements->begin(), snap.elements->end(), v)) {
      return true;
    }
  }
  return false;
}

bool CheckpointManager::knows_root(const Digest& root) const {
  return find_root(root) != nullptr;
}

const Snapshot* CheckpointManager::find_root(const Digest& root) const {
  if (own_.seq > 0 && own_.root == root) return &own_;
  if (previous_.seq > 0 && previous_.root == root) return &previous_;
  const auto it = adopted_.find(root);
  if (it != adopted_.end()) return &it->second;
  return nullptr;
}

// -- compact set codec ------------------------------------------------------

void CheckpointManager::encode_compact_set(wire::Encoder& enc,
                                           const ValueSet& delta,
                                           bool refs) const {
  const bool with_root = enabled() && own_.seq > 0;
  enc.u8(with_root ? 1 : 0);
  if (with_root) write_digest(enc, own_.root);
  store::encode_value_set_ref(enc, delta, config_.store.get(), refs);
}

CheckpointManager::CompactSet CheckpointManager::decode_compact_set(
    wire::Decoder& dec, store::RefResolver& resolver, NodeId from) {
  CompactSet out;
  const std::uint8_t flags = dec.u8();
  if (flags & ~std::uint8_t{1}) throw wire::WireError("bad compact flags");
  if (flags & 1) out.root = read_digest(dec);
  out.set = resolver.value_set(dec);
  if (out.root) {
    vouch(*out.root, from);
    if (const Snapshot* snap = find_root(*out.root)) {
      out.set.merge(ValueSet::from_sorted(*snap->elements));
      out.expanded = true;
    }
  } else {
    out.expanded = true;  // nothing to expand
  }
  return out;
}

// -- vouching + pull protocol ----------------------------------------------

void CheckpointManager::vouch(const Digest& root, NodeId from) {
  if (!enabled() || knows_root(root)) return;
  if (from == config_.self || from >= static_cast<NodeId>(config_.n)) return;
  auto it = pending_.find(root);
  if (it == pending_.end()) {
    if (pending_.size() >= kMaxPendingRoots) return;
    it = pending_.emplace(root, PendingRoot{}).first;
  }
  it->second.vouchers.insert(from);
  try_adopt(root);
}

void CheckpointManager::await_root(const Digest& root, NodeId hint,
                                   std::function<void()> replay) {
  if (!enabled()) return;
  auto it = pending_.find(root);
  if (it == pending_.end()) {
    if (pending_.size() >= kMaxPendingRoots) {
      replays_dropped_.inc();
      return;
    }
    it = pending_.emplace(root, PendingRoot{}).first;
  }
  PendingRoot& st = it->second;
  if (replay) {
    if (st.replays.size() >= kMaxParkedReplays) {
      st.replays.erase(st.replays.begin());
      replays_dropped_.inc();
    }
    st.replays.push_back(std::move(replay));
    replays_parked_.inc();
  }
  add_candidates(st, hint);
  if (!st.verified && st.outstanding.empty()) send_pull(it->first, st);
  // The hint peer implicitly references the root too.
  vouch(root, hint);
}

void CheckpointManager::add_candidates(PendingRoot& st, NodeId hint) {
  const auto add = [&](NodeId id) {
    if (id == config_.self || id >= static_cast<NodeId>(config_.n)) return;
    if (std::find(st.candidates.begin(), st.candidates.end(), id) !=
        st.candidates.end()) {
      return;
    }
    st.candidates.push_back(id);
  };
  add(hint);
  for (NodeId id = 0; id < static_cast<NodeId>(config_.n); ++id) add(id);
}

void CheckpointManager::send_pull(const Digest& root, PendingRoot& st) {
  if (st.next >= st.candidates.size()) return;  // rotation exhausted
  const NodeId to = st.candidates[st.next++];
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kCkptPull));
  write_digest(enc, root);
  st.outstanding.insert(to);
  pulls_sent_.inc();
  send_(to, enc.take());
}

std::size_t CheckpointManager::retry_pending() {
  std::size_t sent = 0;
  for (auto& [root, st] : pending_) {
    if (st.verified || st.replays.empty()) continue;
    if (st.rearms >= kMaxPullRearms) continue;
    ++st.rearms;
    rearms_.inc();
    if (st.next >= st.candidates.size()) st.next = 0;  // restart rotation
    send_pull(root, st);
    ++sent;
  }
  return sent;
}

bool CheckpointManager::handle(NodeId from, std::uint8_t type,
                               wire::Decoder& dec) {
  if (!is_checkpoint_type(type)) return false;
  if (type == static_cast<std::uint8_t>(MsgType::kCkptSnapshot)) {
    on_snapshot(from, dec);
    return true;
  }
  try {
    on_pull(from, dec);
  } catch (const wire::WireError&) {
    snapshot_rejects_.inc();  // malformed: Byzantine sender
  }
  return true;
}

void CheckpointManager::on_pull(NodeId from, wire::Decoder& dec) {
  const Digest root = read_digest(dec);
  dec.expect_done();
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kCkptSnapshot));
  write_digest(enc, root);
  const Snapshot* snap = find_root(root);
  if (snap == nullptr) {
    enc.u8(0);  // not found: the requester rotates to its next candidate
    send_(from, enc.take());
    return;
  }
  enc.u8(1);
  // The whole set: the requester hashes every element and recomputes
  // the commitment itself.
  const std::vector<Value>& elems = *snap->elements;
  enc.uvarint(elems.size());       // num_leaves
  enc.uvarint(elems.size());       // targets: every leaf
  enc.uvarint(0);                  // extra hashes: none
  enc.uvarint(elems.size());       // elements, canonical order
  for (const Value& v : elems) lattice::encode_value(enc, v);
  snapshots_served_.inc();
  send_(from, enc.take());
}

void CheckpointManager::on_snapshot(NodeId from, wire::Decoder& dec) {
  // Only the reply to one of our own unanswered pulls for the root counts
  // (the store::BodyFetcher::on_reply rule). Anything else — a peer we
  // never asked, a late or duplicate reply for a root already adopted, a
  // frame too short to name a root — is dropped unparsed: it must
  // neither rotate the pull nor raise the reject warning.
  if (dec.remaining() < crypto::Sha256::kDigestSize) return;
  const Digest root = read_digest(dec);
  const auto it = pending_.find(root);
  if (it == pending_.end() || it->second.outstanding.erase(from) == 0) return;
  PendingRoot& st = it->second;
  std::optional<Snapshot> snap;
  try {
    snap = decode_snapshot(root, dec);
  } catch (const wire::WireError&) {
    snapshot_rejects_.inc();  // the asked peer answered with garbage
  }
  if (!snap) {
    send_pull(root, st);  // not found or garbage: rotate to the next peer
    return;
  }
  st.verified = std::move(snap);
  st.known_safe =
      config_.element_known &&
      std::all_of(st.verified->elements->begin(),
                  st.verified->elements->end(), config_.element_known);
  try_adopt(root);
}

void CheckpointManager::try_adopt(const Digest& root) {
  const auto it = pending_.find(root);
  if (it == pending_.end() || !it->second.verified) return;
  PendingRoot& st = it->second;
  // f+1 vouchers include at least one correct replica.
  const bool quorum = st.vouchers.size() >= config_.f + 1;
  if (!quorum && !st.known_safe) return;
  adopt(root, std::move(*st.verified), quorum);
}

void CheckpointManager::adopt(const Digest& root, Snapshot snap, bool quorum) {
  const auto it = pending_.find(root);
  std::vector<std::function<void()>> replays;
  if (it != pending_.end()) {
    replays = std::move(it->second.replays);
    pending_.erase(it);
  }
  if (adopted_.size() >= kMaxAdoptedSnapshots) {
    adopted_.erase(adopted_.begin());  // shed; covered_any just narrows
  }
  adopted_.emplace(root, std::move(snap));
  reindex();
  adopted_count_.inc();
  if (quorum) adopted_quorum_.inc();
  const Snapshot& stored = adopted_.at(root);
  if (on_adopt_) on_adopt_(stored, quorum);
  for (auto& replay : replays) replay();
}

}  // namespace bla::checkpoint
