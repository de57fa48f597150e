#pragma once
// Alg. 10 (paper §8): the proof-of-safety rules of the signature-based
// engines, written once over the signed item — a value for SbS, a round
// batch for GSbS — bound to its author by a signature.
//
//  * RemoveConflicts: a signer that signed two distinct items
//    contributes none of them (conflict_free over a by-signer index that
//    keeps at most four items per signer; two prove guilt).
//  * ReturnConflicts: an acceptor signs one pair per equivocating signer
//    into its safe-ack (return_conflicts).
//  * AllSafe: an item is accepted only with a quorum of well-formed
//    safe-acks from distinct acceptors that all contain it and none of
//    which lists it in a conflict pair (SignedSafety::all_safe). Two
//    quorums share a correct acceptor, which would list the pair, so no
//    other item of the same signer and round is also provably safe
//    (Lemma 13).
//
// An engine supplies only what differs, as a Rules type:
//
//   using Item = ...;  // .signer, .signature; == and < ignore the signature
//   using Ack = ...;   // .acceptor, .received, .conflicts, .signature
//   static std::uint64_t round(const Item&);
//   static std::uint64_t round(const Ack&);
//   wire::Bytes item_bytes(const Item&) const;  // what the signer signs
//   wire::Bytes ack_bytes(const Ack&) const;    // what the acceptor signs
//   bool check(NodeId signer, wire::BytesView message,
//              wire::BytesView signature) const;
//
// SignedSafety<Rules> is the core; engines call every rule through their
// instance of it. round() scopes equivocation: two items conflict only
// within one round, and a safe-ack vouches only for items of its own
// round. SbS is one-shot and answers 0 everywhere. Checks run in a fixed
// order and stop at the first failure; GSbS counts every signature check
// (memo hits and real verifications), so that order is observable.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/common.hpp"

namespace bla::core {

inline constexpr std::size_t kMaxProofAcks = 1 << 10;
inline constexpr std::size_t kMaxConflicts = 1 << 10;

/// An item plus its proof of safety: the safe-acks that vouch for it.
template <class Item, class Ack>
struct Proven {
  Item item;
  std::vector<Ack> proof;
};

/// A proposal or an acceptor's accepted set: item -> proof.
template <class Item, class Ack>
using ProvenMap = std::map<Item, std::vector<Ack>>;

/// Everything seen, grouped by signer, so conflicts are removable
/// (conflict_free) and provable (return_conflicts).
template <class Item>
using BySigner = std::map<NodeId, std::vector<Item>>;

/// The two lists of a safe-ack in wire order: the received items, then
/// the conflict pairs, each item spelled by `encode_item(enc, item)`.
template <class Ack, class EncodeItem>
void encode_ack_lists(wire::Encoder& enc, const Ack& ack,
                      EncodeItem&& encode_item) {
  enc.uvarint(ack.received.size());
  for (const auto& item : ack.received) encode_item(enc, item);
  enc.uvarint(ack.conflicts.size());
  for (const auto& [a, b] : ack.conflicts) {
    encode_item(enc, a);
    encode_item(enc, b);
  }
}

/// The inverse of encode_ack_lists; `max_received` bounds the echo.
template <class Ack, class DecodeItem>
void decode_ack_lists(wire::Decoder& dec, Ack& ack, std::size_t max_received,
                      DecodeItem&& decode_item) {
  const std::uint64_t nr = dec.uvarint();
  if (nr > max_received) throw wire::WireError("oversized ack");
  for (std::uint64_t i = 0; i < nr; ++i) {
    ack.received.push_back(decode_item(dec));
  }
  const std::uint64_t nc = dec.uvarint();
  if (nc > kMaxConflicts) throw wire::WireError("oversized conflicts");
  for (std::uint64_t i = 0; i < nc; ++i) {
    auto a = decode_item(dec);
    auto b = decode_item(dec);
    ack.conflicts.emplace_back(std::move(a), std::move(b));
  }
}

/// Alg. 10 and the proven-set steps of Alg. 8/9 for one engine's Rules.
template <class Rules>
class SignedSafety {
public:
  using Item = typename Rules::Item;
  using Ack = typename Rules::Ack;
  using Index = BySigner<Item>;
  using Map = ProvenMap<Item, Ack>;
  using ProvenItems = std::vector<Proven<Item, Ack>>;

  SignedSafety(Rules rules, std::size_t n, std::size_t f)
      : rules_(std::move(rules)), n_(n), quorum_(byz_quorum(n, f)) {}

  [[nodiscard]] const Rules& rules() const { return rules_; }
  [[nodiscard]] std::size_t quorum() const { return quorum_; }

  /// Adds `item` to its signer's entry unless an equal item is there.
  /// Two distinct items already prove guilt, so an entry stops at four.
  static void index_signed(Index& by_signer, const Item& item) {
    auto& items = by_signer[item.signer];
    for (const Item& existing : items) {
      if (existing == item) return;
    }
    if (items.size() < 4) items.push_back(item);
  }

  /// RemoveConflicts (Alg. 10 lines 6-10): the items of signers that
  /// signed exactly one.
  static std::vector<Item> conflict_free(const Index& by_signer) {
    std::vector<Item> out;
    for (const auto& [signer, items] : by_signer) {
      if (items.size() == 1) out.push_back(items.front());
    }
    return out;
  }

  /// ReturnConflicts(set ∪ SafeCandidates) (Alg. 9 lines 3-6): indexes
  /// `set` into the acceptor's candidates and returns one provable pair
  /// per signer that signed two distinct items. Conflicted signers stay
  /// in the index and never re-qualify.
  static std::vector<std::pair<Item, Item>> return_conflicts(
      Index& candidates, const std::vector<Item>& set) {
    for (const Item& item : set) index_signed(candidates, item);
    std::vector<std::pair<Item, Item>> out;
    for (const auto& [signer, items] : candidates) {
      if (items.size() >= 2) out.emplace_back(items[0], items[1]);
    }
    return out;
  }

  /// Whether `ack` lists `item` in one of its conflict pairs.
  static bool accuses(const Ack& ack, const Item& item) {
    return std::any_of(ack.conflicts.begin(), ack.conflicts.end(),
                       [&](const auto& pair) {
                         return pair.first == item || pair.second == item;
                       });
  }

  /// Alg. 8 lines 25-31: adds to `proposed` every snapshot item that no
  /// collected safe-ack accuses, with all collected acks as its proof.
  static void propose_unaccused(const std::vector<Item>& snapshot,
                                const std::map<NodeId, Ack>& safe_acks,
                                Map& proposed) {
    std::vector<Ack> proof;
    proof.reserve(safe_acks.size());
    for (const auto& [acceptor, ack] : safe_acks) proof.push_back(ack);
    for (const Item& item : snapshot) {
      if (std::none_of(proof.begin(), proof.end(),
                       [&](const Ack& ack) { return accuses(ack, item); })) {
        proposed.emplace(item, proof);
      }
    }
  }

  /// The acceptor's step of Alg. 9 lines 7-14 on an all-safe request.
  /// When the request covers everything accepted, it becomes the
  /// accepted set and the result is true: the caller acks `accepted`.
  /// Otherwise `nack(accepted)` runs on the set as it was, the request is
  /// merged in, and the result is false.
  template <class Nack>
  static bool accept_or_nack(Map& accepted, ProvenItems&& received,
                             Nack&& nack) {
    Map rcvd;
    merge(rcvd, std::move(received));
    const bool covers =
        std::all_of(accepted.begin(), accepted.end(),
                    [&](const auto& kv) { return rcvd.contains(kv.first); });
    if (covers) {
      accepted = std::move(rcvd);
      return true;
    }
    nack(std::as_const(accepted));
    accepted.merge(rcvd);
    return false;
  }

  /// Alg. 8 lines 38-46, the proposer's side: a nack's items join the
  /// proposal only if they grow it and all are safe. Returns whether
  /// they did.
  bool refine(Map& proposed, ProvenItems&& received) const {
    const bool grows = std::any_of(
        received.begin(), received.end(),
        [&](const auto& p) { return !proposed.contains(p.item); });
    if (!grows || !all_safe(received)) return false;
    merge(proposed, std::move(received));
    return true;
  }

  /// A known signer's signature over the item.
  [[nodiscard]] bool verify_item(const Item& item) const {
    if (item.signer >= n_) return false;
    return rules_.check(item.signer, rules_.item_bytes(item), item.signature);
  }

  /// A safe-req's items: all of `round` and validly signed.
  [[nodiscard]] bool all_signed(const std::vector<Item>& items,
                                std::uint64_t round) const {
    return std::all_of(items.begin(), items.end(), [&](const Item& item) {
      return Rules::round(item) == round && verify_item(item);
    });
  }

  /// VerifyConfPair: one signer, one round, distinct content, both
  /// signatures valid — unforgeable proof that the signer equivocated.
  [[nodiscard]] bool verify_conflict_pair(
      const std::pair<Item, Item>& pair) const {
    return pair.first.signer == pair.second.signer &&
           Rules::round(pair.first) == Rules::round(pair.second) &&
           !(pair.first == pair.second) && verify_item(pair.first) &&
           verify_item(pair.second);
  }

  /// A known acceptor's signature, and a valid proof for every pair.
  [[nodiscard]] bool verify_safe_ack(const Ack& ack) const {
    if (ack.acceptor >= n_) return false;
    if (!rules_.check(ack.acceptor, rules_.ack_bytes(ack), ack.signature)) {
      return false;
    }
    return std::all_of(
        ack.conflicts.begin(), ack.conflicts.end(),
        [this](const auto& pair) { return verify_conflict_pair(pair); });
  }

  /// AllSafe: each item is validly signed and its proof is a quorum of
  /// its round's well-formed safe-acks from distinct acceptors, each
  /// containing the item and none accusing it.
  [[nodiscard]] bool all_safe(const ProvenItems& items) const {
    for (const Proven<Item, Ack>& p : items) {
      if (!verify_item(p.item)) return false;
      if (p.proof.size() < quorum_) return false;
      std::set<NodeId> acceptors;
      for (const Ack& ack : p.proof) {
        if (Rules::round(ack) != Rules::round(p.item)) return false;
        if (!acceptors.insert(ack.acceptor).second) return false;
        if (!verify_safe_ack(ack)) return false;
        const bool contains =
            std::find(ack.received.begin(), ack.received.end(), p.item) !=
            ack.received.end();
        if (!contains || accuses(ack, p.item)) return false;
      }
    }
    return true;
  }

private:
  /// Moves `received` into `into`; an item already there keeps its proof.
  static void merge(Map& into, ProvenItems&& received) {
    for (Proven<Item, Ack>& p : received) {
      into.emplace(std::move(p.item), std::move(p.proof));
    }
  }

  Rules rules_;
  std::size_t n_;
  std::size_t quorum_;
};

}  // namespace bla::core
