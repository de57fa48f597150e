// The Alg. 10 proof-of-safety core (core/signed_safety.hpp), tested
// directly for both signed items: SbS values and GSbS round batches. One
// table of proof mutations runs against both; each mutation turns a proof
// the core accepts into one it must reject.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/gsbs.hpp"
#include "core/sbs.hpp"
#include "core/signed_safety.hpp"

namespace bla::core {
namespace {

constexpr std::size_t kN = 4;
constexpr std::size_t kF = 1;

/// Keys for kN replicas plus one outsider (id kN), whose signatures are
/// genuine but whose id no core configured for kN replicas may accept.
std::shared_ptr<crypto::ISignerSet> make_signers() {
  return crypto::make_hmac_signer_set(kN + 1, 7);
}

struct SbsItems {
  using Item = SignedValue;
  using Ack = SafeAck;
  static constexpr bool kRounds = false;

  std::shared_ptr<crypto::ISignerSet> signers = make_signers();
  std::shared_ptr<const crypto::ISigner> verifier = signers->signer_for(0);
  SignedSafety<SbsRules> safety{SbsRules{verifier.get()}, kN, kF};

  /// SbS is one-shot: the round is not part of a value.
  SignedValue item(NodeId signer, std::uint64_t /*round*/,
                   const std::string& text) {
    SignedValue sv;
    sv.value = lattice::value_from(text);
    sv.signer = signer;
    sv.signature = signers->signer_for(signer)->sign(
        safety.rules().item_bytes(sv));
    return sv;
  }
  SafeAck ack(NodeId acceptor, std::uint64_t /*round*/,
              std::vector<SignedValue> received,
              std::vector<std::pair<SignedValue, SignedValue>> conflicts) {
    SafeAck a;
    a.acceptor = acceptor;
    a.received = std::move(received);
    a.conflicts = std::move(conflicts);
    a.signature =
        signers->signer_for(acceptor)->sign(safety.rules().ack_bytes(a));
    return a;
  }
};

struct GsbsItems {
  using Item = SignedBatch;
  using Ack = BatchSafeAck;
  static constexpr bool kRounds = true;

  std::shared_ptr<crypto::ISignerSet> signers = make_signers();
  std::shared_ptr<const crypto::ISigner> verifier = signers->signer_for(0);
  store::BodyStore store;
  BatchKeys keys{store};
  obs::Counter unbound;  // counts nothing
  SignedSafety<GsbsRules> safety{
      GsbsRules{verifier.get(), &store, &keys, &unbound, &unbound}, kN, kF};

  SignedBatch item(NodeId signer, std::uint64_t round,
                   const std::string& text) {
    SignedBatch sb{signer, round, ValueSet{lattice::value_from(text)}, {}};
    sb.signature = signers->signer_for(signer)->sign(
        safety.rules().item_bytes(sb));
    return sb;
  }
  BatchSafeAck ack(
      NodeId acceptor, std::uint64_t round, std::vector<SignedBatch> received,
      std::vector<std::pair<SignedBatch, SignedBatch>> conflicts) {
    BatchSafeAck a;
    a.acceptor = acceptor;
    a.round = round;
    a.received = std::move(received);
    a.conflicts = std::move(conflicts);
    a.signature =
        signers->signer_for(acceptor)->sign(safety.rules().ack_bytes(a));
    return a;
  }
};

/// x (signed by 1) with a proof of kN - kF = 3 safe-acks, from acceptors
/// 0, 1 and 2, each echoing {x, y} and listing no conflicts.
template <class Fx>
struct Case {
  Fx fx;
  typename Fx::Item x = fx.item(1, 0, "x");
  typename Fx::Item y = fx.item(2, 0, "y");
  Proven<typename Fx::Item, typename Fx::Ack> proven{
      x, {fx.ack(0, 0, {x, y}, {}), fx.ack(1, 0, {x, y}, {}),
          fx.ack(2, 0, {x, y}, {})}};

  [[nodiscard]] bool accepted() const {
    return fx.safety.all_safe({proven});
  }
};

template <class Fx>
struct Mutation {
  std::string name;
  bool needs_rounds;  // only meaningful where items carry a round
  std::function<void(Case<Fx>&)> apply;
};

template <class Fx>
std::vector<Mutation<Fx>> mutations() {
  return {
      {"quorum short by one", false,
       [](Case<Fx>& c) { c.proven.proof.pop_back(); }},
      {"duplicate acceptor", false,
       [](Case<Fx>& c) { c.proven.proof[2] = c.proven.proof[0]; }},
      {"acceptor id >= n", false,
       [](Case<Fx>& c) {
         c.proven.proof[2] = c.fx.ack(kN, 0, {c.x, c.y}, {});
       }},
      {"forged safe-ack signature", false,
       [](Case<Fx>& c) { c.proven.proof[1].signature[0] ^= 1; }},
      {"ack omits the item", false,
       [](Case<Fx>& c) { c.proven.proof[1] = c.fx.ack(1, 0, {c.y}, {}); }},
      {"ack lists the item in a conflict pair", false,
       [](Case<Fx>& c) {
         const auto x2 = c.fx.item(1, 0, "x-twin");
         c.proven.proof[1] = c.fx.ack(1, 0, {c.x, c.y}, {{c.x, x2}});
       }},
      {"conflict pair with equal content", false,
       [](Case<Fx>& c) {
         c.proven.proof[1] = c.fx.ack(1, 0, {c.x, c.y}, {{c.y, c.y}});
       }},
      {"cross-round conflict pair", true,
       [](Case<Fx>& c) {
         const auto y_next = c.fx.item(2, 1, "y-next");
         c.proven.proof[1] = c.fx.ack(1, 0, {c.x, c.y}, {{c.y, y_next}});
       }},
      {"safe-ack round differs from the item's", true,
       [](Case<Fx>& c) {
         c.proven.proof[1] = c.fx.ack(1, 1, {c.x, c.y}, {});
       }},
  };
}

template <class Fx>
class SignedSafetyTest : public ::testing::Test {};

using ItemKinds = ::testing::Types<SbsItems, GsbsItems>;
TYPED_TEST_SUITE(SignedSafetyTest, ItemKinds);

TYPED_TEST(SignedSafetyTest, UnmutatedProofIsAccepted) {
  Case<TypeParam> c;
  EXPECT_TRUE(c.accepted());
}

TYPED_TEST(SignedSafetyTest, EveryProofMutationIsRejected) {
  std::size_t ran = 0;
  for (const Mutation<TypeParam>& m : mutations<TypeParam>()) {
    if (m.needs_rounds && !TypeParam::kRounds) continue;
    Case<TypeParam> c;
    ASSERT_TRUE(c.accepted()) << m.name;
    m.apply(c);
    EXPECT_FALSE(c.accepted()) << m.name;
    ++ran;
  }
  EXPECT_EQ(ran, TypeParam::kRounds ? 9u : 7u);
}

TYPED_TEST(SignedSafetyTest, ConflictPairRules) {
  Case<TypeParam> c;
  const auto& safety = c.fx.safety;
  const auto x2 = c.fx.item(1, 0, "x-twin");
  EXPECT_TRUE(safety.verify_conflict_pair({c.x, x2}));
  EXPECT_FALSE(safety.verify_conflict_pair({c.x, c.x}));  // equal content
  EXPECT_FALSE(safety.verify_conflict_pair({c.x, c.y}));  // two signers
  auto forged = x2;
  forged.signature[0] ^= 1;
  EXPECT_FALSE(safety.verify_conflict_pair({c.x, forged}));
  // A safe-req's items must all be of its round and validly signed.
  EXPECT_TRUE(safety.all_signed({c.x, c.y}, 0));
  EXPECT_FALSE(safety.all_signed({c.x, forged}, 0));
  if (TypeParam::kRounds) {
    EXPECT_FALSE(safety.all_signed({c.x, c.y}, 1));
  }
  // A safe-ack is only as good as every pair it lists.
  EXPECT_FALSE(
      safety.verify_safe_ack(c.fx.ack(0, 0, {c.x}, {{c.x, forged}})));
  EXPECT_TRUE(safety.verify_safe_ack(c.fx.ack(0, 0, {c.x}, {{c.x, x2}})));
}

TYPED_TEST(SignedSafetyTest, ConflictIndexRemovesAndReturnsEquivocators) {
  Case<TypeParam> c;
  const auto& safety = c.fx.safety;
  BySigner<typename TypeParam::Item> index;
  safety.index_signed(index, c.x);
  safety.index_signed(index, c.x);  // an identical re-send is no conflict
  safety.index_signed(index, c.y);
  ASSERT_EQ(safety.conflict_free(index).size(), 2u);

  // Signer 1 equivocates; four distinct items are kept, the rest dropped.
  std::vector<typename TypeParam::Item> more;
  for (int i = 0; i < 5; ++i) {
    more.push_back(c.fx.item(1, 0, "x" + std::to_string(i)));
  }
  const auto pairs = safety.return_conflicts(index, more);
  EXPECT_EQ(index.at(1).size(), 4u);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, c.x);
  const auto kept = safety.conflict_free(index);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], c.y);

  // A proposer keeps exactly the snapshot items no collected ack accuses.
  std::map<NodeId, typename TypeParam::Ack> acks{
      {0, c.fx.ack(0, 0, {c.x, c.y}, pairs)},
      {1, c.fx.ack(1, 0, {c.x, c.y}, {})}};
  ProvenMap<typename TypeParam::Item, typename TypeParam::Ack> proposed;
  safety.propose_unaccused(std::vector{c.x, c.y}, acks, proposed);
  ASSERT_EQ(proposed.size(), 1u);
  EXPECT_EQ(proposed.begin()->first, c.y);
  EXPECT_EQ(proposed.begin()->second.size(), 2u);
}

TYPED_TEST(SignedSafetyTest, AcceptorAcksSupersetsAndNacksWithItsOldSet) {
  using P = Proven<typename TypeParam::Item, typename TypeParam::Ack>;
  Case<TypeParam> c;
  const auto& safety = c.fx.safety;
  ProvenMap<typename TypeParam::Item, typename TypeParam::Ack> accepted;
  int nacks = 0;
  auto nack = [&](const auto& mine) {
    ++nacks;
    EXPECT_EQ(mine.size(), 1u);
    EXPECT_TRUE(mine.contains(c.x));
  };
  EXPECT_TRUE(safety.accept_or_nack(accepted, std::vector{P{c.x, {}}}, nack));
  EXPECT_TRUE(safety.accept_or_nack(accepted, std::vector{P{c.x, {}}}, nack));
  // {y} does not cover {x}: nack with {x}, then accept {x, y}.
  EXPECT_FALSE(safety.accept_or_nack(accepted, std::vector{P{c.y, {}}}, nack));
  EXPECT_EQ(nacks, 1);
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_TRUE(safety.accept_or_nack(
      accepted, std::vector{P{c.x, {}}, P{c.y, {}}}, nack));
  EXPECT_EQ(nacks, 1);
}

}  // namespace
}  // namespace bla::core
