// Edge-case tests: resource caps under flooding, forced refinement
// paths, commitment exposure used by the RSM plug-in, and lattice
// axioms for the non-set lattices.

#include <gtest/gtest.h>

#include <random>

#include "core/adversary.hpp"
#include "core/gwts.hpp"
#include "core/sbs.hpp"
#include "core/wts.hpp"
#include "lattice/lattice.hpp"
#include "net/delay_model.hpp"
#include "net/sim_network.hpp"
#include "rbc/bracha.hpp"
#include "testutil/batch_scenario.hpp"
#include "testutil/properties.hpp"
#include "testutil/scenario.hpp"

namespace bla {
namespace {

// ---------------------------------------------------------------------------
// RBC resource caps.
// ---------------------------------------------------------------------------

TEST(RbcCaps, OversizedPayloadIsDropped) {
  std::uint64_t sends = 0;
  std::uint64_t delivers = 0;
  rbc::BrachaRbc node(
      {0, 4, 1}, [&](net::NodeId, wire::Bytes) { ++sends; },
      [&](net::NodeId, std::uint64_t, wire::Bytes) { ++delivers; });

  wire::Encoder enc;
  enc.u64(0);  // tag
  enc.bytes(wire::Bytes(rbc::kMaxPayloadBytes + 1, 0x55));
  wire::Decoder dec(enc.view());
  node.handle(1, static_cast<std::uint8_t>(rbc::MsgType::kSend), dec);
  EXPECT_EQ(sends, 0u);  // no echo for an oversized SEND
  EXPECT_EQ(delivers, 0u);
}

TEST(RbcCaps, InstanceFloodIsCapped) {
  // A Byzantine origin opening endless instances stops being echoed once
  // it exceeds the per-origin cap; other origins are unaffected.
  std::uint64_t sends = 0;
  rbc::BrachaRbc node(
      {0, 4, 1}, [&](net::NodeId, wire::Bytes) { ++sends; },
      [&](net::NodeId, std::uint64_t, wire::Bytes) {});

  for (std::uint64_t tag = 0; tag < rbc::kMaxInstancesPerOrigin + 100; ++tag) {
    wire::Encoder enc;
    enc.u64(tag);
    enc.bytes(wire::Bytes{1});
    wire::Decoder dec(enc.view());
    node.handle(1, static_cast<std::uint8_t>(rbc::MsgType::kSend), dec);
  }
  // Exactly kMaxInstancesPerOrigin echoes (n frames each), not more.
  EXPECT_EQ(sends, rbc::kMaxInstancesPerOrigin * 4);

  // A different origin still gets service.
  wire::Encoder enc;
  enc.u64(0);
  enc.bytes(wire::Bytes{2});
  wire::Decoder dec(enc.view());
  node.handle(2, static_cast<std::uint8_t>(rbc::MsgType::kSend), dec);
  EXPECT_EQ(sends, rbc::kMaxInstancesPerOrigin * 4 + 4);
}

TEST(RbcCaps, EchoFromOnePeerCountsOnce) {
  // A Byzantine peer echoing 100 different payloads for one instance
  // contributes to at most one tally — it cannot stuff the quorum.
  std::uint64_t delivers = 0;
  rbc::BrachaRbc node(
      {0, 4, 1}, [&](net::NodeId, wire::Bytes) {},
      [&](net::NodeId, std::uint64_t, wire::Bytes) { ++delivers; });
  for (int i = 0; i < 100; ++i) {
    wire::Encoder enc;
    enc.u32(3);  // origin
    enc.u64(0);  // tag
    enc.bytes(wire::Bytes{static_cast<std::uint8_t>(i)});
    wire::Decoder dec(enc.view());
    node.handle(1, static_cast<std::uint8_t>(rbc::MsgType::kReady), dec);
  }
  EXPECT_EQ(delivers, 0u);  // one peer can never reach 2f+1 readies
}

// ---------------------------------------------------------------------------
// Forced refinement paths.
// ---------------------------------------------------------------------------

TEST(Refinement, WtsStaggeredDisclosureTriggersNacks) {
  // Delaying one correct proposer's disclosure makes the fast majority
  // propose without its value; when the slow proposal lands, acceptors
  // nack it — the refinement path engages and stays within Lemma 3's f.
  testutil::ScenarioOptions options;
  options.n = 7;
  options.f = 2;
  options.delay = std::make_unique<net::TargetedDelay>(
      std::make_unique<net::ConstantDelay>(1.0),
      [](net::NodeId from, net::NodeId to) { return from == 0 || to == 0; },
      7.0);
  testutil::WtsScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_correct_decided());
  std::size_t max_refinements = 0;
  for (const auto* proc : scenario.correct()) {
    max_refinements = std::max(max_refinements, proc->refinement_count());
  }
  EXPECT_LE(max_refinements, 2u);  // Lemma 3: ≤ f
  EXPECT_EQ(testutil::check_comparability(scenario.decisions()), "");
}

TEST(Refinement, SbsStaggeredSchedulesStayWithinTwoF) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    testutil::SbsScenarioOptions options;
    options.n = 7;
    options.f = 2;
    options.seed = seed;
    options.delay = std::make_unique<net::UniformDelay>(0.1, 4.0);
    testutil::SbsScenario scenario(std::move(options));
    scenario.run();
    ASSERT_TRUE(scenario.all_correct_decided()) << seed;
    for (const auto* proc : scenario.correct()) {
      EXPECT_LE(proc->refinement_count(), 4u) << seed;  // Lemma 16: ≤ 2f
    }
  }
}

// ---------------------------------------------------------------------------
// GWTS commitment exposure (the hook the RSM confirmation uses).
// ---------------------------------------------------------------------------

/// A batched RSM run that checkpoints every 4 decided batches, so the
/// bodies of early committed sets are evicted from every replica's
/// store and their digests come from checkpoint snapshots.
std::unique_ptr<testutil::BatchRsmScenario> run_checkpointed(
    core::EngineKind engine) {
  testutil::BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.seed = 5;
  options.engine = engine;
  options.commands_per_client = 64;
  options.batch_size = 4;
  options.max_rounds = 30;
  options.checkpoint_interval = 4;
  auto scenario =
      std::make_unique<testutil::BatchRsmScenario>(std::move(options));
  scenario->run_until_done();
  scenario->run();
  return scenario;
}

constexpr core::EngineKind kEngines[] = {core::EngineKind::kGwts,
                                         core::EngineKind::kGsbs};

TEST(Commitment, DecidedSetsAreCommittedEverywhere) {
  testutil::GwtsScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 2;
  testutil::GwtsScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_completed_rounds());
  // Every decision of any correct process is recognized as committed by
  // every correct process — that is exactly why f+1 confirmations prove
  // a decision value genuine (Alg. 7).
  for (const auto* decider : scenario.correct()) {
    for (const auto& decision : decider->decisions()) {
      for (const auto* observer : scenario.correct()) {
        EXPECT_TRUE(observer->is_committed(decision.set));
      }
    }
  }
  // The same holds once checkpoints have evicted the bodies of the sets
  // committed first.
  for (const core::EngineKind engine : kEngines) {
    const auto checkpointed = run_checkpointed(engine);
    ASSERT_TRUE(checkpointed->all_clients_done());
    const auto& replicas = checkpointed->correct_replicas();
    for (const rsm::RsmReplica* r : replicas) {
      ASSERT_NE(r->engine().checkpoints(), nullptr);
      EXPECT_GT(r->engine().checkpoints()->bodies_evicted(), 0u);
    }
    for (const rsm::RsmReplica* decider : replicas) {
      for (const auto& decision : decider->engine().decisions()) {
        for (const rsm::RsmReplica* observer : replicas) {
          EXPECT_TRUE(observer->engine().is_committed(decision.set))
              << "round " << decision.round;
        }
      }
    }
  }
}

TEST(Commitment, FabricatedSetsAreNotCommitted) {
  testutil::GwtsScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 2;
  testutil::GwtsScenario scenario(std::move(options));
  scenario.run();
  core::ValueSet fabricated;
  fabricated.insert(lattice::value_from("nobody-proposed-this"));
  for (const auto* proc : scenario.correct()) {
    EXPECT_FALSE(proc->is_committed(fabricated));
  }
  // After eviction: a committed set with one element swapped for a
  // same-sized forgery is not committed, nor is the forgery alone.
  for (const core::EngineKind engine : kEngines) {
    const auto checkpointed = run_checkpointed(engine);
    const auto& replicas = checkpointed->correct_replicas();
    const auto& decisions = replicas.front()->engine().decisions();
    ASSERT_FALSE(decisions.empty());
    const core::ValueSet& genuine = decisions.front().set;
    std::vector<core::Value> elems = genuine.elements();
    elems.back().back() ^= 0x01;
    core::ValueSet forged;
    for (const core::Value& v : elems) forged.insert(v);
    ASSERT_EQ(forged.size(), genuine.size());
    for (const rsm::RsmReplica* r : replicas) {
      EXPECT_TRUE(r->engine().is_committed(genuine));
      EXPECT_FALSE(r->engine().is_committed(forged));
      EXPECT_FALSE(r->engine().is_committed(fabricated));
    }
  }
}

// ---------------------------------------------------------------------------
// Lattice axioms for the non-set lattices (property sweeps).
// ---------------------------------------------------------------------------

template <typename L, typename Gen>
void check_axioms(Gen gen, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 200; ++i) {
    const L a = gen(rng);
    const L b = gen(rng);
    const L c = gen(rng);
    EXPECT_EQ(lattice::join(a, a), a);                        // idempotent
    EXPECT_EQ(lattice::join(a, b), lattice::join(b, a));      // commutative
    EXPECT_EQ(lattice::join(lattice::join(a, b), c),
              lattice::join(a, lattice::join(b, c)));         // associative
    EXPECT_EQ(a.leq(b), lattice::join(a, b) == b);            // order<->join
    EXPECT_TRUE(a.leq(lattice::join(a, b)));                  // upper bound
  }
}

class LatticeAxiomSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatticeAxiomSeeds, MaxLattice) {
  check_axioms<lattice::MaxLattice<int>>(
      [](auto& rng) { return lattice::MaxLattice<int>(int(rng() % 100)); },
      GetParam());
}

TEST_P(LatticeAxiomSeeds, VersionVector) {
  check_axioms<lattice::VersionVector>(
      [](auto& rng) {
        lattice::VersionVector v;
        for (int k = 0; k < 3; ++k) {
          v.set(static_cast<std::uint32_t>(rng() % 4), rng() % 10);
        }
        return v;
      },
      GetParam());
}

TEST_P(LatticeAxiomSeeds, PairOfMaxAndVv) {
  using P = lattice::PairLattice<lattice::MaxLattice<int>,
                                 lattice::VersionVector>;
  check_axioms<P>(
      [](auto& rng) {
        lattice::VersionVector v;
        v.set(static_cast<std::uint32_t>(rng() % 3), rng() % 5);
        return P(lattice::MaxLattice<int>(int(rng() % 50)), v);
      },
      GetParam());
}

TEST_P(LatticeAxiomSeeds, MapLattice) {
  using M = lattice::MapLattice<int, lattice::MaxLattice<int>>;
  check_axioms<M>(
      [](auto& rng) {
        M m;
        for (int k = 0; k < 3; ++k) {
          m.update(int(rng() % 4), lattice::MaxLattice<int>(int(rng() % 9)));
        }
        return m;
      },
      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeAxiomSeeds,
                         ::testing::Values(1, 2, 3, 7, 31));

}  // namespace
}  // namespace bla
