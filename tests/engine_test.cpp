// Engine-contract tests: the behaviour both generalized engines inherit
// from core::EngineBase, run once per engine through make_engine (HMAC
// signers; GWTS ignores its signer).

#include <gtest/gtest.h>

#include <string>

#include "core/adversary.hpp"
#include "core/engine.hpp"
#include "crypto/signer.hpp"
#include "net/sim_network.hpp"

namespace bla::core {
namespace {

class EngineContract : public ::testing::TestWithParam<EngineKind> {
protected:
  [[nodiscard]] std::string counter_name(NodeId id,
                                         const std::string& metric) const {
    const char* engine = GetParam() == EngineKind::kGwts ? "gwts" : "gsbs";
    return "node" + std::to_string(id) + "/" + engine + "/" + metric;
  }

  std::shared_ptr<crypto::ISignerSet> signers_ =
      crypto::make_hmac_signer_set(4, 1);
  std::shared_ptr<obs::Registry> registry_ = std::make_shared<obs::Registry>();
};

TEST_P(EngineContract, IdleRoundsRecordNoDecision) {
  // One value, then idle rounds up to the budget: the rounds keep
  // turning, but only the one decision that grew the decided set is
  // recorded.
  constexpr std::uint64_t kRounds = 6;
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<IAgreementEngine*> engines;
  for (NodeId id = 0; id < 4; ++id) {
    EngineConfig config{id, 4, 1, kRounds};
    config.registry = registry_;
    auto engine = make_engine(GetParam(), config, signers_->signer_for(id),
                              nullptr);
    engines.push_back(engine.get());
    net.add_process(std::move(engine));
  }
  const Value value = lattice::value_from("only-value");
  engines[0]->submit(value);
  net.run();
  for (NodeId id = 0; id < 4; ++id) {
    EXPECT_EQ(registry_->counter(counter_name(id, "rounds")).value(), kRounds);
    ASSERT_EQ(engines[id]->decisions().size(), 1u) << "node " << id;
    EXPECT_TRUE(engines[id]->decisions().back().set.contains(value));
    EXPECT_EQ(engines[id]->decided_set(), engines[id]->decisions().back().set);
  }
}

TEST_P(EngineContract, StallRetriesStopAtBudgetAndQuiesce) {
  // Every peer silent: the engine can never leave round 0, so each stall
  // window costs one retry until max_resends is spent, and then the
  // recovery timer stops re-arming.
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  EngineConfig config{0, 4, 1, 3};
  config.registry = registry_;
  config.recovery.enabled = true;
  config.recovery.max_resends = 4;
  auto engine =
      make_engine(GetParam(), config, signers_->signer_for(0), nullptr);
  engine->submit(lattice::value_from("stuck"));
  net.add_process(std::move(engine));
  for (NodeId id = 1; id < 4; ++id) {
    net.add_process(std::make_unique<SilentProcess>());
  }
  constexpr std::uint64_t kEventCap = 100'000;
  EXPECT_LT(net.run(kEventCap), kEventCap);
  EXPECT_EQ(registry_->counter(counter_name(0, "retries")).value(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineContract,
                         ::testing::Values(EngineKind::kGwts,
                                           EngineKind::kGsbs),
                         [](const auto& info) {
                           return info.param == EngineKind::kGwts
                                      ? std::string("Gwts")
                                      : std::string("Gsbs");
                         });

}  // namespace
}  // namespace bla::core
