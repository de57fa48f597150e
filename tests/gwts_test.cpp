// GWTS (Generalized Byzantine Lattice Agreement) property tests:
// liveness (infinite decision sequence, exercised as per-round progress),
// local stability, cross-process comparability, inclusivity of submitted
// values, non-triviality budgets, and resistance to the round-clogging
// attacks §6.2 warns about.

#include <gtest/gtest.h>

#include "core/adversary.hpp"
#include "core/gwts.hpp"
#include "net/delay_model.hpp"
#include "testutil/properties.hpp"
#include "testutil/scenario.hpp"

namespace bla::core {
namespace {

using testutil::GwtsScenario;
using testutil::GwtsScenarioOptions;

void check_all_properties(GwtsScenario& scenario, std::size_t f,
                          std::uint64_t rounds) {
  // Liveness: every correct process completed all rounds.
  ASSERT_TRUE(scenario.all_completed_rounds());

  std::vector<std::vector<GwtsProcess::Decision>> by_process;
  for (const GwtsProcess* proc : scenario.correct()) {
    by_process.push_back(proc->decisions());
  }

  // Local Stability.
  for (const auto& decisions : by_process) {
    EXPECT_EQ(testutil::check_local_stability(decisions), "");
  }
  // Comparability across every decision of every process.
  EXPECT_EQ(testutil::check_gla_comparability(by_process), "");
  // Inclusivity: all submitted values decided by the submitter.
  for (std::size_t i = 0; i < scenario.correct().size(); ++i) {
    EXPECT_EQ(testutil::check_gla_inclusivity(by_process[i],
                                              scenario.submissions()[i]),
              "");
  }
  // Non-Triviality: Byzantine can inject at most f values per round.
  for (const auto& decisions : by_process) {
    if (decisions.empty()) continue;
    EXPECT_EQ(testutil::check_gla_non_triviality(
                  decisions.back().set, scenario.correct_inputs(),
                  f * rounds),
              "");
  }
}

struct SweepParams {
  std::size_t n;
  std::size_t f;
  std::uint64_t rounds;
  std::uint64_t seed;
};

class GwtsSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(GwtsSweep, SilentByzantine) {
  const auto& p = GetParam();
  GwtsScenarioOptions options;
  options.n = p.n;
  options.f = p.f;
  options.seed = p.seed;
  options.rounds = p.rounds;
  GwtsScenario scenario(std::move(options));
  scenario.run();
  check_all_properties(scenario, p.f, p.rounds);
}

TEST_P(GwtsSweep, RoundJumperCannotClog) {
  const auto& p = GetParam();
  GwtsScenarioOptions options;
  options.n = p.n;
  options.f = p.f;
  options.seed = p.seed;
  options.rounds = p.rounds;
  options.adversary = [](net::NodeId) {
    return std::make_unique<RoundJumper>(/*jump_to=*/40);
  };
  GwtsScenario scenario(std::move(options));
  scenario.run();
  check_all_properties(scenario, p.f, p.rounds + 41);
}

TEST_P(GwtsSweep, GarbageSpam) {
  const auto& p = GetParam();
  GwtsScenarioOptions options;
  options.n = p.n;
  options.f = p.f;
  options.seed = p.seed;
  options.rounds = p.rounds;
  options.adversary = [](net::NodeId id) {
    return std::make_unique<GarbageSpammer>(id * 31 + 7, 512);
  };
  GwtsScenario scenario(std::move(options));
  scenario.run();
  check_all_properties(scenario, p.f, p.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GwtsSweep,
    ::testing::Values(SweepParams{4, 1, 3, 1}, SweepParams{4, 1, 5, 2},
                      SweepParams{7, 2, 3, 1}, SweepParams{7, 2, 4, 3},
                      SweepParams{10, 3, 3, 1}),
    [](const ::testing::TestParamInfo<SweepParams>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "f" +
             std::to_string(param_info.param.f) + "r" +
             std::to_string(param_info.param.rounds) + "s" +
             std::to_string(param_info.param.seed);
    });

TEST(Gwts, MultipleValuesPerRound) {
  GwtsScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 3;
  options.values_per_round = 4;
  GwtsScenario scenario(std::move(options));
  scenario.run();
  check_all_properties(scenario, 1, 3);
  // The last decision of the most advanced process holds all 3*4*3 values.
  ValueSet top;
  for (const GwtsProcess* proc : scenario.correct()) {
    for (const auto& d : proc->decisions()) {
      if (top.leq(d.set)) top = d.set;
    }
  }
  EXPECT_TRUE(scenario.correct_inputs().leq(top));
}

TEST(Gwts, AsynchronousDelays) {
  GwtsScenarioOptions options;
  options.n = 7;
  options.f = 2;
  options.rounds = 3;
  options.seed = 17;
  options.delay = std::make_unique<net::ExponentialDelay>(1.0);
  GwtsScenario scenario(std::move(options));
  scenario.run();
  check_all_properties(scenario, 2, 3);
}

TEST(Gwts, TargetedDelayOnOneProposer) {
  GwtsScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 3;
  options.delay = std::make_unique<net::TargetedDelay>(
      std::make_unique<net::ConstantDelay>(1.0),
      [](net::NodeId from, net::NodeId to) { return from == 1 || to == 1; },
      25.0);
  GwtsScenario scenario(std::move(options));
  scenario.run();
  check_all_properties(scenario, 1, 3);
}

TEST(Gwts, SafeRoundAdvancesWithRounds) {
  GwtsScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 4;
  GwtsScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_completed_rounds());
  for (const GwtsProcess* proc : scenario.correct()) {
    // All 4 rounds legitimately ended, so every acceptor trusts round 4.
    EXPECT_GE(proc->safe_round(), 4u);
  }
}

TEST(Gwts, DecisionTimesAreBounded) {
  // Each round costs O(f) delays; the whole run of r rounds stays within
  // r * (2f + 5 + 3) generously (disclosure RBC + ack RBC per round).
  GwtsScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.rounds = 3;
  GwtsScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_completed_rounds());
  for (const GwtsProcess* proc : scenario.correct()) {
    EXPECT_LE(proc->decisions().back().time, 3 * 16.0);
  }
}

TEST(Gwts, EmptyBatchesStillRotateRounds) {
  // Processes with nothing to propose still decide (possibly empty sets)
  // and the round structure keeps turning.
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<GwtsProcess*> procs;
  for (net::NodeId id = 0; id < 4; ++id) {
    auto p = std::make_unique<GwtsProcess>(EngineConfig{id, 4, 1, 2});
    procs.push_back(p.get());
    net.add_process(std::move(p));
  }
  // Only node 0 submits anything at all.
  procs[0]->submit(lattice::value_from("only-value"));
  net.run();
  for (const GwtsProcess* p : procs) {
    // Both rounds ran to completion (the budget is exhausted), but only
    // set-growing decisions are recorded — an idle round adds nothing.
    EXPECT_EQ(p->current_round(), 2u);
    ASSERT_GE(p->decisions().size(), 1u);
    EXPECT_TRUE(p->decisions().back().set.contains(
        lattice::value_from("only-value")));
  }
}

TEST(Gwts, LateSubmissionLandsInLaterRound) {
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<GwtsProcess*> procs;
  for (net::NodeId id = 0; id < 4; ++id) {
    // Generous round budget: a value submitted mid-run lands in a batch
    // near the current frontier and needs settle rounds to be guaranteed
    // into every decision chain (see GwtsScenarioOptions::settle_rounds).
    auto p = std::make_unique<GwtsProcess>(EngineConfig{id, 4, 1, 6});
    procs.push_back(p.get());
    net.add_process(std::move(p));
  }
  procs[0]->submit(lattice::value_from("early"));
  // Run until process 1 has made its first decision, then inject the
  // late value — it lands in an early batch with plenty of settle rounds.
  net.run(UINT64_MAX, [&] { return !procs[1]->decisions().empty(); });
  procs[1]->submit(lattice::value_from("late"));
  net.run();
  for (const GwtsProcess* p : procs) {
    // All six rounds ran; the recorded decisions are just the growth
    // events ("early" lands, then "late" lands — possibly merged).
    EXPECT_EQ(p->current_round(), 6u);
    ASSERT_GE(p->decisions().size(), 1u);
    EXPECT_TRUE(p->decisions().back().set.contains(
        lattice::value_from("early")));
  }
  // The late value is decided by its submitter (Inclusivity).
  EXPECT_TRUE(
      procs[1]->decisions().back().set.contains(lattice::value_from("late")));
}

}  // namespace
}  // namespace bla::core
