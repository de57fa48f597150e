// Generative Byzantine fuzzer: the fast deterministic subset that rides
// in ctest. The CI cron job runs the wide sweep (100+ schedules) through
// bench/fault_fuzz.cpp; here we pin down the codec, determinism, and a
// seed range across both engines and both runtimes.

#include <gtest/gtest.h>

#include "fault/fuzz.hpp"

namespace bla {
namespace {

using fault::FuzzResult;
using fault::FuzzSchedule;
using fault::NetKind;

TEST(FuzzSpec, RoundTripsForGeneratedSchedules) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (core::EngineKind engine :
         {core::EngineKind::kGwts, core::EngineKind::kGsbs}) {
      for (NetKind net : {NetKind::kSim, NetKind::kSocket}) {
        const FuzzSchedule s = fault::generate_schedule(seed, engine, net);
        const auto parsed = FuzzSchedule::parse(s.spec());
        ASSERT_TRUE(parsed.has_value()) << s.spec();
        EXPECT_EQ(parsed->spec(), s.spec());
      }
    }
  }
}

TEST(FuzzSpec, RejectsGarbage) {
  EXPECT_FALSE(FuzzSchedule::parse("nonsense").has_value());
  EXPECT_FALSE(FuzzSchedule::parse("seed=;engine=gwts").has_value());
  EXPECT_FALSE(FuzzSchedule::parse("seed=1;engine=vibes").has_value());
  EXPECT_FALSE(
      FuzzSchedule::parse("seed=1;engine=gwts;net=sim;n=4;f=1;clients=1;"
                          "cmds=8;batch=2;adv=bogus")
          .has_value());
  // More adversaries than f is not a legal schedule.
  EXPECT_FALSE(
      FuzzSchedule::parse("seed=1;engine=gwts;net=sim;n=4;f=1;clients=1;"
                          "cmds=8;batch=2;adv=silent,garbage")
          .has_value());
}

TEST(FuzzSpec, CheckpointKnobsRoundTrip) {
  const char* spec =
      "seed=7;engine=gwts;net=sim;n=4;f=1;clients=2;cmds=32;batch=4;"
      "ckpt=8;lag=1;fseed=3;drop=0.01";
  const auto parsed = FuzzSchedule::parse(spec);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->checkpoint_interval, 8u);
  EXPECT_TRUE(parsed->laggard);
  EXPECT_EQ(parsed->spec(), spec);
  // Defaults: knobs absent from the spec stay off.
  const auto plain = FuzzSchedule::parse(
      "seed=7;engine=gwts;net=sim;n=4;f=1;clients=2;cmds=32;batch=4;fseed=3");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->checkpoint_interval, 0u);
  EXPECT_FALSE(plain->laggard);
  EXPECT_FALSE(FuzzSchedule::parse("seed=1;engine=gwts;net=sim;n=4;f=1;"
                                   "clients=1;cmds=8;batch=2;lag=2;fseed=1")
                   .has_value());
}

// Directed checkpoint schedules: the fuzzer's checkpoint/laggard knobs
// compose with adversaries and faults without violating safety — and
// the checkpointed-durability check (every element committed to a
// correct replica's latest snapshot is in its decided set) holds.
TEST(FuzzRun, DirectedCheckpointSchedulesAreSafe) {
  const char* specs[] = {
      // Periodic checkpoints under loss + a silent adversary.
      "seed=11;engine=gwts;net=sim;n=4;f=1;clients=2;cmds=48;batch=4;"
      "adv=silent;ckpt=8;fseed=2;drop=0.01;reorder=0.01",
      // Laggard recovery: replica 0 sleeps through the bulk of the run
      // and must catch up from a peer snapshot.
      "seed=12;engine=gwts;net=sim;n=4;f=1;clients=2;cmds=48;batch=4;"
      "ckpt=8;lag=1;fseed=4;drop=0.005",
      // Same machinery on GSbS (scoped integration: body eviction +
      // snapshot catch-up + round-indexed GC).
      "seed=13;engine=gsbs;net=sim;n=4;f=1;clients=2;cmds=32;batch=4;"
      "adv=nackspam;ckpt=8;fseed=5;reorder=0.01",
  };
  for (const char* spec : specs) {
    const auto s = FuzzSchedule::parse(spec);
    ASSERT_TRUE(s.has_value()) << spec;
    const FuzzResult r = fault::run_schedule(*s);
    EXPECT_TRUE(r.safety_ok) << r.violation << "\nrepro: "
                             << fault::repro_command(*s);
  }
}

TEST(FuzzSpec, GenerationIsDeterministic) {
  const FuzzSchedule a =
      fault::generate_schedule(99, core::EngineKind::kGsbs, NetKind::kSim);
  const FuzzSchedule b =
      fault::generate_schedule(99, core::EngineKind::kGsbs, NetKind::kSim);
  EXPECT_EQ(a.spec(), b.spec());
}

class FuzzSimSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(FuzzSimSweep, ScheduleIsSafe) {
  const auto [seed, engine_idx] = GetParam();
  const auto engine =
      engine_idx == 0 ? core::EngineKind::kGwts : core::EngineKind::kGsbs;
  const FuzzSchedule s = fault::generate_schedule(seed, engine, NetKind::kSim);
  const FuzzResult r = fault::run_schedule(s);
  EXPECT_TRUE(r.safety_ok) << r.violation << "\nrepro: "
                           << fault::repro_command(s);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzSimSweep,
    ::testing::Combine(::testing::Range(std::uint64_t{1}, std::uint64_t{11}),
                       ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, int>>& info) {
      return std::string(std::get<1>(info.param) == 0 ? "gwts" : "gsbs") +
             "_seed" + std::to_string(std::get<0>(info.param));
    });

TEST(FuzzRun, SimResultsAreDeterministic) {
  const FuzzSchedule s =
      fault::generate_schedule(5, core::EngineKind::kGwts, NetKind::kSim);
  const FuzzResult a = fault::run_schedule(s);
  const FuzzResult b = fault::run_schedule(s);
  EXPECT_EQ(a.safety_ok, b.safety_ok);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.clients_done, b.clients_done);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.commands_failed, b.commands_failed);
}

TEST(FuzzRun, SocketSchedulesAreSafe) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (core::EngineKind engine :
         {core::EngineKind::kGwts, core::EngineKind::kGsbs}) {
      const FuzzSchedule s =
          fault::generate_schedule(seed, engine, NetKind::kSocket);
      const FuzzResult r = fault::run_schedule(s);
      EXPECT_TRUE(r.safety_ok) << r.violation << "\nrepro: "
                               << fault::repro_command(s);
    }
  }
}

}  // namespace
}  // namespace bla
