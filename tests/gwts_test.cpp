// GWTS (Generalized Byzantine Lattice Agreement) property tests:
// liveness (infinite decision sequence, exercised as per-round progress),
// local stability, cross-process comparability, inclusivity of submitted
// values, non-triviality budgets, and resistance to the round-clogging
// attacks §6.2 warns about.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "core/adversary.hpp"
#include "core/gwts.hpp"
#include "net/delay_model.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "rbc/bracha.hpp"
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
  // Processes with nothing to propose join node 0's round on its
  // disclosure and decide; one more round follows the one that grew the
  // decided set, and then the rounds stop.
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
    // Both rounds ran to completion, but only set-growing decisions are
    // recorded — the second round adds nothing.
    EXPECT_EQ(p->current_round(), 2u);
    ASSERT_GE(p->decisions().size(), 1u);
    EXPECT_TRUE(p->decisions().back().set.contains(
        lattice::value_from("only-value")));
  }
}

TEST(Gwts, LateSubmissionLandsInLaterRound) {
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<GwtsProcess*> procs;
  const Value late = lattice::value_from("late");
  for (net::NodeId id = 0; id < 4; ++id) {
    // Generous round budget: a value submitted mid-run lands in a batch
    // near the current frontier and needs settle rounds to be guaranteed
    // into every decision chain (see GwtsScenarioOptions::settle_rounds).
    // Process 1 injects the late value at its first decision, from inside
    // its own upcall: it joins the batch of the round after.
    auto holder = std::make_shared<GwtsProcess*>(nullptr);
    GwtsProcess::DecideFn on_decide;
    if (id == 1) {
      on_decide = [holder, late](const GwtsProcess::Decision& d) {
        if (d.round == 0) (*holder)->submit(late);
      };
    }
    auto p = std::make_unique<GwtsProcess>(EngineConfig{id, 4, 1, 6},
                                           std::move(on_decide));
    *holder = p.get();
    procs.push_back(p.get());
    net.add_process(std::move(p));
  }
  procs[0]->submit(lattice::value_from("early"));
  net.run();
  for (const GwtsProcess* p : procs) {
    // Rounds ran only on demand: "early"'s round 0, "late"'s round 1,
    // then one more round after that growth. The recorded decisions are
    // just the growth events.
    EXPECT_EQ(p->current_round(), 3u);
    ASSERT_GE(p->decisions().size(), 1u);
    EXPECT_EQ(p->decisions().front().round, 0u);
    EXPECT_TRUE(p->decisions().back().set.contains(
        lattice::value_from("early")));
  }
  // The late value is decided by its submitter (Inclusivity), in a later
  // round than the early one.
  ASSERT_GE(procs[1]->decisions().size(), 2u);
  EXPECT_TRUE(procs[1]->decisions().back().set.contains(late));
  EXPECT_FALSE(procs[1]->decisions().front().set.contains(late));
}

// ---------------------------------------------------------------------------
// Ack publication under recovery: one ack broadcast per (set, round) per
// acceptor; only an asker that repeats its own ack-req draws a re-ack.
// ---------------------------------------------------------------------------

// GwtsProcess's ack-broadcast tag space (its private kAckTagBase): an
// acceptor's k-th ack broadcast is the RBC instance kAckTag | k.
constexpr std::uint64_t kAckTag = std::uint64_t{1} << 62;

/// Delivers every frame to `inner` except the Bracha SEND / ECHO / READY
/// / vote-request frames of the RBC instances (origin, tag) with tag in
/// [tag, tag_end) that arrive before time `until`: that node's copy of
/// those broadcasts is lost for good, retries included.
class DropInstance final : public net::IProcess {
public:
  DropInstance(std::unique_ptr<net::IProcess> inner, NodeId origin,
               std::uint64_t tag, std::uint64_t tag_end = 0,
               double until = std::numeric_limits<double>::infinity())
      : inner_(std::move(inner)),
        origin_(origin),
        tag_(tag),
        tag_end_(tag_end == 0 ? tag + 1 : tag_end),
        until_(until) {}

  void on_start(net::IContext& ctx) override { inner_->on_start(ctx); }
  void on_timer(net::IContext& ctx, std::uint64_t token) override {
    inner_->on_timer(ctx, token);
  }
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) override {
    if (ctx.now() < until_ && matches(from, payload)) {
      ++dropped_;
      return;
    }
    inner_->on_message(ctx, from, payload);
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

private:
  [[nodiscard]] bool matches(NodeId from, wire::BytesView payload) const {
    try {
      wire::Decoder dec(payload);
      switch (static_cast<rbc::MsgType>(dec.u8())) {
        case rbc::MsgType::kSend:
          return from == origin_ && in_range(dec.u64());
        case rbc::MsgType::kEcho:
        case rbc::MsgType::kReady:
        case rbc::MsgType::kVoteReq: {
          const NodeId origin = dec.u32();
          return origin == origin_ && in_range(dec.u64());
        }
        default:
          return false;
      }
    } catch (const wire::WireError&) {
      return false;
    }
  }

  [[nodiscard]] bool in_range(std::uint64_t tag) const {
    return tag >= tag_ && tag < tag_end_;
  }

  std::unique_ptr<net::IProcess> inner_;
  NodeId origin_;
  std::uint64_t tag_;
  std::uint64_t tag_end_;
  double until_;
  std::size_t dropped_ = 0;
};

/// Byzantine asker: re-sends every ack-req it receives, verbatim and
/// under its own identity, `repeats` times to every node — the same
/// (set, round) asked again and again by one proposer.
class RepeatingAsker final : public net::IProcess {
public:
  explicit RepeatingAsker(std::size_t repeats) : repeats_(repeats) {}
  void on_start(net::IContext&) override {}
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) override {
    if (from == ctx.self() || payload.empty() ||
        payload[0] != static_cast<std::uint8_t>(MsgType::kAckReq)) {
      return;
    }
    for (std::size_t i = 0; i < repeats_; ++i) {
      ctx.broadcast(wire::Bytes(payload.begin(), payload.end()));
    }
  }

private:
  std::size_t repeats_;
};

/// n GWTS replicas with recovery on, one value each per round ("v<id>"
/// first, then one more from each decision while rounds remain, so every
/// round carries values), all sharing `registry`; `byzantine(id)`
/// supplies the process for the last f slots (nullptr: silent) and
/// `wrap` may decorate a correct one.
struct RecoveryRun {
  std::size_t n = 4;
  std::size_t f = 1;
  std::uint64_t rounds = 3;
  std::size_t max_reacks = RecoveryConfig{}.max_reacks;
  std::function<std::unique_ptr<net::IProcess>(NodeId)> byzantine;
  std::function<std::unique_ptr<net::IProcess>(
      NodeId, std::unique_ptr<net::IProcess>)>
      wrap;

  std::shared_ptr<obs::Registry> registry = std::make_shared<obs::Registry>();
  std::unique_ptr<net::SimNetwork> network;
  std::vector<GwtsProcess*> correct;

  void run() {
    network = std::make_unique<net::SimNetwork>(net::SimNetwork::Config{});
    for (NodeId id = 0; id < n; ++id) {
      if (id >= n - f) {
        auto byz = byzantine ? byzantine(id) : nullptr;
        network->add_process(byz ? std::move(byz)
                                 : std::make_unique<SilentProcess>());
        continue;
      }
      EngineConfig config;
      config.self = id;
      config.n = n;
      config.f = f;
      config.max_rounds = rounds;
      config.registry = registry;
      config.recovery.enabled = true;
      config.recovery.max_reacks = max_reacks;
      auto holder = std::make_shared<GwtsProcess*>(nullptr);
      auto proc = std::make_unique<GwtsProcess>(
          config, [holder, id, rounds = rounds](const Decision& d) {
            if (d.round + 1 < rounds) {
              (*holder)->submit(lattice::value_from(
                  "v" + std::to_string(id) + "." +
                  std::to_string(d.round + 1)));
            }
          });
      *holder = proc.get();
      proc->submit(lattice::value_from("v" + std::to_string(id)));
      correct.push_back(proc.get());
      std::unique_ptr<net::IProcess> hosted = std::move(proc);
      if (wrap) hosted = wrap(id, std::move(hosted));
      network->add_process(std::move(hosted));
    }
    constexpr std::uint64_t kEventCap = 10'000'000;
    ASSERT_LT(network->run(kEventCap), kEventCap);
  }

  [[nodiscard]] std::uint64_t counter(NodeId id, const char* name) const {
    return registry
        ->counter("node" + std::to_string(id) + "/gwts/" + name)
        .value();
  }
};

TEST(GwtsRecovery, ConvergedProposersPublishOneAckPerKey) {
  // Loss-free links with recovery on: the five correct proposers propose
  // the same set each round, so every acceptor is asked for one key by
  // five proposers. The first ask publishes the ack; the other four are
  // answered by it (Bracha Totality), so no acceptor re-acks and the
  // message count is that of one ack broadcast per acceptor per round.
  RecoveryRun run;
  run.n = 7;
  run.f = 2;
  run.rounds = 4;
  run.run();
  ASSERT_EQ(run.correct.size(), 5u);
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_EQ(run.correct[id]->current_round(), run.rounds) << "node " << id;
    EXPECT_EQ(run.counter(id, "retries"), 0u) << "node " << id;
    // One (set, round) key per round, committed once.
    EXPECT_EQ(run.counter(id, "commits"), run.rounds) << "node " << id;
  }
  EXPECT_EQ(run.network->total_messages(), 3220u);
}

TEST(GwtsRecovery, LostAckIsRepublishedOnTheAskersRepeat) {
  // Node 0 never sees acceptor 1's first ack broadcast (round 0's), and
  // with node 3 silent it needs that ack for a quorum. Its stall re-send
  // of the same ack-req is a repeat from an asker acceptor 1 already
  // answered, which re-publishes the ack under a fresh tag.
  DropInstance* filter = nullptr;
  RecoveryRun run;
  run.wrap = [&](NodeId id, std::unique_ptr<net::IProcess> proc)
      -> std::unique_ptr<net::IProcess> {
    if (id != 0) return proc;
    auto wrapped = std::make_unique<DropInstance>(std::move(proc),
                                                  /*origin=*/1, kAckTag);
    filter = wrapped.get();
    return wrapped;
  };
  run.run();
  ASSERT_NE(filter, nullptr);
  EXPECT_GT(filter->dropped(), 0u);
  EXPECT_GE(run.counter(1, "retries"), 1u);
  for (const GwtsProcess* proc : run.correct) {
    EXPECT_EQ(proc->current_round(), run.rounds);
    ASSERT_FALSE(proc->decisions().empty());
    EXPECT_TRUE(proc->decisions().back().set.contains(
        lattice::value_from("v0")));
  }
}

TEST(GwtsRecovery, RepeatingAskerDrawsAtMostMaxReacks) {
  // A Byzantine proposer repeats every ack-req it sees 20 times. Each
  // repeat is from an asker already answered, but the asker's budget
  // caps what it buys: at most max_reacks re-acks per acceptor per key.
  constexpr std::size_t kMaxReacks = 3;
  RecoveryRun run;
  run.rounds = 1;
  run.max_reacks = kMaxReacks;
  run.byzantine = [](NodeId) { return std::make_unique<RepeatingAsker>(20); };
  run.run();
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(run.correct[id]->current_round(), 1u);
    EXPECT_EQ(run.counter(id, "retries"), kMaxReacks) << "node " << id;
  }
}

TEST(GwtsRecovery, AskerCutOffWhileOthersRepeatStillDrawsReacks) {
  // Node 0 loses every ack broadcast of acceptor 1 until t = 12, and with
  // node 3 Byzantine it needs acceptor 1's ack for a quorum. Meanwhile
  // the Byzantine asker repeats each ack-req 20 times, drawing all the
  // re-acks its own budget allows, and node 0 loses those too. Node 0's
  // stall re-send comes later; its budget is its own, so acceptor 1 still
  // re-publishes for it and node 0 decides. (With one budget per key, the
  // repeats of others would have spent it, as askers cut off from a
  // quorum during an outage do, and node 0 would never decide.)
  constexpr std::size_t kMaxReacks = 3;
  DropInstance* filter = nullptr;
  RecoveryRun run;
  run.rounds = 1;
  run.max_reacks = kMaxReacks;
  run.byzantine = [](NodeId) { return std::make_unique<RepeatingAsker>(20); };
  run.wrap = [&](NodeId id, std::unique_ptr<net::IProcess> proc)
      -> std::unique_ptr<net::IProcess> {
    if (id != 0) return proc;
    auto wrapped = std::make_unique<DropInstance>(
        std::move(proc), /*origin=*/1, kAckTag, kAckTag | (kAckTag - 1),
        /*until=*/12.0);
    filter = wrapped.get();
    return wrapped;
  };
  run.run();
  ASSERT_NE(filter, nullptr);
  EXPECT_GT(filter->dropped(), 0u);
  EXPECT_GT(run.counter(1, "retries"), kMaxReacks);
  for (const GwtsProcess* proc : run.correct) {
    EXPECT_EQ(proc->current_round(), run.rounds);
    ASSERT_FALSE(proc->decisions().empty());
    EXPECT_TRUE(proc->decisions().back().set.contains(
        lattice::value_from("v0")));
  }
}

TEST(GwtsRecovery, RedeliveredAcksCommitOncePerKey) {
  // The repeating asker makes every acceptor re-publish each ack after
  // the quorum formed, so every replica tallies duplicate acks for an
  // already committed key. A duplicate adds no supporter: each
  // (set, round) is committed once per replica.
  RecoveryRun run;
  run.byzantine = [](NodeId) { return std::make_unique<RepeatingAsker>(4); };
  run.run();
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(run.correct[id]->current_round(), run.rounds);
    EXPECT_GT(run.counter(id, "retries"), 0u) << "node " << id;
    EXPECT_EQ(run.counter(id, "commits"), run.rounds) << "node " << id;
  }
}

}  // namespace
}  // namespace bla::core
