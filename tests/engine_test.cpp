// Engine-contract tests: the behaviour both generalized engines inherit
// from core::EngineBase, run once per engine through make_engine (HMAC
// signers; GWTS ignores its signer).

#include <gtest/gtest.h>

#include <string>

#include "core/adversary.hpp"
#include "core/engine.hpp"
#include "core/gsbs.hpp"
#include "crypto/signer.hpp"
#include "net/sim_network.hpp"
#include "rbc/bracha.hpp"

namespace bla::core {
namespace {

/// Hosts an engine and submits `values` to it at time `at`, each from
/// its own timer event, through the runtime's context as the RSM replica
/// does.
class SubmitAt final : public net::IProcess {
public:
  SubmitAt(std::unique_ptr<IAgreementEngine> engine, std::vector<Value> values,
           double at)
      : engine_(std::move(engine)), values_(std::move(values)), at_(at) {}

  void on_start(net::IContext& ctx) override {
    engine_->on_start(ctx);
    for (std::size_t k = 0; k < values_.size(); ++k) {
      ctx.schedule(at_, kSubmitToken + k);
    }
  }
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) override {
    engine_->on_message(ctx, from, payload);
  }
  void on_timer(net::IContext& ctx, std::uint64_t token) override {
    if (token >= kSubmitToken) {
      engine_->submit(values_[token - kSubmitToken], ctx);
    } else {
      engine_->on_timer(ctx, token);
    }
  }

private:
  static constexpr std::uint64_t kSubmitToken = 7;  // engines use 0 and 1
  std::unique_ptr<IAgreementEngine> engine_;
  std::vector<Value> values_;
  double at_;
};

/// Broadcasts the first frame of `round` from a peer: a GWTS disclosure
/// of `batch` (as the RBC SEND; correct replicas echo it to delivery) and
/// a GSbS INIT of `batch` signed by `signer`.
void open_round(net::IContext& ctx, std::uint64_t round,
                const ValueSet& batch, const crypto::ISigner& signer) {
  wire::Encoder disclosure;
  disclosure.u8(static_cast<std::uint8_t>(MsgType::kDisclosure));
  lattice::encode_value_set(disclosure, batch);
  disclosure.u64(round);
  wire::Encoder send;
  send.u8(static_cast<std::uint8_t>(rbc::MsgType::kSend));
  send.u64(round);  // disclosure tag = round
  send.bytes(disclosure.view());
  ctx.broadcast(send.take());

  const store::BodyStore store;
  SignedBatch sb{ctx.self(), round, batch, {}};
  sb.signature =
      signer.sign(batch_signing_bytes(sb, content_key(batch.elements(), store)));
  wire::Encoder init;
  init.u8(static_cast<std::uint8_t>(MsgType::kGsbsInit));
  init.u32(sb.signer);
  init.u64(sb.round);
  lattice::encode_value_set(init, sb.batch);
  init.bytes(sb.signature);
  ctx.broadcast(init.take());
}

/// Byzantine peer naming a far-future round in every frame kind that
/// carries a proposer's round — a GWTS disclosure (reliably broadcast)
/// and ack-req, a signed GSbS INIT and ack-req — at start and again on
/// each delivery, up to `budget` bursts.
class FarFutureFrames final : public net::IProcess {
public:
  FarFutureFrames(std::uint64_t round,
                  std::shared_ptr<const crypto::ISigner> signer,
                  std::size_t budget)
      : round_(round), signer_(std::move(signer)), budget_(budget) {}

  void on_start(net::IContext& ctx) override { burst(ctx); }
  void on_message(net::IContext& ctx, NodeId, wire::BytesView) override {
    burst(ctx);
  }

private:
  void burst(net::IContext& ctx) {
    if (budget_ == 0) return;
    --budget_;
    const ValueSet batch{lattice::value_from("far")};
    open_round(ctx, round_, batch, *signer_);

    wire::Encoder ack_req;
    ack_req.u8(static_cast<std::uint8_t>(MsgType::kAckReq));
    ack_req.u8(0);  // no checkpoint root
    lattice::encode_value_set(ack_req, batch);
    ack_req.u64(1);  // ts
    ack_req.u64(round_);
    ctx.broadcast(ack_req.take());

    wire::Encoder gsbs_ack_req;
    gsbs_ack_req.u8(static_cast<std::uint8_t>(MsgType::kGsbsAckReq));
    gsbs_ack_req.u8(0);  // no checkpoint root
    gsbs_ack_req.u64(1);  // ts
    gsbs_ack_req.u64(round_);
    gsbs_ack_req.uvarint(0);  // empty proposal
    ctx.broadcast(gsbs_ack_req.take());
  }

  std::uint64_t round_;
  std::shared_ptr<const crypto::ISigner> signer_;
  std::size_t budget_;
};

/// Byzantine peer that opens every round r < batches.size() at start
/// with batches[r] — the first frame a correct replica may join round r
/// on — and then stays silent.
class RoundOpener final : public net::IProcess {
public:
  RoundOpener(std::vector<ValueSet> batches,
              std::shared_ptr<const crypto::ISigner> signer)
      : batches_(std::move(batches)), signer_(std::move(signer)) {}

  void on_start(net::IContext& ctx) override {
    for (std::uint64_t r = 0; r < batches_.size(); ++r) {
      open_round(ctx, r, batches_[r], *signer_);
    }
  }
  void on_message(net::IContext&, NodeId, wire::BytesView) override {}

private:
  std::vector<ValueSet> batches_;
  std::shared_ptr<const crypto::ISigner> signer_;
};

class EngineContract : public ::testing::TestWithParam<EngineKind> {
protected:
  [[nodiscard]] std::string counter_name(NodeId id,
                                         const std::string& metric) const {
    const char* engine = GetParam() == EngineKind::kGwts ? "gwts" : "gsbs";
    return "node" + std::to_string(id) + "/" + engine + "/" + metric;
  }
  [[nodiscard]] std::uint64_t counter(NodeId id,
                                      const std::string& metric) const {
    return registry_->counter(counter_name(id, metric)).value();
  }
  /// An engine for node `id` of n with recovery on.
  [[nodiscard]] std::unique_ptr<IAgreementEngine> engine(
      NodeId id, std::size_t n, std::size_t f,
      IAgreementEngine::DecideFn on_decide = nullptr) const {
    EngineConfig config{id, n, f};
    config.registry = registry_;
    config.recovery.enabled = true;
    return make_engine(GetParam(), config, signers_->signer_for(id),
                       std::move(on_decide));
  }
  /// Time from submission to node `id`'s first decision when `value` is
  /// submitted to node 0 at time `at` of an idle four-node cluster.
  [[nodiscard]] std::vector<double> decide_delays(double at) {
    net::SimNetwork net({.seed = 1, .delay = nullptr});
    std::vector<IAgreementEngine*> engines;
    const Value value = lattice::value_from("late");
    for (NodeId id = 0; id < 4; ++id) {
      auto e = engine(id, 4, 1);
      engines.push_back(e.get());
      if (id == 0) {
        net.add_process(std::make_unique<SubmitAt>(
            std::move(e), std::vector<Value>{value}, at));
      } else {
        net.add_process(std::move(e));
      }
    }
    net.run();
    std::vector<double> delays;
    for (const IAgreementEngine* e : engines) {
      EXPECT_EQ(e->decisions().size(), 1u);
      if (e->decisions().empty()) return {};
      EXPECT_TRUE(e->decisions().front().set.contains(value));
      delays.push_back(e->decisions().front().time - at);
    }
    return delays;
  }

  std::shared_ptr<crypto::ISignerSet> signers_ =
      crypto::make_hmac_signer_set(7, 1);
  std::shared_ptr<obs::Registry> registry_ = std::make_shared<obs::Registry>();
};

TEST_P(EngineContract, IdleRoundsRecordNoDecision) {
  // One value under a generous budget: its round runs, then one more
  // round (the decided set grew), which carries nothing; then the rounds
  // stop. Only the one decision that grew the decided set is recorded.
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
    EXPECT_EQ(counter(id, "rounds"), 2u) << "node " << id;
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
  EXPECT_EQ(counter(0, "retries"), 4u);
}

TEST_P(EngineContract, IdleClusterRunsNoRoundsAndQuiesces) {
  // Nothing submitted, recovery on: no engine starts a round or arms its
  // timer, so the simulation drains at once.
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  for (NodeId id = 0; id < 4; ++id) net.add_process(engine(id, 4, 1));
  constexpr std::uint64_t kEventCap = 1'000;
  EXPECT_LT(net.run(kEventCap), kEventCap);
  EXPECT_EQ(net.total_messages(), 0u);
  for (NodeId id = 0; id < 4; ++id) {
    EXPECT_EQ(counter(id, "rounds"), 0u) << "node " << id;
  }
}

TEST_P(EngineContract, ValueAfterIdlingDecidesAsFastAsAtStart) {
  // The submission starts the idle round directly: no round is in the
  // way and no timer hop is added, so the delay is the same at t = 1000
  // as at t = 0.
  const std::vector<double> at_start = decide_delays(0.0);
  const std::vector<double> after_idle = decide_delays(1000.0);
  ASSERT_EQ(at_start.size(), 4u);
  EXPECT_EQ(after_idle, at_start);
}

TEST_P(EngineContract, ValuesArrivingTogetherShareOneRound) {
  // Two values reach an idle node 0 in separate events of one instant:
  // the round starts after both joined its batch, so one round decides
  // both, and the round after that growth carries nothing.
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<IAgreementEngine*> engines;
  const std::vector<Value> values{lattice::value_from("first"),
                                  lattice::value_from("second")};
  for (NodeId id = 0; id < 4; ++id) {
    auto e = engine(id, 4, 1);
    engines.push_back(e.get());
    if (id == 0) {
      net.add_process(std::make_unique<SubmitAt>(std::move(e), values, 5.0));
    } else {
      net.add_process(std::move(e));
    }
  }
  net.run();
  for (NodeId id = 0; id < 4; ++id) {
    EXPECT_EQ(counter(id, "rounds"), 2u) << "node " << id;
    ASSERT_EQ(engines[id]->decisions().size(), 1u) << "node " << id;
    EXPECT_EQ(engines[id]->decisions().front().round, 0u) << "node " << id;
    for (const Value& v : values) {
      EXPECT_TRUE(engines[id]->decided_set().contains(v)) << "node " << id;
    }
  }
}

TEST_P(EngineContract, ReplicasWithoutTheValueJoinItsRound) {
  // n = 7, f = 2 silent, and the value reaches only f+1 replicas (as a
  // client sends a batch): the other two join on the first peer frame of
  // round 0 and decide the value in that same round.
  constexpr std::size_t kN = 7;
  constexpr std::size_t kF = 2;
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<IAgreementEngine*> engines;
  const Value value = lattice::value_from("f+1");
  for (NodeId id = 0; id < kN - kF; ++id) {
    auto e = engine(id, kN, kF);
    if (id <= kF) e->submit(value);
    engines.push_back(e.get());
    net.add_process(std::move(e));
  }
  for (std::size_t i = 0; i < kF; ++i) {
    net.add_process(std::make_unique<SilentProcess>());
  }
  net.run();
  for (NodeId id = 0; id < kN - kF; ++id) {
    ASSERT_EQ(engines[id]->decisions().size(), 1u) << "node " << id;
    EXPECT_EQ(engines[id]->decisions().front().round, 0u) << "node " << id;
    EXPECT_TRUE(engines[id]->decided_set().contains(value)) << "node " << id;
  }
}

TEST_P(EngineContract, FarFutureFramesStartNoRoundAndNoStallPasses) {
  // One Byzantine peer names round 10^6 in every frame kind, again and
  // again: that is not demand for round 0, and one peer is not the f+1
  // that would mark the engines as behind, so no round starts, the
  // recovery timer never runs a stall pass, and the run quiesces.
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  for (NodeId id = 0; id < 3; ++id) net.add_process(engine(id, 4, 1));
  net.add_process(std::make_unique<FarFutureFrames>(
      1'000'000, signers_->signer_for(3), /*budget=*/50));
  constexpr std::uint64_t kEventCap = 100'000;
  EXPECT_LT(net.run(kEventCap), kEventCap);
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(counter(id, "rounds"), 0u) << "node " << id;
    EXPECT_EQ(counter(id, "retries"), 0u) << "node " << id;
  }
}

TEST_P(EngineContract, EmptyRoundsOpenedByOnePeerRunAtMostOneInARow) {
  // One Byzantine peer opens rounds 0..199 with empty batches before
  // anything is submitted. A correct replica joins such a round only if
  // the previous one started on demand, so the idle cluster runs round 0
  // and stops; a value submitted at t = 1000 then runs its round, the
  // round after that growth, and one more opened round, and still
  // decides everywhere. Without the limit every replica would run all
  // 200 rounds, two RBC instances each in GWTS, never expired (nothing
  // grows towards a checkpoint).
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<IAgreementEngine*> engines;
  const Value value = lattice::value_from("after-churn");
  for (NodeId id = 0; id < 3; ++id) {
    auto e = engine(id, 4, 1);
    engines.push_back(e.get());
    if (id == 0) {
      net.add_process(std::make_unique<SubmitAt>(
          std::move(e), std::vector<Value>{value}, 1000.0));
    } else {
      net.add_process(std::move(e));
    }
  }
  net.add_process(std::make_unique<RoundOpener>(std::vector<ValueSet>(200),
                                                signers_->signer_for(3)));
  constexpr std::uint64_t kEventCap = 1'000'000;
  EXPECT_LT(net.run(kEventCap), kEventCap);
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(counter(id, "rounds"), 4u) << "node " << id;
    EXPECT_TRUE(engines[id]->decided_set().contains(value)) << "node " << id;
    EXPECT_EQ(registry_->counter("node" + std::to_string(id) +
                                 "/rbc/instance_cap")
                  .value(),
              0u);
  }
}

TEST_P(EngineContract, FreshValueOpenedEarlyStartsItsRoundAfterAnEmptyOne) {
  // A peer opens round 0 with nothing and round 1 with a new value, both
  // at start, so the replicas hold the round-1 frame while round 0 runs.
  // Round 0 started on an empty frame alone, so round 1 may start only
  // on what its frame carries: the value not yet decided. It is decided
  // in round 1, and the growth starts one more round.
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<IAgreementEngine*> engines;
  for (NodeId id = 0; id < 3; ++id) {
    auto e = engine(id, 4, 1);
    engines.push_back(e.get());
    net.add_process(std::move(e));
  }
  const Value value = lattice::value_from("opened-early");
  net.add_process(std::make_unique<RoundOpener>(
      std::vector<ValueSet>{ValueSet{}, ValueSet{value}},
      signers_->signer_for(3)));
  net.run();
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(counter(id, "rounds"), 3u) << "node " << id;
    ASSERT_EQ(engines[id]->decisions().size(), 1u) << "node " << id;
    EXPECT_EQ(engines[id]->decisions().front().round, 1u) << "node " << id;
    EXPECT_TRUE(engines[id]->decided_set().contains(value)) << "node " << id;
  }
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
