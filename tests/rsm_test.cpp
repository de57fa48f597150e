// Byzantine-tolerant RSM (§7) tests: the six §7.1 properties under
// benign runs, Byzantine replicas (silent, fake-decider, garbage), a
// Byzantine *client*, and asynchrony.

#include <gtest/gtest.h>

#include <map>

#include "core/adversary.hpp"
#include "net/delay_model.hpp"
#include "rsm/command.hpp"
#include "testutil/rsm_scenario.hpp"

namespace bla::rsm {
namespace {

using testutil::RsmScenario;
using testutil::RsmScenarioOptions;

/// Byzantine replica that floods clients with fabricated decision values
/// (a command nobody issued). The confirmation phase must make these
/// un-returnable by reads.
class FakeDecider final : public net::IProcess {
public:
  explicit FakeDecider(std::size_t n) : n_(n) {}

  void on_start(net::IContext& ctx) override { spam(ctx); }
  void on_message(net::IContext& ctx, NodeId, wire::BytesView) override {
    if (++count_ % 8 == 0) spam(ctx);  // keep spamming as traffic flows
  }

private:
  void spam(net::IContext& ctx) {
    Command fake;
    fake.client = 999;
    fake.seq = count_;
    fake.nop = false;
    fake.payload = lattice::value_from("forged-command");
    ValueSet set;
    set.insert(encode_command(fake));

    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmDecide));
    lattice::encode_value_set(enc, set);
    for (NodeId client = static_cast<NodeId>(n_);
         client < ctx.node_count(); ++client) {
      ctx.send(client, enc.view());
    }
    // Also "confirm" anything anyone asks about — it cannot reach f+1
    // confirmations without correct replicas agreeing.
  }

  std::size_t n_;
  std::uint64_t count_ = 0;
};

struct Params {
  std::size_t n;
  std::size_t f;
  std::size_t clients;
  std::uint64_t seed;
};

class RsmSweep : public ::testing::TestWithParam<Params> {};

TEST_P(RsmSweep, PropertiesWithSilentByzantine) {
  const auto& p = GetParam();
  RsmScenarioOptions options;
  options.n = p.n;
  options.f = p.f;
  options.seed = p.seed;
  options.clients = p.clients;
  options.op_pairs = 2;
  RsmScenario scenario(std::move(options));
  scenario.run();
  // Liveness: every operation of every client completes.
  ASSERT_TRUE(scenario.all_clients_done());
  EXPECT_EQ(testutil::check_rsm_properties(scenario.all_ops(),
                                           scenario.submitted_commands()),
            "");
}

TEST_P(RsmSweep, PropertiesWithFakeDecider) {
  const auto& p = GetParam();
  RsmScenarioOptions options;
  options.n = p.n;
  options.f = p.f;
  options.seed = p.seed;
  options.clients = p.clients;
  options.op_pairs = 2;
  options.adversary = [n = p.n](net::NodeId) {
    return std::make_unique<FakeDecider>(n);
  };
  RsmScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_clients_done());
  const auto ops = scenario.all_ops();
  EXPECT_EQ(testutil::check_rsm_properties(ops,
                                           scenario.submitted_commands()),
            "");
  // The forged command never surfaces in any read.
  for (const auto& op : ops) {
    if (!op.is_read) continue;
    for (const core::Value& v : op.read_value) {
      const auto cmd = decode_command(v);
      ASSERT_TRUE(cmd.has_value());
      EXPECT_NE(cmd->client, 999u) << "forged command leaked into a read";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsmSweep,
    ::testing::Values(Params{4, 1, 1, 1}, Params{4, 1, 2, 2},
                      Params{7, 2, 2, 1}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "f" +
             std::to_string(param_info.param.f) + "c" +
             std::to_string(param_info.param.clients) + "s" +
             std::to_string(param_info.param.seed);
    });

TEST(Rsm, ReadsSeeGrowingCounter) {
  // The paper's motivating example: a grow-only counter. Reads along one
  // client's timeline see non-decreasing op counts.
  RsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.clients = 1;
  options.op_pairs = 3;
  RsmScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_clients_done());
  const auto& ops = scenario.clients()[0]->completed();
  std::size_t last_count = 0;
  std::size_t updates_before = 0;
  for (const auto& op : ops) {
    if (!op.is_read) {
      ++updates_before;
      continue;
    }
    EXPECT_GE(op.read_value.size(), last_count);
    // Update Visibility: all of this client's completed updates visible.
    EXPECT_GE(op.read_value.size(), updates_before);
    last_count = op.read_value.size();
  }
}

TEST(Rsm, ByzantineClientCannotCorruptState) {
  // A Byzantine client sprays malformed new_value frames and bogus
  // confirmation requests at the replicas; correct clients proceed
  // unharmed (Lemma 12).
  class EvilClient final : public net::IProcess {
  public:
    explicit EvilClient(std::size_t n) : n_(n) {}
    void on_start(net::IContext& ctx) override {
      for (int i = 0; i < 16; ++i) {
        wire::Encoder enc;
        enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewValue));
        enc.bytes(wire::Bytes(7, static_cast<std::uint8_t>(i)));  // junk
        for (NodeId r = 0; r < n_; ++r) ctx.send(r, enc.view());
        wire::Encoder conf;
        conf.u8(static_cast<std::uint8_t>(core::MsgType::kRsmConfReq));
        lattice::encode_value_set(conf, ValueSet{});
        for (NodeId r = 0; r < n_; ++r) ctx.send(r, conf.view());
      }
    }
    void on_message(net::IContext&, NodeId, wire::BytesView) override {}

  private:
    std::size_t n_;
  };

  net::SimNetwork net({.seed = 3, .delay = nullptr});
  std::vector<RsmReplica*> replicas;
  for (net::NodeId id = 0; id < 4; ++id) {
    auto r = std::make_unique<RsmReplica>(ReplicaConfig{id, 4, 1, 40});
    replicas.push_back(r.get());
    net.add_process(std::move(r));
  }
  std::vector<RsmClient::Op> script;
  wire::Encoder payload;
  payload.str("honest-op");
  script.push_back({false, payload.take()});
  script.push_back({true, {}});
  auto* good = new RsmClient(ClientConfig{4, 4, 1}, script);
  net.add_process(std::unique_ptr<net::IProcess>(good));
  net.add_process(std::make_unique<EvilClient>(4));
  net.run();

  ASSERT_TRUE(good->script_done());
  // The honest read contains exactly the honest update (junk values were
  // filtered by the Lemma 12 admissibility check).
  const auto& read = good->completed()[1];
  EXPECT_EQ(read.read_value.size(), 1u);
  EXPECT_TRUE(read.read_value.contains(good->completed()[0].command));
}

TEST(Rsm, EarlyConfirmationIsAnsweredOnceCommitted) {
  // A client asks to confirm a set before any round could have committed
  // it (its command and the request leave together). Each replica parks
  // the request and answers exactly once, when its commit evidence grows
  // to include the set.
  class EarlyAsker final : public net::IProcess {
  public:
    explicit EarlyAsker(ValueSet set) : set_(std::move(set)) {}
    void on_start(net::IContext& ctx) override {
      wire::Encoder value;
      value.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewValue));
      lattice::encode_value(value, *set_.begin());
      wire::Encoder conf;
      conf.u8(static_cast<std::uint8_t>(core::MsgType::kRsmConfReq));
      lattice::encode_value_set(conf, set_);
      for (NodeId r = 0; r < 4; ++r) {
        ctx.send(r, value.view());
        ctx.send(r, conf.view());
      }
    }
    void on_message(net::IContext&, NodeId from,
                    wire::BytesView payload) override {
      wire::Decoder dec(payload);
      if (static_cast<core::MsgType>(dec.u8()) != core::MsgType::kRsmConfRep) {
        return;
      }
      if (lattice::decode_value_set(dec) == set_) ++replies[from];
    }
    std::map<NodeId, int> replies;

  private:
    ValueSet set_;
  };

  Command cmd;
  cmd.client = 4;
  cmd.payload = lattice::value_from("early");
  ValueSet set;
  set.insert(encode_command(cmd));

  net::SimNetwork net({.seed = 5, .delay = nullptr});
  std::vector<RsmReplica*> replicas;
  for (net::NodeId id = 0; id < 4; ++id) {
    auto r = std::make_unique<RsmReplica>(ReplicaConfig{id, 4, 1, 20});
    replicas.push_back(r.get());
    net.add_process(std::move(r));
  }
  auto* asker = new EarlyAsker(set);
  net.add_process(std::unique_ptr<net::IProcess>(asker));
  net.run();

  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_TRUE(replicas[r]->engine().is_committed(set)) << "replica " << r;
    EXPECT_EQ(asker->replies[r], 1) << "replica " << r;
  }
}

TEST(Rsm, AsynchronousDelays) {
  RsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.clients = 2;
  options.op_pairs = 2;
  options.seed = 77;
  options.delay = std::make_unique<net::UniformDelay>(0.2, 3.0);
  RsmScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_clients_done());
  EXPECT_EQ(testutil::check_rsm_properties(scenario.all_ops(),
                                           scenario.submitted_commands()),
            "");
}

TEST(Rsm, ReadConfirmationsAgainstGsbsReplicas) {
  // Alg. 7 read confirmations were historically only exercised against
  // the GWTS engine. The signature-based GSbS engine serves the same
  // replica protocol — and must yield the same §7.1 properties even with
  // a Byzantine slot fabricating decide notifications at the clients.
  RsmScenarioOptions options;
  options.engine = core::EngineKind::kGsbs;
  options.n = 4;
  options.f = 1;
  options.clients = 2;
  options.op_pairs = 3;
  options.max_rounds = 80;
  options.adversary = [](NodeId) -> std::unique_ptr<net::IProcess> {
    return std::make_unique<FakeDecider>(4);
  };
  RsmScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_clients_done());
  const auto ops = scenario.all_ops();
  EXPECT_EQ(testutil::check_rsm_properties(ops,
                                           scenario.submitted_commands()),
            "");
  // Confirmed reads only surface engine-committed commands: the forged
  // decide value can never gather f+1 confirmations.
  for (const auto& op : ops) {
    if (!op.is_read) continue;
    for (const core::Value& v : op.read_value) {
      const auto cmd = decode_command(v);
      ASSERT_TRUE(cmd.has_value());
      EXPECT_NE(cmd->client, 999u) << "forged command leaked into a read";
    }
  }
}

TEST(Rsm, ReplicaStateMaterializesDecidedCommands) {
  RsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.clients = 1;
  options.op_pairs = 2;
  RsmScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_clients_done());
  // Every correct replica's materialized state holds all completed
  // updates (nops filtered).
  for (const RsmReplica* replica : scenario.correct_replicas()) {
    const ValueSet state = replica->state();
    EXPECT_TRUE(scenario.submitted_commands().leq(state));
    for (const core::Value& v : state) {
      const auto cmd = decode_command(v);
      ASSERT_TRUE(cmd.has_value());
      EXPECT_FALSE(cmd->nop);
    }
  }
}

TEST(CommandCodec, RoundTrip) {
  Command cmd;
  cmd.client = 42;
  cmd.seq = 7;
  cmd.nop = false;
  cmd.payload = lattice::value_from("add(5)");
  const Value v = encode_command(cmd);
  const auto back = decode_command(v);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->client, 42u);
  EXPECT_EQ(back->seq, 7u);
  EXPECT_FALSE(back->nop);
  EXPECT_EQ(back->payload, lattice::value_from("add(5)"));
}

TEST(CommandCodec, RejectsJunk) {
  EXPECT_FALSE(decode_command(lattice::value_from("junk")).has_value());
  EXPECT_FALSE(decode_command(Value{}).has_value());
  // Trailing garbage after a valid command is rejected too.
  Command cmd;
  Value v = encode_command(cmd);
  v.push_back(0x00);
  EXPECT_FALSE(decode_command(v).has_value());
}

TEST(CommandCodec, ExecuteFiltersNops) {
  ValueSet decided;
  Command update;
  update.client = 1;
  update.seq = 0;
  update.payload = lattice::value_from("x");
  Command nop;
  nop.client = 1;
  nop.seq = 1;
  nop.nop = true;
  decided.insert(encode_command(update));
  decided.insert(encode_command(nop));
  decided.insert(lattice::value_from("not-a-command"));
  const ValueSet result = execute(decided);
  EXPECT_EQ(result.size(), 1u);
  EXPECT_TRUE(result.contains(encode_command(update)));
}

}  // namespace
}  // namespace bla::rsm
