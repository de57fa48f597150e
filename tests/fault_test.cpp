// Fault-injection layer: timer plumbing, injector semantics (drop /
// duplicate / reorder / partition / crash), deterministic replay, and the
// end-to-end recovery story — a lossy, partitioned, crash-recovering run
// still commits every batched command on every correct replica, and a
// hopeless run fails *loudly* instead of hanging.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fault/fault.hpp"
#include "net/sim_network.hpp"
#include "net/socket_network.hpp"
#include "testutil/batch_scenario.hpp"

namespace bla {
namespace {

using fault::CrashSpec;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::PartitionSpec;

/// Schedules a chain of `target` timers, counting deliveries.
class TimerCounter final : public net::IProcess {
public:
  explicit TimerCounter(int target) : target_(target) {}

  void on_start(net::IContext& ctx) override { ctx.schedule(1.0, 7); }
  void on_message(net::IContext&, net::NodeId, wire::BytesView) override {}
  void on_timer(net::IContext& ctx, std::uint64_t token) override {
    EXPECT_EQ(token, 7u);
    last_fire_ = ctx.now();
    if (++fired_ < target_) ctx.schedule(1.0, 7);
  }

  [[nodiscard]] int fired() const { return fired_.load(); }
  [[nodiscard]] double last_fire() const { return last_fire_; }

private:
  const int target_;
  std::atomic<int> fired_{0};
  double last_fire_ = 0.0;
};

TEST(FaultTimers, SimTimersFireInOrderAndQuiesce) {
  net::SimNetwork::Config cfg;
  cfg.seed = 1;
  net::SimNetwork net{std::move(cfg)};
  auto counter = std::make_unique<TimerCounter>(3);
  const TimerCounter* c = counter.get();
  net.add_process(std::move(counter));
  net.run();
  EXPECT_EQ(c->fired(), 3);
  EXPECT_DOUBLE_EQ(c->last_fire(), 3.0);  // 3 chained 1.0 delays
}

TEST(FaultTimers, SocketTimersFire) {
  // A one-member cluster: no peers to dial, only the event loop's timers.
  net::SocketNetwork net({.self = 0, .cluster_n = 1});
  auto counter = std::make_unique<TimerCounter>(3);
  const TimerCounter* c = counter.get();
  net.host(std::move(counter));
  net.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (c->fired() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  net.stop();
  EXPECT_EQ(c->fired(), 3);
}

/// Drives the injector directly and records what it emits.
std::vector<wire::Bytes> emitted(FaultInjector& inj, net::NodeId from,
                                 net::NodeId to, double now,
                                 const wire::Bytes& payload) {
  std::vector<wire::Bytes> out;
  inj.outbound(from, to, now, payload,
               [&out](wire::Bytes b) { out.push_back(std::move(b)); });
  return out;
}

wire::Bytes frame(std::uint8_t tag) { return wire::Bytes{tag}; }

TEST(FaultInjector, DropAllSuppressesEveryDelivery) {
  FaultPlan plan;
  plan.default_link.drop = 1.0;
  FaultInjector inj(plan, nullptr);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(emitted(inj, 0, 1, i, frame(1)).empty());
  }
  EXPECT_EQ(inj.stats().dropped, 8u);
  EXPECT_EQ(inj.injected_faults(), 8u);
}

TEST(FaultInjector, SelfDeliveryIsExemptFromLinkFaults) {
  FaultPlan plan;
  plan.default_link.drop = 1.0;
  FaultInjector inj(plan, nullptr);
  EXPECT_EQ(emitted(inj, 2, 2, 0.0, frame(1)).size(), 1u);
  EXPECT_EQ(inj.stats().dropped, 0u);
}

TEST(FaultInjector, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.default_link.duplicate = 1.0;
  FaultInjector inj(plan, nullptr);
  const auto out = emitted(inj, 0, 1, 0.0, frame(9));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(inj.stats().duplicated, 1u);
}

TEST(FaultInjector, ReorderSwapsAdjacentFramesPerLink) {
  FaultPlan plan;
  plan.default_link.reorder = 1.0;
  FaultInjector inj(plan, nullptr);
  // First frame is stashed, the next one releases it swapped.
  EXPECT_TRUE(emitted(inj, 0, 1, 0.0, frame(1)).empty());
  const auto out = emitted(inj, 0, 1, 1.0, frame(2));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], frame(2));
  EXPECT_EQ(out[1], frame(1));
  // The stash is per directed link: the reverse direction is untouched.
  EXPECT_TRUE(emitted(inj, 1, 0, 2.0, frame(3)).empty());
  EXPECT_EQ(inj.stats().reordered, 2u);
}

TEST(FaultInjector, PartitionWindowBlocksAcrossThenHeals) {
  FaultPlan plan;
  plan.partitions.push_back(PartitionSpec{/*start=*/2.0, /*heal=*/6.0,
                                          /*side_a=*/{0}});
  FaultInjector inj(plan, nullptr);
  EXPECT_EQ(emitted(inj, 0, 1, 0.0, frame(1)).size(), 1u);  // pins epoch
  EXPECT_TRUE(emitted(inj, 0, 1, 3.0, frame(1)).empty());   // across the cut
  EXPECT_TRUE(emitted(inj, 1, 0, 4.0, frame(1)).empty());   // both directions
  EXPECT_EQ(emitted(inj, 1, 2, 3.0, frame(1)).size(), 1u);  // same side
  EXPECT_EQ(emitted(inj, 0, 1, 6.0, frame(1)).size(), 1u);  // healed
  EXPECT_EQ(inj.stats().partition_dropped, 2u);
}

TEST(FaultInjector, CrashWindowIsolatesTheNodeThenRecovers) {
  FaultPlan plan;
  plan.crashes.push_back(CrashSpec{/*node=*/1, /*crash=*/5.0,
                                   /*recover=*/10.0});
  FaultInjector inj(plan, nullptr);
  EXPECT_EQ(emitted(inj, 0, 1, 0.0, frame(1)).size(), 1u);  // pins epoch
  EXPECT_TRUE(emitted(inj, 0, 1, 6.0, frame(1)).empty());   // inbound cut
  EXPECT_TRUE(emitted(inj, 1, 0, 7.0, frame(1)).empty());   // outbound cut
  EXPECT_TRUE(inj.inbound_blocked(1, 8.0));                 // in-flight frames
  EXPECT_FALSE(inj.inbound_blocked(0, 8.0));
  EXPECT_EQ(emitted(inj, 0, 1, 11.0, frame(1)).size(), 1u);  // recovered
  EXPECT_FALSE(inj.inbound_blocked(1, 11.0));
  EXPECT_GE(inj.stats().crash_dropped, 3u);
}

TEST(FaultInjector, SameSeedReplaysTheSameFaultSequence) {
  FaultPlan plan;
  plan.seed = 42;
  plan.default_link.drop = 0.3;
  plan.default_link.duplicate = 0.2;
  plan.default_link.reorder = 0.1;
  FaultInjector a(plan, nullptr);
  FaultInjector b(plan, nullptr);
  for (int i = 0; i < 200; ++i) {
    const auto from = static_cast<net::NodeId>(i % 4);
    const auto to = static_cast<net::NodeId>((i + 1) % 4);
    const auto out_a = emitted(a, from, to, i, frame(i & 0xff));
    const auto out_b = emitted(b, from, to, i, frame(i & 0xff));
    ASSERT_EQ(out_a, out_b) << "diverged at frame " << i;
  }
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.dropped, sb.dropped);
  EXPECT_EQ(sa.duplicated, sb.duplicated);
  EXPECT_EQ(sa.reordered, sb.reordered);
  EXPECT_GT(a.injected_faults(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end recovery.
// ---------------------------------------------------------------------------

/// ISSUE acceptance scenario: 1% loss on every link, a partition window
/// that isolates replica 0 and heals, and a crash/recover of replica 3
/// (≤ f), under a 10k-command batched workload. With engine recovery and
/// client retransmission on, every command must commit on every replica.
TEST(FaultRecovery, TenThousandCommandsCommitUnderLossPartitionAndCrash) {
  testutil::BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  // All four replicas are correct; the *plan* supplies the faults.
  options.byz_ids = {4};  // sentinel outside [0, n): no Byzantine slot
  options.clients = 2;
  options.commands_per_client = 5000;
  options.batch_size = 64;
  options.max_in_flight = 8;
  // The workload itself finishes within ~25 rounds; the budget only has
  // to cover the post-heal catch-up tail, and each idle round past that
  // is pure simulated time.
  options.max_rounds = 300;
  options.fault_plan.seed = 7;
  options.fault_plan.default_link.drop = 0.01;
  options.fault_plan.partitions.push_back(
      PartitionSpec{/*start=*/40.0, /*heal=*/90.0, /*side_a=*/{0}});
  options.fault_plan.crashes.push_back(
      CrashSpec{/*node=*/3, /*crash=*/120.0, /*recover=*/200.0});
  options.recovery.enabled = true;
  options.retry.enabled = true;
  options.retry.max_attempts = 10;
  testutil::BatchRsmScenario scenario(std::move(options));
  scenario.run_until_done();
  scenario.run();  // drain residual rounds so every replica catches up

  ASSERT_NE(scenario.fault_injector(), nullptr);
  EXPECT_GT(scenario.fault_injector()->injected_faults(), 0u);
  ASSERT_TRUE(scenario.all_clients_done());
  for (const batch::BatchClient* client : scenario.clients()) {
    EXPECT_EQ(client->pipeline().commands_failed(), 0u);
    EXPECT_EQ(client->commands_dropped(), 0u);
  }
  const core::ValueSet expected = scenario.expected_commands();
  EXPECT_EQ(expected.size(), 10000u);
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_TRUE(expected.leq(replica->state()))
        << "replica missing "
        << lattice::set_minus(expected, replica->state()).size()
        << " of 10000 committed commands";
  }
}

/// GSbS engine takes the same medicine (smaller dose).
TEST(FaultRecovery, GsbsCommitsUnderLossAndCrash) {
  testutil::BatchRsmScenarioOptions options;
  options.engine = core::EngineKind::kGsbs;
  options.n = 4;
  options.f = 1;
  options.byz_ids = {4};
  options.clients = 2;
  options.commands_per_client = 200;
  options.batch_size = 16;
  // GSbS proposals are cumulative (every batch since round 0 rides every
  // ack-req with its proof quorum), so idle rounds after the workload
  // drains are *quadratically* expensive — keep the round budget tight.
  options.max_rounds = 150;
  options.fault_plan.seed = 11;
  options.fault_plan.default_link.drop = 0.01;
  options.fault_plan.crashes.push_back(
      CrashSpec{/*node=*/2, /*crash=*/30.0, /*recover=*/80.0});
  options.recovery.enabled = true;
  options.retry.enabled = true;
  options.retry.max_attempts = 10;
  testutil::BatchRsmScenario scenario(std::move(options));
  scenario.run_until_done();
  scenario.run();

  ASSERT_TRUE(scenario.all_clients_done());
  for (const batch::BatchClient* client : scenario.clients()) {
    EXPECT_EQ(client->pipeline().commands_failed(), 0u);
  }
  const core::ValueSet expected = scenario.expected_commands();
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_TRUE(expected.leq(replica->state()));
  }
}

/// Total loss: nothing can commit, but nothing hangs either. The retry
/// budget drains, done() turns true, and the loss is surfaced through
/// commands_failed() — the "fail loudly" half of the recovery contract.
TEST(FaultRecovery, TotalLossSurfacesGiveUpInsteadOfHanging) {
  testutil::BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.byz_ids = {4};
  options.clients = 1;
  options.commands_per_client = 8;
  options.batch_size = 4;
  options.max_rounds = 40;
  options.fault_plan.default_link.drop = 1.0;
  options.recovery.enabled = true;
  options.recovery.max_resends = 4;  // bound the pointless retry traffic
  options.retry.enabled = true;
  options.retry.deadline = 8.0;
  options.retry.tick = 4.0;
  options.retry.max_attempts = 2;
  testutil::BatchRsmScenario scenario(std::move(options));
  scenario.run();  // must quiesce despite recovery being enabled

  ASSERT_TRUE(scenario.all_clients_done());
  const batch::BatchClient* client = scenario.clients()[0];
  EXPECT_EQ(client->pipeline().commands_failed(), 8u);
  EXPECT_GT(client->pipeline().batches_abandoned(), 0u);
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_TRUE(replica->state().empty());
  }
}

}  // namespace
}  // namespace bla
