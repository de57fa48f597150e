// Checkpointing + unified GC (ISSUE 9): the soak/property suite.
//
//  * Soak: 10^5 commands through the batched RSM under link loss and a
//    partition, with aggressive periodic checkpoints. The obs::Registry
//    gauges must show bounded working state at the end — body store,
//    compacted accepted/proposed deltas, live RBC instances — and the
//    largest RBC frame must stay far from the 16MB cap.
//  * Laggard: a replica crashed through most of the run catches up from
//    a root-checked peer snapshot (snapshots_adopted ≥ 1), not by
//    replaying full history (its peers expired those RBC instances).
//  * ROADMAP 1b regression: with a test-scaled frame cap, an over-cap
//    ack broadcast compacts to [checkpoint root]+delta and retries
//    instead of dropping (compact_retries > 0, no rejected broadcasts).
//    When even the compacted ack is over the cap, the refusal for an
//    old-round ack-req un-records the ack safely (run under ASan).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "core/gwts.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "rbc/bracha.hpp"
#include "store/ref.hpp"
#include "testutil/batch_scenario.hpp"
#include "testutil/properties.hpp"

namespace bla {
namespace {

double node_gauge(const std::shared_ptr<obs::Registry>& reg,
                  std::size_t node, const std::string& name) {
  return reg->gauge("node" + std::to_string(node) + "/" + name).value();
}

std::uint64_t node_counter(const std::shared_ptr<obs::Registry>& reg,
                           std::size_t node, const std::string& name) {
  return reg->counter("node" + std::to_string(node) + "/" + name).value();
}

// ---------------------------------------------------------------------------
// Soak: 10^5 commands, faults on, periodic checkpoints, bounded gauges.
// ---------------------------------------------------------------------------

TEST(CheckpointSoak, HundredThousandCommandsBoundedState) {
  testutil::BatchRsmScenarioOptions opt;
  opt.n = 4;
  opt.f = 1;
  opt.seed = 9;
  opt.engine = core::EngineKind::kGwts;
  opt.clients = 4;
  opt.commands_per_client = 25'000;  // 10^5 commands total
  opt.batch_size = 250;              // 400 batches = 400 decided elements
  opt.max_in_flight = 4;
  // Budget: the workload decides in ~40 rounds; the tail is idle-round
  // catch-up. (Idle rounds are the dominant wall-clock cost at this
  // scale, checkpointing or not.)
  opt.max_rounds = 70;
  opt.checkpoint_interval = 16;
  const auto registry = std::make_shared<obs::Registry>();
  // Lifecycle latency tracking hashes every one of the 10^5 commands at
  // each stage — off; this test reads gauges/counters only.
  registry->lifecycle().set_enabled(false);
  opt.registry = registry;
  // Fault cocktail: light loss/reorder everywhere plus one mid-run
  // partition isolating a replica. Recovery + client retry keep it live.
  opt.fault_plan.seed = 0xC0FFEE;
  opt.fault_plan.default_link.drop = 0.002;
  opt.fault_plan.default_link.reorder = 0.002;
  opt.fault_plan.partitions.push_back({40.0, 90.0, {net::NodeId{1}}});
  opt.recovery.enabled = true;
  opt.retry.enabled = true;
  opt.retry.deadline = 24.0;
  opt.retry.tick = 6.0;
  opt.retry.max_attempts = 10;

  const std::size_t total_batches =
      opt.clients * opt.commands_per_client / opt.batch_size;  // 400
  testutil::BatchRsmScenario scenario(std::move(opt));
  scenario.run_until_done(600'000'000);
  scenario.run(600'000'000);  // residual: let every replica catch up

  ASSERT_TRUE(scenario.all_clients_done());
  const auto& replicas = scenario.correct_replicas();
  ASSERT_EQ(replicas.size(), 3u);  // one silent Byzantine slot

  // Every confirmed command materialized on every caught-up replica.
  const core::ValueSet expected = scenario.expected_commands();
  EXPECT_EQ(expected.size(), 100'000u);
  core::ValueSet union_state;
  for (const rsm::RsmReplica* r : replicas) union_state.merge(r->state());
  for (const core::Value& cmd : expected) {
    ASSERT_TRUE(union_state.contains(cmd));
  }

  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const rsm::RsmReplica* r = replicas[i];
    // Identify the node id from the replica itself (replicas are the
    // correct = non-Byzantine ids 0..n-f-1 in construction order).
    const std::size_t node = i;

    // Checkpoints actually ran, and committed nearly everything decided.
    const checkpoint::CheckpointManager* ck = r->engine().checkpoints();
    ASSERT_NE(ck, nullptr);
    EXPECT_GE(ck->checkpoints_taken(), 5u) << "node" << node;
    EXPECT_GT(ck->latest().seq, 0u);
    const double ck_elems = node_gauge(registry, node,
                                       "checkpoint/elements");
    EXPECT_GT(ck_elems, 0.0);

    // Bounded body store: evicted bodies dominate; what remains is the
    // uncovered tail plus snapshot-reserved bodies, far below the 400
    // batch bodies the run disseminated.
    EXPECT_GT(ck->bodies_evicted(), 0u) << "node" << node;
    const double store_bodies =
        node_gauge(registry, node, "checkpoint/store_bodies");
    EXPECT_LT(store_bodies, static_cast<double>(total_batches))
        << "node" << node;

    // Compacted working sets: accepted/proposed ship (and hold) deltas
    // vs the checkpoint root, so their cardinality tracks the
    // checkpoint interval, not the 400-element decided set.
    const double acc = node_gauge(registry, node, "gwts/accepted_delta");
    const double prop = node_gauge(registry, node, "gwts/proposed_delta");
    EXPECT_LT(acc, static_cast<double>(total_batches) / 2) << "node" << node;
    EXPECT_LT(prop, static_cast<double>(total_batches) / 2)
        << "node" << node;

    // RBC instance GC: instances ≥2 checkpointed rounds behind expired;
    // what stays live is a recent window, not one instance per
    // disclosure/ack ever broadcast.
    EXPECT_GT(node_counter(registry, node, "rbc/expired_instances"), 0u)
        << "node" << node;
    const double live = node_gauge(registry, node, "rbc/live_instances");
    const double delivered =
        static_cast<double>(node_counter(registry, node, "rbc/delivered"));
    EXPECT_GT(delivered, 0.0);
    EXPECT_LT(live, delivered / 2) << "node" << node;

    // Frame sizes never approached the cap (ROADMAP 1 memory ceiling).
    const double largest =
        node_gauge(registry, node, "rbc/largest_broadcast_bytes");
    EXPECT_LT(largest, static_cast<double>(rbc::kMaxPayloadBytes) / 4)
        << "node" << node;

    // No broadcast was ever dropped for size: compaction keeps every
    // frame under the cap without the loud-drop path firing.
    EXPECT_EQ(node_counter(registry, node, "gwts/broadcast_rejected"),
              0u)
        << "node" << node;
  }
}

// ---------------------------------------------------------------------------
// Laggard catch-up from snapshot + proof.
// ---------------------------------------------------------------------------

TEST(CheckpointLaggard, GwtsCatchesUpFromSnapshot) {
  testutil::BatchRsmScenarioOptions opt;
  opt.n = 4;
  opt.f = 1;
  opt.seed = 21;
  opt.engine = core::EngineKind::kGwts;
  // All four replicas are correct: the crash below *is* the f=1 fault
  // (pinning the Byzantine slot to a non-replica id leaves no silent
  // slot, so the three live replicas still form a quorum).
  opt.byz_ids = {net::NodeId{4}};
  opt.clients = 2;
  opt.commands_per_client = 256;
  opt.batch_size = 8;  // 64 batches
  opt.max_rounds = 400;
  opt.checkpoint_interval = 8;
  opt.registry = std::make_shared<obs::Registry>();
  // Replica 0 sleeps from t=10 until after the workload has decided and
  // its peers have checkpointed past its horizon.
  opt.fault_plan.seed = 7;
  opt.fault_plan.crashes.push_back({net::NodeId{0}, 10.0, 400.0});
  opt.recovery.enabled = true;
  opt.retry.enabled = true;
  opt.retry.deadline = 24.0;
  opt.retry.tick = 6.0;
  opt.retry.max_attempts = 10;

  testutil::BatchRsmScenario scenario(std::move(opt));
  scenario.run_until_done(300'000'000);
  scenario.run(300'000'000);

  ASSERT_TRUE(scenario.all_clients_done());
  const auto& replicas = scenario.correct_replicas();
  const rsm::RsmReplica* laggard = replicas[0];
  const rsm::RsmReplica* peer = replicas[1];

  // Peers checkpointed while the laggard slept.
  const checkpoint::CheckpointManager* peer_ck = peer->engine().checkpoints();
  ASSERT_NE(peer_ck, nullptr);
  ASSERT_GE(peer_ck->checkpoints_taken(), 1u);

  // The laggard recovered via the snapshot path: it adopted at least one
  // peer snapshot (vouched root, elements re-deriving it) rather
  // than replaying the full per-round history its peers already expired.
  const checkpoint::CheckpointManager* lag_ck =
      laggard->engine().checkpoints();
  ASSERT_NE(lag_ck, nullptr);
  EXPECT_GE(lag_ck->snapshots_adopted(), 1u);

  // And it is actually caught up: every element of the peer's latest
  // committed snapshot is decided on the laggard.
  const core::ValueSet& decided = laggard->engine().decided_set();
  for (const core::Value& v : *peer_ck->latest().elements) {
    EXPECT_TRUE(decided.contains(v));
  }
}

TEST(CheckpointLaggard, GsbsCatchesUpFromSnapshot) {
  testutil::BatchRsmScenarioOptions opt;
  opt.n = 4;
  opt.f = 1;
  opt.seed = 33;
  opt.engine = core::EngineKind::kGsbs;
  // All four replicas are correct: the crash below *is* the f=1 fault
  // (pinning the Byzantine slot to a non-replica id leaves no silent
  // slot, so the three live replicas still form a quorum).
  opt.byz_ids = {net::NodeId{4}};
  opt.clients = 2;
  // 64 batches: enough rounds for the peers' checkpoints to prune the
  // certificates of the laggard's rounds, so certificate-by-certificate
  // catch-up cannot cover the gap (with 32 batches it does).
  opt.commands_per_client = 256;
  opt.batch_size = 8;
  opt.max_rounds = 80;
  opt.checkpoint_interval = 8;
  opt.registry = std::make_shared<obs::Registry>();
  opt.fault_plan.seed = 7;
  opt.fault_plan.crashes.push_back({net::NodeId{0}, 10.0, 400.0});
  opt.recovery.enabled = true;
  opt.retry.enabled = true;
  opt.retry.deadline = 24.0;
  opt.retry.tick = 6.0;
  opt.retry.max_attempts = 10;

  testutil::BatchRsmScenario scenario(std::move(opt));
  scenario.run_until_done(300'000'000);
  scenario.run(300'000'000);

  ASSERT_TRUE(scenario.all_clients_done());
  const auto& replicas = scenario.correct_replicas();
  const rsm::RsmReplica* laggard = replicas[0];
  const rsm::RsmReplica* peer = replicas[1];

  const checkpoint::CheckpointManager* peer_ck = peer->engine().checkpoints();
  ASSERT_NE(peer_ck, nullptr);
  ASSERT_GE(peer_ck->checkpoints_taken(), 1u);

  // GSbS advertises its root on ack-req/nack frames (transport-only —
  // signed encodings are untouched); the laggard vouches, pulls, and
  // merges the committed snapshot into its decided set.
  const checkpoint::CheckpointManager* lag_ck =
      laggard->engine().checkpoints();
  ASSERT_NE(lag_ck, nullptr);
  EXPECT_GE(lag_ck->snapshots_adopted(), 1u);
  const core::ValueSet& decided = laggard->engine().decided_set();
  for (const core::Value& v : *peer_ck->latest().elements) {
    EXPECT_TRUE(decided.contains(v));
  }
}

// ---------------------------------------------------------------------------
// ROADMAP 1b regression: over-cap broadcast compacts to checkpoint and
// retries (test-only scaled-down cap).
// ---------------------------------------------------------------------------

TEST(CheckpointCompactRetry, OverCapAckCompactsAndRetries) {
  constexpr std::size_t kN = 4;
  constexpr std::size_t kF = 1;
  constexpr std::size_t kRounds = 24;
  const auto registry = std::make_shared<obs::Registry>();

  net::SimNetwork::Config cfg;
  cfg.seed = 5;
  net::SimNetwork net{std::move(cfg)};

  // Each process streams one ~300-byte value per decision (fed from the
  // decide callback, like live clients would), so the cumulative
  // full-value proposal crosses the 4096-byte cap within a few rounds
  // while each round's own batch stays tiny.
  struct Feeder {
    core::GwtsProcess* proc = nullptr;
    std::uint32_t id = 0;
    std::uint64_t fed = 0;
    void feed() {
      wire::Encoder enc;
      enc.str("ckpt-compact-retry-");
      enc.u32(id);
      enc.u64(fed++);
      const std::vector<std::uint8_t> pad(
          256, static_cast<std::uint8_t>(id));
      enc.raw(wire::BytesView(pad.data(), pad.size()));
      proc->submit(enc.take());
    }
  };
  std::vector<core::GwtsProcess*> procs;
  std::vector<std::shared_ptr<Feeder>> feeders;
  for (net::NodeId id = 0; id < kN; ++id) {
    core::EngineConfig gc;
    gc.self = id;
    gc.n = kN;
    gc.f = kF;
    gc.max_rounds = kRounds;
    // Full-frame dissemination + a tiny cap: the cumulative proposal
    // outgrows one frame within a few rounds, which is exactly the
    // regression — pre-checkpoint GWTS counted the drop and wedged.
    gc.digest_refs = false;
    // Enabled but with an interval the run never reaches: the *only* way
    // a frame stays under the cap is the force-checkpoint-and-retry path
    // this test pins down (a small interval would compact proactively
    // and the over-cap branch would never fire).
    gc.checkpoint_interval = 100'000;
    gc.registry = registry;
    auto feeder = std::make_shared<Feeder>();
    feeder->id = id;
    auto p = std::make_unique<core::GwtsProcess>(
        gc,
        [feeder](const core::Decision&) {
          if (feeder->fed < kRounds) feeder->feed();
        },
        /*store=*/nullptr, /*max_payload_bytes=*/4096);
    feeder->proc = p.get();
    procs.push_back(p.get());
    feeders.push_back(std::move(feeder));
    net.add_process(std::move(p));
  }
  for (const auto& feeder : feeders) feeder->feed();
  net.run(100'000'000);

  std::uint64_t compact_retries = 0;
  std::uint64_t oversized_attempts = 0;
  for (std::size_t node = 0; node < kN; ++node) {
    compact_retries +=
        node_counter(registry, node, "gwts/compact_retries");
    oversized_attempts +=
        node_counter(registry, node, "rbc/oversized_broadcast");
    // The regression: the RBC cap rejection (counted per attempt by
    // rbc/oversized_broadcast) no longer ends in the engine's loud-drop
    // path — every over-cap frame was compacted and retried instead.
    EXPECT_EQ(node_counter(registry, node, "gwts/broadcast_rejected"), 0u)
        << "node" << node;
  }
  // The cap actually bit (otherwise this test exercises nothing)...
  EXPECT_GT(oversized_attempts, 0u);
  // ...and every bite was answered with a compact-to-checkpoint retry.
  EXPECT_GT(compact_retries, 0u);

  // Progress under the tiny cap: every process decided a non-trivial
  // prefix, and the chains stay comparable (safety held through the
  // compact-retry path).
  std::vector<std::vector<core::Decision>> chains;
  for (core::GwtsProcess* p : procs) {
    EXPECT_GE(p->decisions().size(), 3u);
    EXPECT_GE(p->decided_set().size(), 3u * kN);
    chains.push_back(p->decisions());
  }
  for (const auto& chain : chains) {
    EXPECT_EQ(testutil::check_local_stability(chain), "");
  }
  EXPECT_EQ(testutil::check_gla_comparability(chains), "");
}

/// Byzantine node that at start discloses an empty batch for each round
/// in [filler_from, filler_to] (rounds start on demand, so these keep the
/// honest replicas turning rounds with nothing new), then stays silent
/// until acceptor 0 asks for a round ≥ `trigger`. It then reliably
/// discloses one large value under each of the already finished round
/// tags 2 and 3 and asks node 0 alone to ack, for round 3, the honest
/// values plus both large ones. The ack-req parks until both disclosures
/// deliver at node 0, so it is handled while node 0 is rounds ahead of it.
class LateDiscloser final : public net::IProcess {
public:
  LateDiscloser(std::size_t cap, std::uint64_t trigger,
                core::ValueSet honest, std::vector<core::Value> large,
                std::uint64_t filler_from, std::uint64_t filler_to)
      : cap_(cap), trigger_(trigger), honest_(std::move(honest)),
        large_(std::move(large)), filler_from_(filler_from),
        filler_to_(filler_to) {}

  void on_start(net::IContext& ctx) override {
    rbc::BrachaRbc::Config rc;
    rc.self = ctx.self();
    rc.n = ctx.node_count();
    rc.f = 1;
    rc.max_payload_bytes = cap_;
    // The context lives for one event; the RBC only sends from inside
    // on_message, so it reaches the current one through ctx_.
    rbc_ = std::make_unique<rbc::BrachaRbc>(
        rc,
        [this](net::NodeId to, wire::Bytes p) {
          ctx_->send(to, std::move(p));
        },
        [](net::NodeId, std::uint64_t, wire::Bytes) {});
    ctx_ = &ctx;
    for (std::uint64_t round = filler_from_; round <= filler_to_; ++round) {
      wire::Encoder enc;
      enc.u8(static_cast<std::uint8_t>(core::MsgType::kDisclosure));
      store::encode_value_set_ref(enc, core::ValueSet{}, nullptr,
                                  /*refs=*/false);
      enc.u64(round);
      ASSERT_TRUE(rbc_->broadcast(round, enc.view()));
    }
  }

  void on_message(net::IContext& ctx, net::NodeId from,
                  wire::BytesView payload) override {
    constexpr auto kAckReq = static_cast<std::uint8_t>(core::MsgType::kAckReq);
    if (sent_ || from != 0 || payload.size() < 9 || payload[0] != kAckReq) {
      return;
    }
    // An ack-req ends with its round.
    wire::Decoder tail(payload.subspan(payload.size() - 8));
    if (tail.u64() < trigger_) return;
    sent_ = true;
    ctx_ = &ctx;
    core::ValueSet asked = honest_;
    for (std::size_t i = 0; i < large_.size(); ++i) {
      const std::uint64_t round = 2 + i;
      wire::Encoder enc;
      enc.u8(static_cast<std::uint8_t>(core::MsgType::kDisclosure));
      store::encode_value_set_ref(enc, core::ValueSet{large_[i]}, nullptr,
                                  /*refs=*/false);
      enc.u64(round);
      ASSERT_TRUE(rbc_->broadcast(round, enc.view()));
      asked.insert(large_[i]);
    }
    wire::Encoder enc;
    enc.u8(kAckReq);
    enc.u8(0);  // no checkpoint root
    store::encode_value_set_ref(enc, asked, nullptr, /*refs=*/false);
    enc.u64(1);  // ts
    enc.u64(2 + large_.size() - 1);
    ctx.send(0, enc.take());
  }

  [[nodiscard]] bool sent() const { return sent_; }

private:
  std::size_t cap_;
  std::uint64_t trigger_;
  core::ValueSet honest_;
  std::vector<core::Value> large_;
  std::uint64_t filler_from_;
  std::uint64_t filler_to_;
  std::unique_ptr<rbc::BrachaRbc> rbc_;
  net::IContext* ctx_ = nullptr;
  bool sent_ = false;
};

TEST(CheckpointCompactRetry, AckStillOverCapAfterCompactIsUnrecorded) {
  // Two large values overflow the ack frame even after a forced
  // checkpoint, which covers only decided values. The over-cap ack is
  // for round 3, asked while node 0 is at round ≥ 5, so the forced
  // checkpoint's compaction (ckpt_round_ = round_) prunes the ack record
  // that the refused retry then un-records. That path must find the
  // record by key, not through a pruned iterator (ASan would flag it).
  // Honest values fill rounds 0-3; the Byzantine node's empty
  // disclosures then carry the replicas through rounds 4 onward.
  constexpr std::size_t kN = 4;
  constexpr std::size_t kF = 1;
  constexpr std::size_t kCap = 4096;
  constexpr std::uint64_t kTrigger = 5;
  constexpr std::uint64_t kValueRounds = 4;
  const auto registry = std::make_shared<obs::Registry>();

  net::SimNetwork net{net::SimNetwork::Config{}};
  core::ValueSet honest;
  std::vector<core::GwtsProcess*> procs;
  for (net::NodeId id = 0; id + kF < kN; ++id) {
    core::EngineConfig gc;
    gc.self = id;
    gc.n = kN;
    gc.f = kF;
    gc.max_rounds = 2 * kTrigger;
    gc.digest_refs = false;
    gc.checkpoint_interval = 100'000;  // only forced checkpoints
    gc.registry = registry;
    const auto value = [id](std::uint64_t round) {
      return lattice::value_from("v" + std::to_string(id) + "." +
                                 std::to_string(round));
    };
    auto holder = std::make_shared<core::GwtsProcess*>(nullptr);
    auto p = std::make_unique<core::GwtsProcess>(
        gc,
        [holder, value](const core::Decision& d) {
          if (d.round + 1 < kValueRounds) (*holder)->submit(value(d.round + 1));
        },
        /*store=*/nullptr, /*max_payload_bytes=*/kCap);
    *holder = p.get();
    p->submit(value(0));
    for (std::uint64_t round = 0; round < kValueRounds; ++round) {
      honest.insert(value(round));
    }
    procs.push_back(p.get());
    net.add_process(std::move(p));
  }
  std::vector<core::Value> large;
  for (const char fill : {'a', 'b'}) {
    large.push_back(core::Value(kCap / 2, static_cast<std::uint8_t>(fill)));
  }
  auto byz = std::make_unique<LateDiscloser>(kCap, kTrigger, honest, large,
                                             kValueRounds, 2 * kTrigger);
  const LateDiscloser* discloser = byz.get();
  net.add_process(std::move(byz));
  net.run(10'000'000);

  ASSERT_TRUE(discloser->sent());
  // Node 0 forced a checkpoint for the over-cap ack and was still
  // refused: the path under test ran.
  EXPECT_GE(node_counter(registry, 0, "checkpoint/forced"), 1u);
  EXPECT_GE(node_counter(registry, 0, "gwts/broadcast_rejected"), 1u);
  EXPECT_EQ(node_counter(registry, 0, "gwts/compact_retries"), 0u);

  std::vector<std::vector<core::Decision>> chains;
  for (core::GwtsProcess* p : procs) {
    EXPECT_GE(p->decisions().size(), 1u);
    chains.push_back(p->decisions());
  }
  EXPECT_EQ(testutil::check_gla_comparability(chains), "");
}

// ---------------------------------------------------------------------------
// Snapshot replies: only the asked peer's reply for a pending root counts.
// A reply from a peer never asked, or for a root that is no longer pending,
// is dropped unparsed; a malformed reply from the asked peer is a reject.
// ---------------------------------------------------------------------------

/// A kCkptSnapshot reply carrying `elems` for `root`, in the frame shape
/// on_pull serves (`hash_count` is always 0 there).
wire::Bytes snapshot_reply(const checkpoint::Digest& root,
                           const std::vector<core::Value>& elems,
                           std::uint64_t hash_count = 0) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(checkpoint::MsgType::kCkptSnapshot));
  enc.raw(std::span(root.data(), root.size()));
  enc.u8(1);  // found
  enc.uvarint(elems.size());
  enc.uvarint(elems.size());
  enc.uvarint(hash_count);
  enc.uvarint(elems.size());
  for (const core::Value& v : elems) lattice::encode_value(enc, v);
  return enc.take();
}

wire::Bytes not_found_reply(const checkpoint::Digest& root) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(checkpoint::MsgType::kCkptSnapshot));
  enc.raw(std::span(root.data(), root.size()));
  enc.u8(0);
  return enc.take();
}

void deliver(checkpoint::CheckpointManager& to, net::NodeId from,
             const wire::Bytes& frame) {
  wire::Decoder dec(frame);
  const std::uint8_t type = dec.u8();
  EXPECT_TRUE(to.handle(from, type, dec));
}

TEST(CheckpointSnapshotReplies, LateDuplicateIsDroppedMalformedIsCounted) {
  const auto registry = std::make_shared<obs::Registry>();
  std::vector<wire::Bytes> to_provider;
  std::vector<wire::Bytes> to_laggard;

  checkpoint::Config provider_cfg;
  provider_cfg.self = 1;
  provider_cfg.n = 4;
  provider_cfg.f = 1;
  provider_cfg.interval = 1;
  provider_cfg.registry = registry;
  checkpoint::CheckpointManager provider(
      provider_cfg,
      [&](net::NodeId, wire::Bytes b) { to_laggard.push_back(std::move(b)); });

  checkpoint::Config laggard_cfg = provider_cfg;
  laggard_cfg.self = 0;
  // Every element is known locally, so a verified snapshot adopts at once.
  laggard_cfg.element_known = [](const core::Value&) { return true; };
  checkpoint::CheckpointManager laggard(
      laggard_cfg,
      [&](net::NodeId, wire::Bytes b) { to_provider.push_back(std::move(b)); });

  const auto rejects = [&] {
    return node_counter(registry, 0, "checkpoint/snapshot_rejects");
  };

  core::ValueSet decided;
  decided.insert(lattice::value_from("a"));
  decided.insert(lattice::value_from("b"));
  ASSERT_TRUE(provider.maybe_checkpoint(decided));
  const checkpoint::Digest first = provider.latest().root;
  laggard.await_root(first, 1, nullptr);
  ASSERT_EQ(to_provider.size(), 1u);  // the pull, to peer 1 only
  deliver(provider, 0, to_provider[0]);
  ASSERT_EQ(to_laggard.size(), 1u);  // the snapshot

  // Peer 3 was never asked: neither its not-found nor its garbage reply
  // rotates the pull (no second pull leaves) or counts as a reject.
  deliver(laggard, 3, not_found_reply(first));
  deliver(laggard, 3,
          snapshot_reply(first, {lattice::value_from("forged")}));
  EXPECT_EQ(to_provider.size(), 1u);
  EXPECT_EQ(rejects(), 0u);
  EXPECT_EQ(laggard.snapshots_adopted(), 0u);

  // ... nor does it stop the asked peer's valid reply from adopting.
  deliver(laggard, 1, to_laggard[0]);
  ASSERT_EQ(laggard.snapshots_adopted(), 1u);

  // The same reply again — a duplicate, or the answer to a re-armed pull
  // arriving after adoption — is dropped unparsed.
  deliver(laggard, 1, to_laggard[0]);
  deliver(laggard, 2, to_laggard[0]);
  EXPECT_EQ(laggard.snapshots_adopted(), 1u);
  EXPECT_EQ(rejects(), 0u);

  // A malformed reply for a root that *is* pending still counts.
  decided.insert(lattice::value_from("c"));
  ASSERT_TRUE(provider.maybe_checkpoint(decided));
  const checkpoint::Digest pending = provider.latest().root;
  laggard.await_root(pending, 1, nullptr);
  wire::Encoder bad;
  bad.u8(static_cast<std::uint8_t>(checkpoint::MsgType::kCkptSnapshot));
  bad.raw(std::span(pending.data(), pending.size()));
  bad.u8(1);       // found
  bad.uvarint(3);  // num_leaves
  bad.uvarint(2);  // proof targets: must equal num_leaves
  bad.uvarint(0);
  deliver(laggard, 1, bad.take());
  EXPECT_EQ(rejects(), 1u);
}

// Every mutation of an honest snapshot reply from the asked peer is
// rejected, counted, not adopted, and rotates the pull to the next peer;
// that peer's honest reply then adopts.
TEST(CheckpointSnapshotReplies, MutatedSnapshotsAreRejectedAndRotate) {
  std::vector<core::Value> honest;
  for (const char* s : {"a1", "b2", "c3", "d4", "e5"}) {
    honest.push_back(lattice::value_from(s));
  }
  checkpoint::Config provider_cfg;
  provider_cfg.self = 1;
  provider_cfg.n = 4;
  provider_cfg.f = 1;
  provider_cfg.interval = 1;
  std::vector<wire::Bytes> served;
  checkpoint::CheckpointManager provider(
      provider_cfg,
      [&](net::NodeId, wire::Bytes b) { served.push_back(std::move(b)); });
  ASSERT_TRUE(provider.maybe_checkpoint(
      core::ValueSet::from_sorted(std::vector<core::Value>(honest))));
  const checkpoint::Digest root = provider.latest().root;
  // The test's frame builder matches what a provider serves.
  wire::Encoder pull;
  pull.u8(static_cast<std::uint8_t>(checkpoint::MsgType::kCkptPull));
  pull.raw(std::span(root.data(), root.size()));
  deliver(provider, 0, pull.take());
  ASSERT_EQ(served, std::vector<wire::Bytes>{snapshot_reply(root, honest)});

  struct Mutation {
    const char* name;
    std::vector<core::Value> elems;
    std::uint64_t hash_count = 0;
  };
  std::vector<Mutation> mutations;
  {
    Mutation m{"flipped element byte", honest};
    m.elems[2].back() ^= 0x01;  // "c3" -> "c2": still canonical
    mutations.push_back(std::move(m));
  }
  {
    Mutation m{"two elements swapped", honest};
    std::swap(m.elems[1], m.elems[2]);
    mutations.push_back(std::move(m));
  }
  {
    Mutation m{"one element dropped", honest};
    m.elems.erase(m.elems.begin() + 2);
    mutations.push_back(std::move(m));
  }
  {
    Mutation m{"one element added", honest};
    m.elems.insert(m.elems.begin() + 3, lattice::value_from("c9"));
    mutations.push_back(std::move(m));
  }
  mutations.push_back(Mutation{"hash count 1", honest, 1});

  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.name);
    const auto registry = std::make_shared<obs::Registry>();
    std::vector<net::NodeId> pulled_from;
    checkpoint::Config cfg = provider_cfg;
    cfg.self = 0;
    cfg.registry = registry;
    cfg.element_known = [](const core::Value&) { return true; };
    checkpoint::CheckpointManager laggard(
        cfg, [&](net::NodeId to, wire::Bytes) { pulled_from.push_back(to); });
    laggard.await_root(root, 1, nullptr);
    ASSERT_EQ(pulled_from, std::vector<net::NodeId>{1});

    deliver(laggard, 1, snapshot_reply(root, m.elems, m.hash_count));
    EXPECT_EQ(node_counter(registry, 0, "checkpoint/snapshot_rejects"), 1u);
    EXPECT_EQ(laggard.snapshots_adopted(), 0u);
    EXPECT_FALSE(laggard.knows_root(root));
    EXPECT_EQ(pulled_from, (std::vector<net::NodeId>{1, 2}));

    deliver(laggard, 2, snapshot_reply(root, honest));
    EXPECT_EQ(laggard.snapshots_adopted(), 1u);
    EXPECT_TRUE(laggard.knows_root(root));
  }
}

}  // namespace
}  // namespace bla
