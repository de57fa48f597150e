// src/batch/ pipeline tests: SignedCommandBatch wire round-trips
// (including truncated and corrupted frames), builder sealing policy,
// batch-aware verification with the digest cache, pipeline backpressure,
// the paced client's sealing and pacing grid, and the batched submission
// path end-to-end through the RSM on both the GWTS and GSbS engines.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "batch/batch.hpp"
#include "batch/builder.hpp"
#include "batch/client.hpp"
#include "batch/proposer.hpp"
#include "batch/verifier.hpp"
#include "net/delay_model.hpp"
#include "obs/registry.hpp"
#include "rsm/command.hpp"
#include "testutil/batch_scenario.hpp"

namespace bla::batch {
namespace {

using testutil::BatchRsmScenario;
using testutil::BatchRsmScenarioOptions;

[[nodiscard]] Value make_command(NodeId client, std::uint64_t seq) {
  rsm::Command cmd;
  cmd.client = client;
  cmd.seq = seq;
  cmd.nop = false;
  cmd.payload = lattice::value_from("payload");
  return rsm::encode_command(cmd);
}

[[nodiscard]] SignedCommandBatch make_batch(
    const crypto::ISignerSet& signers, NodeId proposer,
    std::size_t commands) {
  BatchBuilderConfig cfg;
  cfg.proposer = proposer;
  cfg.max_commands = commands;
  BatchBuilder builder(cfg, signers.signer_for(proposer));
  std::optional<SignedCommandBatch> sealed;
  for (std::size_t i = 0; i < commands; ++i) {
    sealed = builder.add(make_command(proposer, i));
  }
  EXPECT_TRUE(sealed.has_value());
  return *sealed;
}

// ---------------------------------------------------------------------------
// Wire round-trips.
// ---------------------------------------------------------------------------

TEST(BatchWire, RoundTrip) {
  auto signers = crypto::make_hmac_signer_set(6, 7);
  const SignedCommandBatch b = make_batch(*signers, 4, 5);

  wire::Encoder enc;
  encode_signed_batch(enc, b);
  wire::Decoder dec(enc.view());
  const SignedCommandBatch back = decode_signed_batch(dec);
  dec.expect_done();

  EXPECT_EQ(back.proposer, b.proposer);
  EXPECT_EQ(back.seq, b.seq);
  EXPECT_EQ(back.commands, b.commands);
  EXPECT_EQ(back.signature, b.signature);
  EXPECT_EQ(batch_digest(back), batch_digest(b));

  // The batch-as-lattice-value view round-trips too.
  const Value v = batch_value(b);
  EXPECT_TRUE(is_batch_value(v));
  const auto from_value = decode_batch_value(v);
  ASSERT_TRUE(from_value.has_value());
  EXPECT_EQ(from_value->commands, b.commands);
}

TEST(BatchWire, TruncatedFramesRejectWithoutCrashing) {
  auto signers = crypto::make_hmac_signer_set(2, 1);
  const SignedCommandBatch b = make_batch(*signers, 0, 8);
  wire::Encoder enc;
  encode_signed_batch(enc, b);
  const wire::Bytes frame = enc.take();

  // Every strict prefix must throw WireError (truncation) — never crash,
  // never return a batch.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    wire::Decoder dec(wire::BytesView(frame.data(), len));
    EXPECT_THROW(
        {
          SignedCommandBatch out = decode_signed_batch(dec);
          dec.expect_done();  // shorter prefixes may decode; trailing check
          (void)out;
        },
        wire::WireError)
        << "prefix length " << len;
  }
}

TEST(BatchWire, CorruptedFramesNeverVerify) {
  auto signers = crypto::make_hmac_signer_set(2, 1);
  const SignedCommandBatch b = make_batch(*signers, 0, 4);
  wire::Encoder enc;
  encode_signed_batch(enc, b);
  const wire::Bytes frame = enc.take();

  BatchVerifier verifier(signers->signer_for(1));
  std::size_t decoded_ok = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    wire::Bytes corrupt = frame;
    corrupt[i] ^= 0x5A;
    const auto out = decode_batch_value(corrupt);
    if (!out.has_value()) continue;  // structurally rejected: fine
    ++decoded_ok;
    // Structurally valid but tampered: the single batch signature (over
    // the digest, which commits to every byte of the body) must fail.
    EXPECT_FALSE(verifier.verify(*out)) << "byte " << i;
  }
  // Sanity: at least some corruptions survive structural decoding, so
  // the signature check above was actually exercised.
  EXPECT_GT(decoded_ok, 0u);
}

TEST(BatchWire, StructuralRejects) {
  // Not a batch frame at all.
  EXPECT_FALSE(decode_batch_value(lattice::value_from("junk")).has_value());
  EXPECT_FALSE(decode_batch_value(Value{}).has_value());

  // Empty batch.
  {
    wire::Encoder enc;
    enc.u8(kBatchMagic);
    enc.u32(1);
    enc.u64(0);
    enc.uvarint(0);
    enc.bytes({});
    EXPECT_FALSE(decode_batch_value(enc.take()).has_value());
  }
  // Command count over the cap.
  {
    wire::Encoder enc;
    enc.u8(kBatchMagic);
    enc.u32(1);
    enc.u64(0);
    enc.uvarint(kMaxBatchCommands + 1);
    EXPECT_FALSE(decode_batch_value(enc.take()).has_value());
  }
  // Nested batch frames are rejected (expansion is depth one).
  {
    wire::Encoder enc;
    enc.u8(kBatchMagic);
    enc.u32(1);
    enc.u64(0);
    enc.uvarint(1);
    enc.bytes(wire::Bytes{kBatchMagic, 0x00});
    enc.bytes({});
    EXPECT_FALSE(decode_batch_value(enc.take()).has_value());
  }
  // Trailing garbage.
  {
    auto signers = crypto::make_hmac_signer_set(1, 1);
    Value v = batch_value(make_batch(*signers, 0, 1));
    v.push_back(0x00);
    EXPECT_FALSE(decode_batch_value(v).has_value());
  }
}

// ---------------------------------------------------------------------------
// Builder sealing policy.
// ---------------------------------------------------------------------------

TEST(BatchBuilderTest, SealsAtSizeBound) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchBuilderConfig cfg;
  cfg.proposer = 0;
  cfg.max_commands = 4;
  BatchBuilder builder(cfg, signers->signer_for(0));

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_FALSE(
          builder.add(make_command(0, round * 4 + i)).has_value());
    }
    const auto sealed = builder.add(make_command(0, round * 4 + 3));
    ASSERT_TRUE(sealed.has_value());
    EXPECT_EQ(sealed->commands.size(), 4u);
    EXPECT_EQ(sealed->seq, static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(builder.batches_sealed(), 3u);
  EXPECT_EQ(builder.pending_commands(), 0u);
}

TEST(BatchBuilderTest, SealsAtByteBound) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchBuilderConfig cfg;
  cfg.proposer = 0;
  cfg.max_commands = 1000;
  cfg.max_bytes = 100;
  BatchBuilder builder(cfg, signers->signer_for(0));

  const Value cmd = make_command(0, 0);  // ~30 bytes
  ASSERT_LT(cmd.size(), 100u);
  std::optional<SignedCommandBatch> sealed;
  std::size_t added = 0;
  while (!sealed.has_value() && added < 100) {
    sealed = builder.add(cmd);
    ++added;
  }
  ASSERT_TRUE(sealed.has_value());
  std::size_t bytes = 0;
  for (const Value& v : sealed->commands) bytes += v.size();
  EXPECT_LE(bytes, 100u);
  // The command that overflowed the bound stays pending for the next
  // batch instead of being lost.
  EXPECT_EQ(builder.pending_commands(), added - sealed->commands.size());
}

TEST(BatchBuilderTest, DropsUnbatchableCommands) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchBuilder builder({.proposer = 0, .max_commands = 4},
                       signers->signer_for(0));
  EXPECT_FALSE(builder.add(Value{}).has_value());
  EXPECT_FALSE(builder.add(Value{kBatchMagic, 1, 2}).has_value());
  EXPECT_EQ(builder.commands_dropped(), 2u);
  EXPECT_EQ(builder.pending_commands(), 0u);
}

// ---------------------------------------------------------------------------
// Verifier + digest cache.
// ---------------------------------------------------------------------------

TEST(BatchVerifierTest, OneSignatureCheckPerDistinctBatch) {
  auto signers = crypto::make_hmac_signer_set(4, 3);
  BatchVerifier verifier(signers->signer_for(0));
  const SignedCommandBatch b = make_batch(*signers, 2, 8);

  EXPECT_TRUE(verifier.verify(b));
  EXPECT_EQ(verifier.signature_checks(), 1u);
  EXPECT_EQ(verifier.cache_hits(), 0u);

  // Re-presentations (retransmit / refinement echo) hit the cache.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(verifier.verify(b));
  EXPECT_EQ(verifier.signature_checks(), 1u);
  EXPECT_EQ(verifier.cache_hits(), 5u);
}

TEST(BatchVerifierTest, CachedBodyWithMutatedSignatureStillRejected) {
  // The cache key must cover the signature bytes: after a genuine batch
  // seeds the cache, replaying the same body under garbage signatures
  // must miss the cache and fail the real check — otherwise each
  // variant would mint a distinct lattice value from one signature.
  auto signers = crypto::make_hmac_signer_set(4, 3);
  BatchVerifier verifier(signers->signer_for(0));
  const SignedCommandBatch genuine = make_batch(*signers, 2, 4);
  ASSERT_TRUE(verifier.verify(genuine));

  SignedCommandBatch mutated = genuine;
  for (std::uint8_t i = 1; i <= 3; ++i) {
    mutated.signature = genuine.signature;
    mutated.signature[0] ^= i;
    EXPECT_FALSE(verifier.verify(mutated)) << "variant " << int(i);
  }
  EXPECT_EQ(verifier.cache_hits(), 0u);
  EXPECT_EQ(verifier.rejected(), 3u);
  // The genuine signature still hits the cache.
  EXPECT_TRUE(verifier.verify(genuine));
  EXPECT_EQ(verifier.cache_hits(), 1u);
}

TEST(BatchVerifierTest, RejectsForgeries) {
  auto signers = crypto::make_hmac_signer_set(4, 3);
  BatchVerifier verifier(signers->signer_for(0));

  // Claiming another proposer's id: the digest commits to the proposer,
  // so node 3 cannot pass its signature off as node 2's.
  SignedCommandBatch stolen = make_batch(*signers, 3, 4);
  stolen.proposer = 2;
  EXPECT_FALSE(verifier.verify(stolen));

  // Tampered command list under the original signature.
  SignedCommandBatch tampered = make_batch(*signers, 2, 4);
  tampered.commands.push_back(make_command(2, 99));
  EXPECT_FALSE(verifier.verify(tampered));

  // Structural garbage.
  SignedCommandBatch empty;
  empty.proposer = 2;
  EXPECT_FALSE(verifier.verify(empty));
  EXPECT_EQ(verifier.rejected(), 3u);
  EXPECT_EQ(verifier.cache_hits(), 0u);
}

// ---------------------------------------------------------------------------
// Pipeline window / backpressure.
// ---------------------------------------------------------------------------

TEST(BatchProposerTest, WindowBlocksAtKAndFreesOnQuorum) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchProposer pipeline({.max_in_flight = 2, .completion_quorum = 2});

  BatchBuilderConfig cfg;
  cfg.proposer = 0;
  cfg.max_commands = 1;
  BatchBuilder builder(cfg, signers->signer_for(0));
  std::vector<SignedCommandBatch> batches;
  for (std::uint64_t i = 0; i < 3; ++i) {
    batches.push_back(*builder.add(make_command(0, i)));
  }

  pipeline.mark_submitted(batches[0]);
  EXPECT_TRUE(pipeline.can_submit());
  pipeline.mark_submitted(batches[1]);
  EXPECT_FALSE(pipeline.can_submit());  // K = 2 reached

  lattice::ValueSet decided;
  decided.insert(batch_value(batches[0]));
  // One report is below the f+1 quorum: nothing completes.
  EXPECT_TRUE(pipeline.on_decide_report(1, decided).empty());
  EXPECT_FALSE(pipeline.can_submit());
  // Second distinct replica completes batch 0 and frees its slot.
  const auto completed = pipeline.on_decide_report(2, decided);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], batches[0].seq);
  EXPECT_TRUE(pipeline.can_submit());
  // Duplicate reports from the same replica never double-count.
  EXPECT_TRUE(pipeline.on_decide_report(2, decided).empty());
  EXPECT_EQ(pipeline.commands_completed(), 1u);
  EXPECT_EQ(pipeline.max_in_flight_seen(), 2u);
}

// ---------------------------------------------------------------------------
// Paced client: Nagle sealing and the absolute pacing grid.
// ---------------------------------------------------------------------------

struct Seal {
  double time = 0.0;
  std::size_t commands = 0;
};

/// The client's batch seals, in order, from its registry's trace ring.
[[nodiscard]] std::vector<Seal> seals_of(obs::Registry& registry) {
  std::vector<Seal> out;
  for (const obs::TraceEvent& ev : registry.trace().snapshot()) {
    if (ev.kind == obs::EventKind::kBatchSeal) {
      out.push_back({ev.time, static_cast<std::size_t>(ev.b)});
    }
  }
  return out;
}

[[nodiscard]] std::vector<Value> workload(NodeId client, std::size_t count) {
  std::vector<Value> out;
  for (std::size_t k = 0; k < count; ++k) out.push_back(make_command(client, k));
  return out;
}

/// Four GWTS replicas and one paced client (node 4) on the simulator,
/// every link taking `link_delay`. The client's registry is the
/// simulator's, so its trace is in simulated time.
struct PacedCluster {
  std::shared_ptr<obs::Registry> registry = std::make_shared<obs::Registry>();
  net::SimNetwork net;
  BatchClient* client = nullptr;

  PacedCluster(BatchClient::Config cc, std::size_t commands,
               double link_delay)
      : net({.seed = 1,
             .delay = std::make_unique<net::ConstantDelay>(link_delay),
             .registry = registry}) {
    auto signers = crypto::make_hmac_signer_set(5, 1);
    for (net::NodeId id = 0; id < 4; ++id) {
      rsm::ReplicaConfig rc;
      rc.self = id;
      rc.n = 4;
      rc.f = 1;
      rc.max_rounds = 200;
      rc.signer = signers->signer_for(id);
      rc.digest_decide_notifications = true;
      net.add_process(std::make_unique<rsm::RsmReplica>(rc));
    }
    cc.self = 4;
    cc.n = 4;
    cc.f = 1;
    cc.registry = registry;
    auto owned = std::make_unique<BatchClient>(cc, signers->signer_for(4),
                                               workload(4, commands));
    client = owned.get();
    net.add_process(std::move(owned));
  }
};

TEST(PacedClient, BelowCapacitySealsEachTickAtItsDueTime) {
  // A batch commits in a few dozen time units, far inside one 200-unit
  // tick, so the window always has room: each tick's three commands
  // are sealed the moment they fall due, not when B = 16 fills.
  BatchClient::Config cc;
  cc.builder.max_commands = 16;
  cc.max_in_flight = 4;
  cc.pace_interval = 200.0;
  cc.pace_commands = 3;
  PacedCluster rig(cc, 30, 1.0);
  rig.net.run(400'000'000, [&] { return rig.client->done(); });
  ASSERT_TRUE(rig.client->done());

  const std::vector<Seal> seals = seals_of(*rig.registry);
  ASSERT_EQ(seals.size(), 10u);
  for (std::size_t k = 0; k < seals.size(); ++k) {
    EXPECT_EQ(seals[k].commands, 3u) << "tick " << k;
    EXPECT_DOUBLE_EQ(seals[k].time, 200.0 * static_cast<double>(k))
        << "tick " << k;
  }
  // One due→confirm sample per command, each shorter than a tick.
  const auto due = rig.registry->histogram("latency/due_to_confirm").snapshot();
  EXPECT_EQ(due.count, 30u);
  EXPECT_LT(due.max, 200.0);
}

TEST(PacedClient, BacklogBehindAFullWindowDrainsInFullBatches) {
  // K = 1 and 10-unit links: a batch is in flight for many 5-unit ticks,
  // so commands pile up behind it and leave in batches of B = 8 each
  // time the one slot frees.
  BatchClient::Config cc;
  cc.builder.max_commands = 8;
  cc.max_in_flight = 1;
  cc.pace_interval = 5.0;
  cc.pace_commands = 2;
  PacedCluster rig(cc, 42, 10.0);
  rig.net.run(400'000'000, [&] { return rig.client->done(); });
  ASSERT_TRUE(rig.client->done());

  const std::vector<Seal> seals = seals_of(*rig.registry);
  ASSERT_GE(seals.size(), 3u);
  EXPECT_EQ(seals.front().commands, 2u);  // tick 0, empty window
  std::size_t total = seals.front().commands;
  for (std::size_t i = 1; i + 1 < seals.size(); ++i) {
    EXPECT_EQ(seals[i].commands, 8u) << "batch " << i;
    total += seals[i].commands;
  }
  EXPECT_LE(seals.back().commands, 8u);
  EXPECT_EQ(total + seals.back().commands, 42u);
}

/// A runtime for a lone client: sends go nowhere, and the n-th timer
/// armed fires `late(n)` after the delay it asked for.
class LateTimerContext final : public net::IContext {
public:
  explicit LateTimerContext(std::function<double(std::size_t)> late)
      : late_(std::move(late)) {}

  void send(NodeId, wire::Bytes) override {}
  void broadcast(wire::Bytes) override {}
  [[nodiscard]] NodeId self() const override { return 4; }
  [[nodiscard]] std::size_t node_count() const override { return 4; }
  [[nodiscard]] double now() const override { return now_; }
  void schedule(double delay, std::uint64_t token) override {
    timers_.emplace(now_ + delay + late_(armed_++), token);
  }

  /// Fires the earliest timer at its time; false when none is armed.
  bool fire_next(net::IProcess& process) {
    if (timers_.empty()) return false;
    const auto [time, token] = *timers_.begin();
    timers_.erase(timers_.begin());
    now_ = time;
    process.on_timer(*this, token);
    return true;
  }

private:
  std::function<double(std::size_t)> late_;
  std::multimap<double, std::uint64_t> timers_;
  std::size_t armed_ = 0;
  double now_ = 0.0;
};

/// A paced client with no confirmations to wait for: its window outlasts
/// the workload, so only the pacing grid decides when it seals.
[[nodiscard]] std::unique_ptr<BatchClient> lone_paced_client(
    std::shared_ptr<obs::Registry> registry, std::size_t commands) {
  auto signers = crypto::make_hmac_signer_set(5, 1);
  BatchClient::Config cc;
  cc.self = 4;
  cc.n = 4;
  cc.f = 1;
  cc.builder.max_commands = 16;
  cc.max_in_flight = commands;
  cc.registry = std::move(registry);
  cc.pace_interval = 0.05;
  cc.pace_commands = 2;
  return std::make_unique<BatchClient>(cc, signers->signer_for(4),
                                       workload(4, commands));
}

TEST(PacedClient, LateTimersDoNotAccumulateDrift) {
  // Every timer fires 1 ms late. Re-arming relative to the firing would
  // put tick 100 about 100 ms behind the grid; the absolute grid keeps
  // every tick within its own 1 ms.
  auto registry = std::make_shared<obs::Registry>();
  auto client = lone_paced_client(registry, 2 * 101);
  LateTimerContext ctx([](std::size_t) { return 0.001; });
  client->on_start(ctx);  // t0 = 0
  for (int k = 1; k <= 100; ++k) {
    ASSERT_TRUE(ctx.fire_next(*client));
    EXPECT_NEAR(ctx.now(), 0.05 * k, 0.001 + 1e-9) << "tick " << k;
  }
  EXPECT_EQ(seals_of(*registry).size(), 101u);
}

TEST(PacedClient, ALateTickReleasesEverySlotThatCame) {
  // The first pacing tick fires three intervals late, at t0 + 4·interval:
  // the commands of ticks 1-4 have all fallen due by then, and go out
  // together.
  auto registry = std::make_shared<obs::Registry>();
  auto client = lone_paced_client(registry, 40);
  LateTimerContext ctx([](std::size_t n) { return n == 0 ? 0.15 : 0.0; });
  client->on_start(ctx);
  ASSERT_TRUE(ctx.fire_next(*client));
  EXPECT_NEAR(ctx.now(), 0.2, 1e-12);
  const std::vector<Seal> seals = seals_of(*registry);
  ASSERT_EQ(seals.size(), 2u);
  EXPECT_EQ(seals[0].commands, 2u);      // tick 0
  EXPECT_EQ(seals[1].commands, 4u * 2u);  // ticks 1-4
  // The grid holds: the next tick is tick 5, at t0 + 5·interval.
  ASSERT_TRUE(ctx.fire_next(*client));
  EXPECT_NEAR(ctx.now(), 0.25, 1e-12);
  EXPECT_EQ(seals_of(*registry).back().commands, 2u);
}

// ---------------------------------------------------------------------------
// End-to-end through the RSM.
// ---------------------------------------------------------------------------

class BatchedRsmEngines
    : public ::testing::TestWithParam<core::EngineKind> {};

TEST_P(BatchedRsmEngines, WorkloadLandsInEveryCorrectReplica) {
  BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.engine = GetParam();
  options.clients = 2;
  options.commands_per_client = 24;
  options.batch_size = 8;
  options.max_in_flight = 2;
  options.max_rounds = 120;
  BatchRsmScenario scenario(std::move(options));
  scenario.run();  // to quiescence, so every correct replica catches up

  ASSERT_TRUE(scenario.all_clients_done());
  const core::ValueSet expected = scenario.expected_commands();
  EXPECT_EQ(expected.size(), 48u);
  std::uint64_t admitted = 0;
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    // state() expands decided batches back into commands.
    EXPECT_TRUE(expected.leq(replica->state()))
        << "replica missing batched commands";
    admitted += replica->batches_admitted();
    EXPECT_EQ(replica->batches_rejected(), 0u);
  }
  // Each client seals 24/8 = 3 batches and submits each to f+1 replicas.
  EXPECT_GE(admitted, 2u * 3u);
  for (const batch::BatchClient* client : scenario.clients()) {
    // Backpressure: the window never exceeded K.
    EXPECT_LE(client->pipeline().max_in_flight_seen(), 2u);
    EXPECT_EQ(client->pipeline().commands_completed(), 24u);
    // done() promises every *accepted* command decided; nothing may
    // have been silently dropped in this workload.
    EXPECT_EQ(client->commands_dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, BatchedRsmEngines,
                         ::testing::Values(core::EngineKind::kGwts,
                                           core::EngineKind::kGsbs),
                         [](const auto& info) {
                           return info.param == core::EngineKind::kGwts
                                      ? "gwts"
                                      : "gsbs";
                         });

TEST(BatchedRsm, SingleCommandBatchesDegradeToSeedBehaviour) {
  // B = 1 must still work: every command rides its own batch.
  BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.clients = 1;
  options.commands_per_client = 6;
  options.batch_size = 1;
  options.max_in_flight = 3;
  options.max_rounds = 80;
  BatchRsmScenario scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_clients_done());
  EXPECT_EQ(scenario.clients()[0]->builder().batches_sealed(), 6u);
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_TRUE(scenario.expected_commands().leq(replica->state()));
  }
}

TEST(BatchedRsm, OversizedVarintPaddedFrameIsRejected) {
  // Non-minimal LEB128 length prefixes let a frame that *decodes* to a
  // cap-respecting batch (and carries a valid signature over the
  // canonical digest) exceed lattice::kMaxValueBytes on the wire. The
  // replica must reject it before submission: as a lattice value it
  // would poison every disclosure and cumulative ack set it joins.
  auto signers = crypto::make_hmac_signer_set(5, 1);

  SignedCommandBatch b;
  b.proposer = 4;  // the client's node id
  b.seq = 0;
  std::size_t payload_bytes = 0;
  for (std::size_t i = 0; i < kMaxBatchCommands; ++i) {
    rsm::Command cmd;
    cmd.client = 4;
    cmd.seq = i;
    cmd.payload = wire::Bytes(40, 0x42);
    b.commands.push_back(rsm::encode_command(cmd));
    payload_bytes += b.commands.back().size();
  }
  ASSERT_LE(payload_bytes, kMaxBatchBytes);
  b.signature = signers->signer_for(4)->sign(batch_digest(b));

  // Hand-encode the frame with every command length varint padded to
  // 10 bytes, pushing the frame past the value cap.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
  enc.u8(kBatchMagic);
  enc.u32(b.proposer);
  enc.u64(b.seq);
  enc.uvarint(b.commands.size());
  for (const Value& v : b.commands) {
    std::uint64_t len = v.size();
    for (int i = 0; i < 9; ++i) {
      enc.u8(static_cast<std::uint8_t>(len & 0x7F) | 0x80);
      len >>= 7;
    }
    enc.u8(static_cast<std::uint8_t>(len & 0x7F));
    enc.raw(v);
  }
  enc.bytes(b.signature);
  const wire::Bytes frame = enc.take();
  ASSERT_GT(frame.size() - 1, lattice::kMaxValueBytes);
  // Sanity: the padded frame still decodes to the signed batch.
  {
    wire::Decoder dec(wire::BytesView(frame).subspan(1));
    const SignedCommandBatch decoded = decode_signed_batch(dec);
    EXPECT_EQ(decoded.commands, b.commands);
  }

  class PaddedSender final : public net::IProcess {
  public:
    explicit PaddedSender(wire::Bytes frame) : frame_(std::move(frame)) {}
    void on_start(net::IContext& ctx) override {
      for (NodeId r = 0; r < 4; ++r) ctx.send(r, frame_);
    }
    void on_message(net::IContext&, NodeId, wire::BytesView) override {}

  private:
    wire::Bytes frame_;
  };

  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<rsm::RsmReplica*> replicas;
  for (net::NodeId id = 0; id < 4; ++id) {
    rsm::ReplicaConfig rc;
    rc.self = id;
    rc.n = 4;
    rc.f = 1;
    rc.max_rounds = 5;
    rc.signer = signers->signer_for(id);
    auto replica = std::make_unique<rsm::RsmReplica>(rc);
    replicas.push_back(replica.get());
    net.add_process(std::move(replica));
  }
  net.add_process(std::make_unique<PaddedSender>(frame));
  net.run();

  for (const rsm::RsmReplica* replica : replicas) {
    EXPECT_EQ(replica->batches_admitted(), 0u);
    EXPECT_GE(replica->batches_rejected(), 1u);
    EXPECT_TRUE(replica->state().empty());
  }
}

TEST(BatchedRsm, ForgedAndMalformedBatchesAreRejected) {
  // A Byzantine client sprays kRsmNewBatch garbage: raw junk, a
  // well-formed frame with a bad signature, and a frame claiming an
  // honest client's identity. None of it may enter replica state, and an
  // honest batched client must proceed unharmed.
  class EvilBatcher final : public net::IProcess {
  public:
    EvilBatcher(std::size_t n, std::shared_ptr<const crypto::ISigner> signer)
        : n_(n), signer_(std::move(signer)) {}

    void on_start(net::IContext& ctx) override {
      // (a) Raw junk behind the batch message type.
      wire::Encoder junk;
      junk.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
      junk.raw(lattice::value_from("not-a-batch"));
      send_all(ctx, junk.view());

      // (b) Structurally valid batch, forged signature bytes.
      SignedCommandBatch forged;
      forged.proposer = static_cast<NodeId>(ctx.self());
      forged.seq = 0;
      forged.commands.push_back(make_command(999, 0));
      forged.signature = wire::Bytes(32, 0xAB);
      wire::Encoder bad_sig;
      bad_sig.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
      encode_signed_batch(bad_sig, forged);
      send_all(ctx, bad_sig.view());

      // (c) Correctly signed by *us*, but claiming the honest client's
      // node id (n_ + 0). The sender check must drop it.
      SignedCommandBatch stolen;
      stolen.proposer = static_cast<NodeId>(n_);  // honest client's id
      stolen.seq = 7;
      stolen.commands.push_back(make_command(999, 1));
      stolen.signature = signer_->sign(batch_digest(stolen));
      wire::Encoder imp;
      imp.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
      encode_signed_batch(imp, stolen);
      send_all(ctx, imp.view());
    }
    void on_message(net::IContext&, NodeId, wire::BytesView) override {}

  private:
    void send_all(net::IContext& ctx, const wire::Bytes& frame) {
      for (NodeId r = 0; r < n_; ++r) ctx.send(r, frame);
    }
    std::size_t n_;
    std::shared_ptr<const crypto::ISigner> signer_;
  };

  BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.clients = 1;
  options.commands_per_client = 8;
  options.batch_size = 4;
  options.max_rounds = 80;
  BatchRsmScenario scenario(std::move(options));
  // The evil client (node 5) signs with a key outside the replicas' PKI
  // (their signer set covers ids 0..4) — forging must fail regardless.
  auto evil_signer = crypto::make_hmac_signer_set(6, 1)->signer_for(5);
  scenario.network().add_process(
      std::make_unique<EvilBatcher>(4, std::move(evil_signer)));
  scenario.run();

  ASSERT_TRUE(scenario.all_clients_done());
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_GT(replica->batches_rejected(), 0u);
    for (const core::Value& v : replica->state()) {
      const auto cmd = rsm::decode_command(v);
      ASSERT_TRUE(cmd.has_value());
      EXPECT_NE(cmd->client, 999u) << "forged batch command leaked";
    }
    EXPECT_TRUE(scenario.expected_commands().leq(replica->state()));
  }
}

}  // namespace
}  // namespace bla::batch
