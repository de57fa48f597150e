// Body store + pull protocol (src/store/): ref codec round-trips,
// fetch-on-miss under reordered delivery (ECHO before SEND), rotation
// past garbage providers, single-flight dedupe, the content index behind
// digest(), and the shared verify-once memo.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <thread>

#include "batch/batch.hpp"
#include "batch/verifier.hpp"
#include "checkpoint/checkpoint.hpp"
#include "crypto/signer.hpp"
#include "net/delay_model.hpp"
#include "net/sim_network.hpp"
#include "rbc/bracha.hpp"
#include "store/fetch.hpp"
#include "store/ref.hpp"
#include "testutil/batch_scenario.hpp"

namespace bla::store {
namespace {

using net::IContext;
using net::IProcess;
using net::NodeId;

lattice::Value big_value(std::uint8_t fill, std::size_t size = 4096) {
  return lattice::Value(size, fill);
}

// ---------------------------------------------------------------------------
// Ref codec.
// ---------------------------------------------------------------------------

TEST(RefCodec, SmallValuesStayInline) {
  auto store = std::make_shared<BodyStore>();
  const lattice::Value v = lattice::value_from("tiny");
  wire::Encoder enc;
  encode_value_ref(enc, v, store.get(), /*refs=*/true);
  // Inline spelling: length prefix + the bytes themselves, no magic.
  wire::Decoder dec(enc.view());
  RefResolver resolver(store.get());
  EXPECT_EQ(resolver.value(dec), v);
  EXPECT_TRUE(resolver.complete());
  EXPECT_EQ(enc.size(), 1 + v.size());  // 1-byte varint + payload
}

TEST(RefCodec, LargeValuesBecomeRefsAndResolve) {
  auto store = std::make_shared<BodyStore>();
  const lattice::Value v = big_value(0x42);
  wire::Encoder enc;
  encode_value_ref(enc, v, store.get(), /*refs=*/true);
  // Ref spelling: 1-byte length + magic + 32-byte digest.
  EXPECT_EQ(enc.size(), 1u + 1 + crypto::Sha256::kDigestSize);
  EXPECT_TRUE(store->contains(body_digest(v)));

  wire::Decoder dec(enc.view());
  RefResolver resolver(store.get());
  EXPECT_EQ(resolver.value(dec), v);
  EXPECT_TRUE(resolver.complete());
}

TEST(RefCodec, MissingRefIsCollectedNotThrown) {
  auto sender_store = std::make_shared<BodyStore>();
  auto receiver_store = std::make_shared<BodyStore>();
  const lattice::Value v = big_value(0x17);
  wire::Encoder enc;
  encode_value_ref(enc, v, sender_store.get(), true);

  wire::Decoder dec(enc.view());
  RefResolver resolver(receiver_store.get());
  (void)resolver.value(dec);
  ASSERT_FALSE(resolver.complete());
  ASSERT_EQ(resolver.missing().size(), 1u);
  EXPECT_EQ(resolver.missing()[0], body_digest(v));
}

TEST(RefCodec, MagicPrefixedValuesRoundTripViaEscape) {
  auto store = std::make_shared<BodyStore>();
  for (const std::uint8_t magic : {kRefMagic, kEscapeMagic}) {
    lattice::Value v{magic, 1, 2, 3};
    wire::Encoder enc;
    encode_value_ref(enc, v, store.get(), true);
    wire::Decoder dec(enc.view());
    RefResolver resolver(store.get());
    EXPECT_EQ(resolver.value(dec), v);
    EXPECT_TRUE(resolver.complete());
  }
}

TEST(RefCodec, LargeInlineValuesAreAbsorbedIntoStore) {
  auto store = std::make_shared<BodyStore>();
  const lattice::Value v = big_value(0x55);
  wire::Encoder enc;
  encode_value_ref(enc, v, nullptr, /*refs=*/false);  // plain inline
  wire::Decoder dec(enc.view());
  RefResolver resolver(store.get());
  EXPECT_EQ(resolver.value(dec), v);
  EXPECT_TRUE(store->contains(body_digest(v)));
}

TEST(RefCodec, SetRoundTripMixed) {
  auto store = std::make_shared<BodyStore>();
  lattice::ValueSet s;
  s.insert(lattice::value_from("a"));
  s.insert(big_value(0x01));
  s.insert(big_value(0x02));
  wire::Encoder enc;
  encode_value_set_ref(enc, s, store.get(), true);
  wire::Decoder dec(enc.view());
  RefResolver resolver(store.get());
  EXPECT_EQ(resolver.value_set(dec), s);
  EXPECT_TRUE(resolver.complete());
}

// ---------------------------------------------------------------------------
// Single-flight dedupe (unit level: no network).
// ---------------------------------------------------------------------------

TEST(BodyFetcher, SingleFlightDedupesConcurrentAwaits) {
  auto store = std::make_shared<BodyStore>();
  std::vector<std::pair<NodeId, wire::Bytes>> sent;
  BodyFetcher fetcher({.self = 0, .n = 4}, store,
                      [&](NodeId to, wire::Bytes b) {
                        sent.emplace_back(to, std::move(b));
                      });
  const Digest d = body_digest(big_value(0x77));
  int fired = 0;
  fetcher.await({d}, {1}, [&] { ++fired; });
  fetcher.await({d}, {2}, [&] { ++fired; });
  fetcher.await({d}, {3}, [&] { ++fired; });
  // One outstanding kFetchBody despite three waiters.
  EXPECT_EQ(sent.size(), 1u);
  EXPECT_EQ(fetcher.stats().fetches_sent, 1u);
  EXPECT_EQ(fetcher.stats().dedup_hits, 2u);
  EXPECT_EQ(fired, 0);

  // A found reply from the asked peer releases every waiter at once.
  const lattice::Value body = big_value(0x77);
  wire::Encoder reply;
  reply.u8(static_cast<std::uint8_t>(MsgType::kBodyReply));
  reply.uvarint(1);
  reply.raw(std::span(d.data(), d.size()));
  reply.u8(1);
  reply.bytes(body);
  wire::Decoder dec(reply.view());
  const std::uint8_t type = dec.u8();
  EXPECT_TRUE(fetcher.handle(sent[0].first, type, dec));
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(store->contains(d));
  EXPECT_EQ(fetcher.stats().bodies_fetched, 1u);
}

TEST(BodyFetcher, UnsolicitedRepliesAreIgnored) {
  auto store = std::make_shared<BodyStore>();
  BodyFetcher fetcher({.self = 0, .n = 4}, store,
                      [&](NodeId, wire::Bytes) {});
  const lattice::Value body = big_value(0x31);
  const Digest d = body_digest(body);
  wire::Encoder reply;
  reply.u8(static_cast<std::uint8_t>(MsgType::kBodyReply));
  reply.uvarint(1);
  reply.raw(std::span(d.data(), d.size()));
  reply.u8(1);
  reply.bytes(body);
  wire::Decoder dec(reply.view());
  const std::uint8_t type = dec.u8();
  EXPECT_TRUE(fetcher.handle(2, type, dec));
  // Never asked for it: a peer cannot stuff our store.
  EXPECT_FALSE(store->contains(d));
}

// ---------------------------------------------------------------------------
// Network-level processes for the pull-protocol scenarios.
// ---------------------------------------------------------------------------

/// RBC participant recording deliveries and exposing stats.
class RbcNode : public IProcess {
public:
  RbcNode(NodeId self, std::size_t n, std::size_t f,
          std::optional<wire::Bytes> to_broadcast = std::nullopt)
      : to_broadcast_(std::move(to_broadcast)),
        rbc_(
            rbc::BrachaRbc::Config{self, n, f},
            [this](NodeId to, wire::Bytes b) { ctx_->send(to, std::move(b)); },
            [this](NodeId origin, std::uint64_t tag, wire::Bytes payload) {
              deliveries_[{origin, tag}] = std::move(payload);
            }) {}

  void on_start(IContext& ctx) override {
    ctx_ = &ctx;
    if (to_broadcast_) rbc_.broadcast(0, *to_broadcast_);
    ctx_ = nullptr;
  }

  void on_message(IContext& ctx, NodeId from, wire::BytesView bytes) override {
    ctx_ = &ctx;
    try {
      wire::Decoder dec(bytes);
      const std::uint8_t type = dec.u8();
      rbc_.handle(from, type, dec);
    } catch (const wire::WireError&) {
    }
    ctx_ = nullptr;
  }

  std::map<std::pair<NodeId, std::uint64_t>, wire::Bytes> deliveries_;
  [[nodiscard]] const rbc::BrachaRbc::Stats& rbc_stats() const {
    return rbc_.stats();
  }
  [[nodiscard]] const BodyFetcher::Stats& fetch_stats() const {
    return rbc_.fetcher().stats();
  }

private:
  std::optional<wire::Bytes> to_broadcast_;
  rbc::BrachaRbc rbc_;
  IContext* ctx_ = nullptr;
};

TEST(PullProtocol, RbcDeliversViaFetchWhenSendIsReordered) {
  // Links 0 -> 3 are massively delayed: the victim (3) collects the
  // ECHO/READY digest quorum long before the SEND body arrives, so its
  // delivery must come through a pull from an echoing peer.
  constexpr std::size_t n = 4, f = 1;
  constexpr NodeId victim = 3;
  net::SimNetwork net(
      {.seed = 7,
       .delay = std::make_unique<net::TargetedDelay>(
           std::make_unique<net::ConstantDelay>(1.0),
           [](NodeId from, NodeId to) { return from == 0 && to == victim; },
           /*penalty=*/100.0)});
  const wire::Bytes payload = big_value(0x66, 2048);
  std::vector<RbcNode*> nodes;
  for (NodeId id = 0; id < n; ++id) {
    auto node = std::make_unique<RbcNode>(
        id, n, f, id == 0 ? std::optional(payload) : std::nullopt);
    nodes.push_back(node.get());
    net.add_process(std::move(node));
  }
  net.run();

  for (const RbcNode* node : nodes) {
    ASSERT_TRUE(node->deliveries_.contains({0, 0}));
    EXPECT_EQ(node->deliveries_.at({0, 0}), payload);
  }
  // The victim's delivery was body-blocked and resolved by a pull from
  // the digest's echoing peers. At most f+1 requests go out (the
  // silent-peer fan-out), and the body lands exactly once.
  EXPECT_GE(nodes[victim]->rbc_stats().deliveries_pending_fetch, 1u);
  EXPECT_GE(nodes[victim]->fetch_stats().fetches_sent, 1u);
  EXPECT_LE(nodes[victim]->fetch_stats().fetches_sent, f + 1);
  EXPECT_EQ(nodes[victim]->fetch_stats().bodies_fetched, 1u);
  // Everyone else had the body by quorum time: no fetches.
  for (NodeId id = 0; id < victim; ++id) {
    EXPECT_EQ(nodes[id]->fetch_stats().fetches_sent, 0u);
  }
}

/// Serves kFetchBody with a body that does NOT hash to the digest.
class GarbageProvider : public IProcess {
public:
  void on_start(IContext&) override {}
  void on_message(IContext& ctx, NodeId from, wire::BytesView bytes) override {
    try {
      wire::Decoder dec(bytes);
      if (dec.u8() != static_cast<std::uint8_t>(MsgType::kFetchBody)) return;
      const std::uint64_t count = dec.uvarint();
      for (std::uint64_t i = 0; i < count; ++i) {
        const wire::BytesView d = dec.raw(crypto::Sha256::kDigestSize);
        wire::Encoder reply;
        reply.u8(static_cast<std::uint8_t>(MsgType::kBodyReply));
        reply.uvarint(1);
        reply.raw(d);
        reply.u8(1);
        reply.bytes(lattice::value_from("not the body you wanted"));
        ctx.send(from, reply.take());
        ++served_;
      }
    } catch (const wire::WireError&) {
    }
  }
  int served_ = 0;
};

/// Honest provider: holds the body, answers fetches through its own
/// fetcher endpoint (the same code path every replica serves pulls with).
class HonestProvider : public IProcess {
public:
  explicit HonestProvider(const wire::Bytes& body)
      : store_(std::make_shared<BodyStore>()),
        fetcher_({.self = 0, .n = 0}, store_,
                 [this](NodeId to, wire::Bytes b) {
                   ctx_->send(to, std::move(b));
                 }) {
    store_->put(body);
  }
  void on_start(IContext&) override {}
  void on_message(IContext& ctx, NodeId from, wire::BytesView bytes) override {
    ctx_ = &ctx;
    try {
      wire::Decoder dec(bytes);
      const std::uint8_t type = dec.u8();
      fetcher_.handle(from, type, dec);
    } catch (const wire::WireError&) {
    }
    ctx_ = nullptr;
  }

private:
  std::shared_ptr<BodyStore> store_;
  IContext* ctx_ = nullptr;
  BodyFetcher fetcher_;
};

/// Requester: awaits one digest on start, hinted first at the garbage
/// provider so the rotation path is exercised.
class Requester : public IProcess {
public:
  Requester(Digest digest, std::vector<NodeId> hints, std::size_t n,
            std::size_t fanout = 1)
      : digest_(digest),
        hints_(std::move(hints)),
        n_(n),
        store_(std::make_shared<BodyStore>()),
        fetcher_({.self = 0, .n = n_, .fanout = fanout}, store_,
                 [this](NodeId to, wire::Bytes b) {
                   ctx_->send(to, std::move(b));
                 }) {}

  void on_start(IContext& ctx) override {
    ctx_ = &ctx;
    fetcher_.await({digest_}, hints_, [this] { resolved_ = true; });
    ctx_ = nullptr;
  }
  void on_message(IContext& ctx, NodeId from, wire::BytesView bytes) override {
    ctx_ = &ctx;
    try {
      wire::Decoder dec(bytes);
      const std::uint8_t type = dec.u8();
      fetcher_.handle(from, type, dec);
    } catch (const wire::WireError&) {
    }
    ctx_ = nullptr;
  }

  bool resolved_ = false;
  [[nodiscard]] const BodyFetcher::Stats& stats() const {
    return fetcher_.stats();
  }
  [[nodiscard]] const BodyStore& store() const { return *store_; }

private:
  Digest digest_;
  std::vector<NodeId> hints_;
  std::size_t n_;
  std::shared_ptr<BodyStore> store_;
  IContext* ctx_ = nullptr;
  BodyFetcher fetcher_;
};

TEST(PullProtocol, RotatesPastGarbageProvider) {
  // Node 1 answers the first fetch with a body that fails the digest
  // re-hash; the fetcher must reject it and rotate to node 2, which
  // serves the real body.
  const wire::Bytes body = big_value(0x99);
  const Digest d = body_digest(body);
  net::SimNetwork net({.seed = 3, .delay = nullptr});
  auto requester = std::make_unique<Requester>(
      d, std::vector<NodeId>{1, 2}, /*n=*/3);
  Requester* req = requester.get();
  net.add_process(std::move(requester));
  auto garbage = std::make_unique<GarbageProvider>();
  GarbageProvider* gp = garbage.get();
  net.add_process(std::move(garbage));
  net.add_process(std::make_unique<HonestProvider>(body));
  net.run();

  EXPECT_TRUE(req->resolved_);
  EXPECT_TRUE(req->store().contains(d));
  EXPECT_EQ(gp->served_, 1);
  EXPECT_EQ(req->stats().garbage_replies, 1u);
  EXPECT_GE(req->stats().rotations, 1u);
  EXPECT_EQ(req->stats().bodies_fetched, 1u);
  EXPECT_EQ(req->stats().fetches_sent, 2u);  // garbage peer, then honest
}

TEST(PullProtocol, FanoutSurvivesSilentProvider) {
  // No timers exist in the runtime, so a single outstanding request to a
  // peer that never replies would wedge forever. With fanout f+1 = 2 the
  // second request lands at the honest provider concurrently.
  const wire::Bytes body = big_value(0x5A);
  const Digest d = body_digest(body);

  class Silent : public IProcess {
    void on_start(IContext&) override {}
    void on_message(IContext&, NodeId, wire::BytesView) override {}
  };

  net::SimNetwork net({.seed = 4, .delay = nullptr});
  auto requester = std::make_unique<Requester>(
      d, std::vector<NodeId>{1, 2}, /*n=*/3, /*fanout=*/2);
  Requester* req = requester.get();
  net.add_process(std::move(requester));
  net.add_process(std::make_unique<Silent>());  // hinted first; never replies
  net.add_process(std::make_unique<HonestProvider>(body));
  net.run();

  EXPECT_TRUE(req->resolved_);
  EXPECT_TRUE(req->store().contains(d));
  EXPECT_EQ(req->stats().fetches_sent, 2u);
  EXPECT_EQ(req->stats().bodies_fetched, 1u);
}

TEST(PullProtocol, ExhaustsWhenNobodyHasTheBody) {
  // Every provider answers not-found: the rotation must terminate (the
  // simulator drains) instead of ping-ponging forever.
  const Digest d = body_digest(big_value(0xAB));
  net::SimNetwork net({.seed = 5, .delay = nullptr});
  auto requester = std::make_unique<Requester>(
      d, std::vector<NodeId>{1, 2}, /*n=*/3);
  Requester* req = requester.get();
  net.add_process(std::move(requester));
  net.add_process(std::make_unique<HonestProvider>(big_value(0xCD)));
  net.add_process(std::make_unique<HonestProvider>(big_value(0xEF)));
  net.run();

  EXPECT_FALSE(req->resolved_);
  EXPECT_EQ(req->stats().exhausted, 1u);
  EXPECT_EQ(req->stats().not_found_replies, 2u);
  EXPECT_EQ(req->stats().fetches_sent, 2u);
}

// ---------------------------------------------------------------------------
// Bracha reject-reason stats (ISSUE 5 satellite: the silent-stall mode —
// frames dropped for exceeding kMaxPayloadBytes — becomes assertable).
// ---------------------------------------------------------------------------

TEST(BrachaStats, CountsOversizedMalformedAndBadOrigin) {
  rbc::BrachaRbc node({.self = 0, .n = 4, .f = 1},
                      [](NodeId, wire::Bytes) {},
                      [](NodeId, std::uint64_t, wire::Bytes) {});

  {  // SEND over the payload cap: dropped + counted.
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(rbc::MsgType::kSend));
    enc.u64(0);
    enc.bytes(wire::Bytes(rbc::kMaxPayloadBytes + 1, 0x00));
    wire::Decoder dec(enc.view());
    const std::uint8_t type = dec.u8();
    EXPECT_TRUE(node.handle(1, type, dec));
    EXPECT_EQ(node.stats().oversized_payload, 1u);
  }
  {  // Truncated ECHO: malformed.
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(rbc::MsgType::kEcho));
    enc.u8(0x01);
    wire::Decoder dec(enc.view());
    const std::uint8_t type = dec.u8();
    EXPECT_TRUE(node.handle(1, type, dec));
    EXPECT_EQ(node.stats().malformed, 1u);
  }
  {  // ECHO for a fabricated origin ≥ n.
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(rbc::MsgType::kEcho));
    enc.u32(99);
    enc.u64(0);
    crypto::Sha256::Digest d{};
    enc.raw(std::span(d.data(), d.size()));
    wire::Decoder dec(enc.view());
    const std::uint8_t type = dec.u8();
    EXPECT_TRUE(node.handle(1, type, dec));
    EXPECT_EQ(node.stats().bad_origin, 1u);
  }
  {  // Duplicate ECHO from the same peer.
    for (int i = 0; i < 2; ++i) {
      wire::Encoder enc;
      enc.u8(static_cast<std::uint8_t>(rbc::MsgType::kEcho));
      enc.u32(1);
      enc.u64(7);
      crypto::Sha256::Digest d{};
      enc.raw(std::span(d.data(), d.size()));
      wire::Decoder dec(enc.view());
      const std::uint8_t type = dec.u8();
      EXPECT_TRUE(node.handle(2, type, dec));
    }
    EXPECT_EQ(node.stats().duplicate_vote, 1u);
  }
}

// ---------------------------------------------------------------------------
// Content index: each held body is hashed once, digest() answers after.
// ---------------------------------------------------------------------------

TEST(BodyStoreDigest, MatchesBodyDigestHeldEvictedAndUnknown) {
  auto store = std::make_shared<BodyStore>();
  checkpoint::CheckpointManager ckpt(
      {.self = 0, .n = 4, .f = 1, .interval = 2, .store = store},
      [](NodeId, wire::Bytes) {});
  const lattice::Value held = big_value(0x01);
  const lattice::Value evicted = big_value(0x02);
  const lattice::Value evicted_too = big_value(0x03, 100);
  const lattice::Value unknown = big_value(0x04);
  for (const auto* v : {&held, &evicted, &evicted_too}) {
    EXPECT_EQ(store->put(*v), body_digest(*v));
  }
  EXPECT_EQ(store->digest(held), body_digest(held));

  // A checkpoint over two of them evicts their bodies; digest() then
  // answers from the snapshot's leaves and get() re-serves the bytes.
  lattice::ValueSet decided;
  decided.insert(evicted);
  decided.insert(evicted_too);
  ASSERT_TRUE(ckpt.maybe_checkpoint(decided));
  EXPECT_EQ(ckpt.bodies_evicted(), 2u);
  EXPECT_EQ(store->body_count(), 1u);
  for (const auto* v : {&evicted, &evicted_too}) {
    EXPECT_EQ(store->digest(*v), body_digest(*v));
    const auto body = store->get(body_digest(*v));
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(*body, *v);
  }
  EXPECT_EQ(store->digest(held), body_digest(held));

  // Unknown bytes are hashed, and not taken in.
  EXPECT_EQ(store->digest(unknown), body_digest(unknown));
  EXPECT_FALSE(store->contains(body_digest(unknown)));
  EXPECT_EQ(store->body_count(), 1u);
}

TEST(BodyStoreDigest, PutEraseCyclesKeepIndexConsistent) {
  BodyStore store;
  std::vector<lattice::Value> values;
  for (std::uint8_t i = 0; i < 8; ++i) values.push_back(big_value(i, 64 + i));
  values.push_back({});  // the empty body is a body too
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i % 2 == 0) {
        EXPECT_EQ(store.put(values[i]), body_digest(values[i]));
      } else {
        store.put_trusted(body_digest(values[i]), values[i]);
      }
    }
    EXPECT_EQ(store.body_count(), values.size());
    // Re-putting a held body is a lookup; the count does not move.
    EXPECT_EQ(store.put(values[1]), body_digest(values[1]));
    EXPECT_EQ(store.body_count(), values.size());
    for (std::size_t i = cycle % 2; i < values.size(); i += 2) {
      EXPECT_TRUE(store.erase(body_digest(values[i])));
      EXPECT_FALSE(store.erase(body_digest(values[i])));
    }
    for (const lattice::Value& v : values) {
      EXPECT_EQ(store.digest(v), body_digest(v));
      const auto body = store.get(body_digest(v));
      if (body != nullptr) {
        EXPECT_EQ(*body, v);
      }
    }
    for (const lattice::Value& v : values) store.erase(body_digest(v));
    EXPECT_EQ(store.body_count(), 0u);
    EXPECT_EQ(store.total_bytes(), 0u);
  }
}

TEST(BodyStoreDigest, ConcurrentPutDigestGetErase) {
  auto store = std::make_shared<BodyStore>();
  std::vector<lattice::Value> values;
  std::vector<Digest> digests;
  for (std::uint8_t i = 0; i < 16; ++i) {
    values.push_back(big_value(i, 256));
    digests.push_back(body_digest(values.back()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 500; ++round) {
        const std::size_t i = (round * 5 + t * 3) % values.size();
        if (store->put(values[i]) != digests[i]) ++mismatches;
        if (store->digest(values[i]) != digests[i]) ++mismatches;
        const auto body = store->get(digests[i]);
        if (body != nullptr && *body != values[i]) ++mismatches;
        if ((round + t) % 3 == 0) store->erase(digests[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(store->digest(values[i]), digests[i]);
  }
}

// ---------------------------------------------------------------------------
// Verified-digest cache merged into the shared store.
// ---------------------------------------------------------------------------

TEST(VerifiedCacheMerge, OneSignatureCheckAcrossStoreSharers) {
  auto signers = crypto::make_hmac_signer_set(2, 42);
  auto store = std::make_shared<BodyStore>();

  batch::SignedCommandBatch b;
  b.proposer = 1;
  b.seq = 0;
  b.commands.push_back(lattice::value_from("cmd"));
  b.signature = signers->signer_for(1)->sign(batch::batch_digest(b));

  batch::BatchVerifier first(signers->signer_for(0), store);
  EXPECT_TRUE(first.verify(b));
  EXPECT_EQ(first.signature_checks(), 1u);

  // A different verifier over the same store: pure cache hit — the body
  // is never signature-checked twice per replica.
  batch::BatchVerifier second(signers->signer_for(0), store);
  EXPECT_TRUE(second.verify(b));
  EXPECT_EQ(second.signature_checks(), 0u);
  EXPECT_EQ(second.cache_hits(), 1u);

  // Mutated signature: misses the cache and fails the real check.
  batch::SignedCommandBatch forged = b;
  forged.signature[0] ^= 0xFF;
  EXPECT_FALSE(second.verify(forged));
}

// ---------------------------------------------------------------------------
// End-to-end: digest dissemination under heavy reordering. Value-level
// references can arrive before the bodies they name (acks overtaking
// disclosures), forcing the engines' park-and-replay path.
// ---------------------------------------------------------------------------

class PullSweep : public ::testing::TestWithParam<core::EngineKind> {};

TEST_P(PullSweep, BatchedRsmLivesUnderReorderingDelays) {
  for (const std::uint64_t seed : {1ull, 9ull, 23ull}) {
    testutil::BatchRsmScenarioOptions options;
    options.n = 4;
    options.f = 1;
    options.seed = seed;
    options.engine = GetParam();
    options.clients = 1;
    options.commands_per_client = 48;
    options.batch_size = 16;
    options.max_rounds = 120;
    options.delay = std::make_unique<net::UniformDelay>(0.5, 4.0);
    testutil::BatchRsmScenario scenario(std::move(options));
    scenario.run_until_done();
    ASSERT_TRUE(scenario.all_clients_done()) << "seed " << seed;
    scenario.run();  // drain residual rounds
    const core::ValueSet expected = scenario.expected_commands();
    for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
      EXPECT_TRUE(expected.leq(replica->state())) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, PullSweep,
                         ::testing::Values(core::EngineKind::kGwts,
                                           core::EngineKind::kGsbs),
                         [](const auto& info) {
                           return info.param == core::EngineKind::kGwts
                                      ? "Gwts"
                                      : "Gsbs";
                         });

}  // namespace
}  // namespace bla::store
