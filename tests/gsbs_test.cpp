// GSbS (§8.2 generalized signature-based GLA) tests: the GLA properties
// under silent and equivocating Byzantine behaviour, certificate-driven
// round trust, adoption by lagging proposers, and the linear message
// complexity the signature substitution buys.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/adversary.hpp"
#include "core/gsbs.hpp"
#include "net/delay_model.hpp"
#include "obs/registry.hpp"
#include "testutil/properties.hpp"
#include "testutil/scenario.hpp"

namespace bla::core {
namespace {

/// Signer decorator recording every (signer, message, signature) triple
/// that reaches the real verifier, with its verdict.
class CountingSigner final : public crypto::ISigner {
public:
  using Triple = std::tuple<NodeId, wire::Bytes, wire::Bytes>;

  explicit CountingSigner(std::shared_ptr<const crypto::ISigner> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] NodeId id() const override { return inner_->id(); }
  [[nodiscard]] wire::Bytes sign(wire::BytesView message) const override {
    return inner_->sign(message);
  }
  [[nodiscard]] bool verify(NodeId signer, wire::BytesView message,
                            wire::BytesView signature) const override {
    const bool ok = inner_->verify(signer, message, signature);
    ++calls;
    const Triple triple{signer, wire::Bytes(message.begin(), message.end()),
                        wire::Bytes(signature.begin(), signature.end())};
    if (!verdicts.emplace(triple, ok).second) ++repeats;
    return ok;
  }

  mutable std::uint64_t calls = 0;
  mutable std::uint64_t repeats = 0;  // triples verified more than once
  mutable std::map<Triple, bool> verdicts;

private:
  std::shared_ptr<const crypto::ISigner> inner_;
};

struct GsbsFixture {
  std::shared_ptr<crypto::ISignerSet> signers;
  net::SimNetwork net;
  std::vector<GsbsProcess*> correct;
  std::vector<std::shared_ptr<const CountingSigner>> counters;  // per correct
  std::vector<std::vector<Value>> submitted;

  GsbsFixture(std::size_t n, std::size_t f, std::uint64_t rounds,
              std::uint64_t seed,
              testutil::AdversaryFactory adversary = nullptr,
              std::unique_ptr<net::IDelayModel> delay = nullptr,
              std::uint64_t settle = 2,
              std::shared_ptr<obs::Registry> registry = nullptr)
      : signers(crypto::make_hmac_signer_set(n, seed)),
        net({.seed = seed, .delay = std::move(delay)}) {
    for (net::NodeId id = 0; id < n; ++id) {
      if (id >= n - f) {
        if (adversary) {
          auto p = adversary(id);
          net.add_process(p ? std::move(p)
                            : std::make_unique<SilentProcess>());
        } else {
          net.add_process(std::make_unique<SilentProcess>());
        }
        continue;
      }
      std::vector<Value> mine;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        wire::Encoder enc;
        enc.str("gs");
        enc.u32(id);
        enc.u64(r);
        mine.push_back(enc.take());
      }
      submitted.push_back(mine);

      struct Feed {
        GsbsProcess* proc = nullptr;
        std::vector<Value> values;
        std::size_t next = 1;
      };
      auto feed = std::make_shared<Feed>();
      feed->values = mine;
      EngineConfig config{id, n, f, rounds + settle};
      config.registry = registry;
      auto counter = std::make_shared<CountingSigner>(signers->signer_for(id));
      counters.push_back(counter);
      auto proc = std::make_unique<GsbsProcess>(
          std::move(config), counter,
          [feed](const GsbsProcess::Decision&) {
            if (feed->next < feed->values.size()) {
              feed->proc->submit(feed->values[feed->next++]);
            }
          });
      feed->proc = proc.get();
      proc->submit(mine[0]);
      correct.push_back(proc.get());
      net.add_process(std::move(proc));
    }
  }

  ValueSet correct_inputs() const {
    ValueSet out;
    for (const auto& values : submitted) {
      for (const Value& v : values) out.insert(v);
    }
    return out;
  }
};

/// What `signer` signs for `batch` in `round`: the engine's own signing
/// bytes over the batch's content key (an empty store computes every
/// element digest).
wire::Bytes batch_signing_bytes(NodeId signer, std::uint64_t round,
                                const ValueSet& batch) {
  const store::BodyStore store;
  return core::batch_signing_bytes(SignedBatch{signer, round, batch, {}},
                                   content_key(batch.elements(), store));
}

/// An inline kGsbsInit frame carrying `batch` under `signature`.
wire::Bytes init_frame(NodeId signer, std::uint64_t round,
                       const ValueSet& batch, const wire::Bytes& signature) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsInit));
  enc.u32(signer);
  enc.u64(round);
  lattice::encode_value_set(enc, batch);
  enc.bytes(signature);
  return enc.take();
}

void check_gla_properties(GsbsFixture& fx, std::size_t f,
                          std::uint64_t rounds, std::uint64_t byz_budget) {
  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    const GsbsProcess* proc = fx.correct[i];
    ASSERT_GE(proc->decisions().size(), rounds) << "process " << i;
  }
  // Local stability + cross-process comparability.
  std::vector<ValueSet> all;
  for (const GsbsProcess* proc : fx.correct) {
    const auto& decisions = proc->decisions();
    for (std::size_t k = 1; k < decisions.size(); ++k) {
      EXPECT_TRUE(decisions[k - 1].set.leq(decisions[k].set));
    }
    for (const auto& d : decisions) all.push_back(d.set);
  }
  EXPECT_EQ(testutil::check_comparability(all), "");
  // Inclusivity: every submitted value decided by its submitter.
  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    for (const Value& v : fx.submitted[i]) {
      EXPECT_TRUE(fx.correct[i]->decided_set().contains(v))
          << "process " << i << " missing own value";
    }
  }
  // Non-triviality.
  for (const GsbsProcess* proc : fx.correct) {
    EXPECT_EQ(testutil::check_non_triviality(proc->decided_set(),
                                             fx.correct_inputs(), byz_budget),
              "");
  }
  (void)f;
}

struct Params {
  std::size_t n;
  std::size_t f;
  std::uint64_t rounds;
  std::uint64_t seed;
};

class GsbsSweep : public ::testing::TestWithParam<Params> {};

TEST_P(GsbsSweep, SilentByzantine) {
  const auto& p = GetParam();
  GsbsFixture fx(p.n, p.f, p.rounds, p.seed);
  fx.net.run();
  check_gla_properties(fx, p.f, p.rounds, p.f * (p.rounds + 2));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GsbsSweep,
    ::testing::Values(Params{4, 1, 2, 1}, Params{4, 1, 3, 2},
                      Params{7, 2, 2, 1}, Params{7, 2, 3, 5}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "f" +
             std::to_string(param_info.param.f) + "r" +
             std::to_string(param_info.param.rounds) + "s" +
             std::to_string(param_info.param.seed);
    });

TEST(Gsbs, DoubleSigningBatchesIsNeutralized) {
  // A Byzantine proposer signs two different batches for the same round
  // and sends each to half the system; the conflict-listing safe-acks
  // must prevent both from entering any decision.
  auto signers = crypto::make_hmac_signer_set(4, 1);

  class BatchEquivocator final : public net::IProcess {
  public:
    BatchEquivocator(std::size_t n,
                     std::shared_ptr<const crypto::ISigner> signer)
        : n_(n), signer_(std::move(signer)) {}

    void on_start(net::IContext& ctx) override {
      auto make_init = [&](const char* text) {
        ValueSet batch;
        batch.insert(lattice::value_from(text));
        return init_frame(
            ctx.self(), 0, batch,
            signer_->sign(batch_signing_bytes(ctx.self(), 0, batch)));
      };
      const wire::Bytes init_a = make_init("equiv-A");
      const wire::Bytes init_b = make_init("equiv-B");
      for (net::NodeId to = 0; to < n_; ++to) {
        ctx.send(to, to < n_ / 2 ? init_a : init_b);
      }
    }
    void on_message(net::IContext&, NodeId, wire::BytesView) override {}

  private:
    std::size_t n_;
    std::shared_ptr<const crypto::ISigner> signer_;
  };

  const auto registry = std::make_shared<obs::Registry>();
  GsbsFixture fx(
      4, 1, 2, 1,
      [&](net::NodeId id) {
        return std::make_unique<BatchEquivocator>(4, signers->signer_for(id));
      },
      // Correct links are a little slower, so the forged INITs land
      // first and make every round-0 safety snapshot.
      std::make_unique<net::TargetedDelay>(
          std::make_unique<net::ConstantDelay>(1.0),
          [](net::NodeId from, net::NodeId) { return from != 3; }, 0.5),
      2, registry);
  // The fixture creates its own signer set with the same seed, so the
  // equivocator's signatures verify.
  fx.net.run();
  // Both forged batches passed their signature checks, so what kept them
  // out is the conflict path: some acceptor saw both and signed the pair
  // into its safe-acks.
  std::uint64_t conflicts = 0;
  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    for (const auto& [triple, ok] : fx.counters[i]->verdicts) {
      EXPECT_TRUE(ok) << "node" << i << " rejected a signature";
    }
    conflicts += registry->counter("node" + std::to_string(i) +
                                   "/gsbs/conflicts_listed")
                     .value();
  }
  EXPECT_GT(conflicts, 0u);
  for (const GsbsProcess* proc : fx.correct) {
    ASSERT_GE(proc->decisions().size(), 2u);
    const bool has_a =
        proc->decided_set().contains(lattice::value_from("equiv-A"));
    const bool has_b =
        proc->decided_set().contains(lattice::value_from("equiv-B"));
    EXPECT_FALSE(has_a && has_b);
  }
  std::vector<ValueSet> all;
  for (const GsbsProcess* proc : fx.correct) {
    for (const auto& d : proc->decisions()) all.push_back(d.set);
  }
  EXPECT_EQ(testutil::check_comparability(all), "");
}

TEST(Gsbs, CertificatesAdvanceTrust) {
  GsbsFixture fx(4, 1, 3, 1);
  fx.net.run();
  for (const GsbsProcess* proc : fx.correct) {
    ASSERT_GE(proc->decisions().size(), 3u);
    // Every finished round produced a certificate this process verified.
    EXPECT_GE(proc->trusted_round(), 3u);
  }
}

TEST(Gsbs, LaggardAdoptsViaPiggybackedCert) {
  // One proposer's links are slowed; it must still complete all rounds by
  // adopting certificates (it cannot gather quorums first).
  GsbsFixture fx(4, 1, 3, 2, nullptr,
                 std::make_unique<net::TargetedDelay>(
                     std::make_unique<net::ConstantDelay>(1.0),
                     [](net::NodeId from, net::NodeId to) {
                       return from == 1 || to == 1;
                     },
                     20.0));
  fx.net.run();
  check_gla_properties(fx, 1, 3, 1 * 5);
}

TEST(Gsbs, GarbageSpamIsHarmless) {
  GsbsFixture fx(4, 1, 2, 3, [](net::NodeId id) {
    return std::make_unique<GarbageSpammer>(id * 11 + 1, 256);
  });
  fx.net.run();
  check_gla_properties(fx, 1, 2, 4);
}

TEST(Gsbs, MessageComplexityLinearInN) {
  // The point of §8.2: per-proposer messages per decision grow O(f·n),
  // not O(f·n²) as in GWTS.
  std::vector<double> per_process;
  for (const std::size_t n : {4u, 8u, 16u}) {
    GsbsFixture fx(n, 1, 2, 1);
    fx.net.run();
    for (const GsbsProcess* proc : fx.correct) {
      ASSERT_GE(proc->decisions().size(), 2u);
    }
    per_process.push_back(
        static_cast<double>(fx.net.metrics(0).messages_sent));
  }
  for (std::size_t i = 1; i < per_process.size(); ++i) {
    EXPECT_LT(per_process[i], per_process[i - 1] * 3.0)
        << "superlinear growth at step " << i;
  }
}

TEST(Gsbs, RunsOnRealEd25519) {
  // Parity with the HMAC oracle: real signatures, same protocol outcome.
  auto signers = crypto::make_ed25519_signer_set(4, 9);
  net::SimNetwork net({.seed = 9, .delay = nullptr});
  std::vector<GsbsProcess*> correct;
  for (net::NodeId id = 0; id < 3; ++id) {
    auto proc = std::make_unique<GsbsProcess>(EngineConfig{id, 4, 1, 1},
                                              signers->signer_for(id));
    wire::Encoder v;
    v.str("ed");
    v.u32(id);
    proc->submit(v.take());
    correct.push_back(proc.get());
    net.add_process(std::move(proc));
  }
  net.add_process(std::make_unique<SilentProcess>());
  net.run();
  std::vector<ValueSet> all;
  for (const GsbsProcess* proc : correct) {
    ASSERT_GE(proc->decisions().size(), 1u);
    all.push_back(proc->decided_set());
  }
  EXPECT_EQ(testutil::check_comparability(all), "");
}

TEST(Gsbs, AsynchronousDelays) {
  GsbsFixture fx(4, 1, 2, 11, nullptr,
                 std::make_unique<net::ExponentialDelay>(1.0));
  fx.net.run();
  check_gla_properties(fx, 1, 2, 4);
}

/// A Byzantine replica's cheapest way at an acceptor's buffer of
/// untrusted-round ack-reqs: `count` empty proposals for round 2^62, sent
/// at t = 0 to each of `targets`. The round is never trusted, so only the
/// buffer's own bound limits what they hold.
class AckReqFlooder final : public net::IProcess {
public:
  AckReqFlooder(std::vector<net::NodeId> targets, int count)
      : targets_(std::move(targets)), count_(count) {}

  void on_start(net::IContext& ctx) override {
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsAckReq));
    enc.u8(0);                        // no checkpoint-root advertisement
    enc.u64(1);                       // ts
    enc.u64(std::uint64_t{1} << 62);  // round
    enc.uvarint(0);                   // empty proposal
    const wire::Bytes frame = enc.take();
    for (int i = 0; i < count_; ++i) {
      for (const net::NodeId to : targets_) ctx.send(to, frame);
    }
  }
  void on_message(net::IContext&, NodeId, wire::BytesView) override {}

private:
  std::vector<net::NodeId> targets_;
  int count_;
};

TEST(Gsbs, FarFutureAckReqFloodLeavesEveryValueDecided) {
  // More untrusted-round ack-reqs than one buffer for all senders held
  // (4 096) reach every correct replica at t = 0; recovery is off, so a
  // request the buffer refused would never be re-sent.
  constexpr std::uint64_t kRounds = 6;
  GsbsFixture fx(
      4, 1, kRounds, 5,
      [](net::NodeId) {
        return std::make_unique<AckReqFlooder>(
            std::vector<net::NodeId>{0, 1, 2}, 4200);
      },
      std::make_unique<net::ExponentialDelay>(1.0));
  fx.net.run();
  check_gla_properties(fx, 1, kRounds, kRounds + 2);
}

/// A Byzantine signer's cheapest way at the per-round conflict indices:
/// a validly signed INIT, and a safe-req carrying it, for each of 10 000
/// future rounds and for 100 rounds from 2^62, sent at t = 0 to every
/// correct replica.
class FutureRoundSigner final : public net::IProcess {
public:
  explicit FutureRoundSigner(std::shared_ptr<const crypto::ISigner> signer)
      : signer_(std::move(signer)) {}

  void on_start(net::IContext& ctx) override {
    std::vector<std::uint64_t> rounds;
    for (std::uint64_t r = 1; r <= 10'000; ++r) rounds.push_back(r);
    for (std::uint64_t k = 0; k < 100; ++k) {
      rounds.push_back((std::uint64_t{1} << 62) + k);
    }
    for (const std::uint64_t round : rounds) {
      ValueSet batch;
      batch.insert(lattice::value_from("future-" + std::to_string(round)));
      const wire::Bytes signature =
          signer_->sign(batch_signing_bytes(ctx.self(), round, batch));
      const wire::Bytes init = init_frame(ctx.self(), round, batch, signature);
      wire::Encoder req;
      req.u8(static_cast<std::uint8_t>(MsgType::kGsbsSafeReq));
      req.u64(round);
      req.uvarint(1);
      req.raw(wire::BytesView(init).subspan(1));  // the signed batch
      const wire::Bytes safe_req = req.take();
      for (net::NodeId to = 0; to < 3; ++to) {
        ctx.send(to, init);
        ctx.send(to, safe_req);
      }
    }
  }
  void on_message(net::IContext&, NodeId, wire::BytesView) override {}

private:
  std::shared_ptr<const crypto::ISigner> signer_;
};

TEST(Gsbs, FutureRoundFloodLeavesConflictIndicesBounded) {
  constexpr std::uint64_t kRounds = 6;
  auto signers = crypto::make_hmac_signer_set(4, 5);
  GsbsFixture fx(4, 1, kRounds, 5, [&](net::NodeId id) {
    return std::make_unique<FutureRoundSigner>(signers->signer_for(id));
  });
  fx.net.run();
  // The fixture's signer set has the same seed, so the flood verifies;
  // only the cap bounds what it holds: per index, the signer's capped
  // future rounds plus the rounds the run itself indexed.
  for (const GsbsProcess* proc : fx.correct) {
    EXPECT_LE(proc->indexed_rounds(),
              2 * (GsbsProcess::kMaxFutureRoundsPerSigner + kRounds + 2));
  }
  // A flood round the run reached may carry the signer's batch into a
  // decision: one value per round, within the budget below.
  check_gla_properties(fx, 1, kRounds, kRounds + 2);
}

TEST(Gsbs, HonestAckReqParkedBehindAFloodIsStillAnswered) {
  // With n - f correct replicas in lock-step, an honest ack-req for a
  // round its acceptor does not trust yet needs a schedule that delivers
  // it before every certificate ending the previous round. Record real
  // frames from a clean run, then replay exactly that schedule to a fresh
  // acceptor whose buffer a flood reached first.
  class Recorder final : public net::IProcess {
  public:
    void on_start(net::IContext&) override {}
    void on_message(net::IContext&, NodeId from,
                    wire::BytesView payload) override {
      frames.emplace_back(from, wire::Bytes(payload.begin(), payload.end()));
    }
    std::vector<std::pair<NodeId, wire::Bytes>> frames;
  };
  Recorder* recorder = nullptr;
  GsbsFixture clean(4, 1, 2, 1, [&](net::NodeId) {
    auto r = std::make_unique<Recorder>();
    recorder = r.get();
    return r;
  });
  clean.net.run();

  // Node 1's round-1 ack-req ([type][ad flag 0][ts][round]...) and a
  // certificate ending round 0 ([type][round]...).
  auto round_at = [](const wire::Bytes& frame, std::size_t offset) {
    wire::Decoder dec(wire::BytesView(frame).subspan(offset));
    return dec.u64();
  };
  std::optional<wire::Bytes> ack_req;
  std::optional<wire::Bytes> cert;
  for (const auto& [from, frame] : recorder->frames) {
    const auto type = static_cast<MsgType>(frame[0]);
    if (from == 1 && type == MsgType::kGsbsAckReq && frame[1] == 0 &&
        round_at(frame, 10) == 1 && !ack_req) {
      ack_req = frame;
    }
    if (type == MsgType::kGsbsDecided && round_at(frame, 1) == 0 && !cert) {
      cert = frame;
    }
  }
  ASSERT_TRUE(ack_req && cert);

  // Node 1 replays its request at t = 5, after the flood (t = 1), and the
  // certificate at t = 10, when the acceptor may trust round 1.
  class Replayer final : public net::IProcess {
  public:
    Replayer(wire::Bytes ack_req, wire::Bytes cert)
        : ack_req_(std::move(ack_req)), cert_(std::move(cert)) {}
    void on_start(net::IContext& ctx) override {
      ctx.schedule(4.0, 0);
      ctx.schedule(9.0, 1);
    }
    void on_timer(net::IContext& ctx, std::uint64_t token) override {
      ctx.send(0, token == 0 ? ack_req_ : cert_);
    }
    void on_message(net::IContext&, NodeId from,
                    wire::BytesView payload) override {
      const auto type = static_cast<MsgType>(payload[0]);
      if (from == 0 &&
          (type == MsgType::kGsbsAck || type == MsgType::kGsbsNack)) {
        answered = true;
      }
    }
    bool answered = false;

  private:
    wire::Bytes ack_req_;
    wire::Bytes cert_;
  };
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  net.add_process(std::make_unique<GsbsProcess>(EngineConfig{0, 4, 1, 4},
                                                clean.signers->signer_for(0)));
  auto replayer = std::make_unique<Replayer>(*ack_req, *cert);
  const Replayer* node1 = replayer.get();
  net.add_process(std::move(replayer));
  net.add_process(std::make_unique<SilentProcess>());
  net.add_process(
      std::make_unique<AckReqFlooder>(std::vector<net::NodeId>{0}, 4200));
  net.run();
  EXPECT_TRUE(node1->answered);
}

// ---------------------------------------------------------------------------
// Verify-once: the cumulative proposal re-presents every batch and proof
// on each ack-req, nack and certificate; the body store's memo must answer
// all but the first sighting of each signature, and change nothing else.
// ---------------------------------------------------------------------------

TEST(GsbsVerifyOnce, NoTripleReachesTheVerifierTwice) {
  const auto registry = std::make_shared<obs::Registry>();
  GsbsFixture fx(4, 1, 4, 1, nullptr, nullptr, 2, registry);
  fx.net.run();
  check_gla_properties(fx, 1, 4, 1 * 6);

  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    const CountingSigner& counter = *fx.counters[i];
    EXPECT_GT(counter.calls, 0u) << "node" << i;
    EXPECT_EQ(counter.repeats, 0u) << "node" << i;
    const std::string p = "node" + std::to_string(i) + "/gsbs/";
    // sig_checks counts real verifications only; the memo's answers
    // show up as sig_cache_hits.
    EXPECT_EQ(registry->counter(p + "sig_checks").value(), counter.calls);
    EXPECT_GT(registry->counter(p + "sig_cache_hits").value(),
              counter.calls)
        << "node" << i;
    // Hash-then-sign changes what is signed, not which checks run. Five
    // rounds run, nine real checks each: four carry values, and the last
    // one follows the last growth and carries nothing.
    EXPECT_EQ(registry->counter(p + "sig_checks").value(), 45u)
        << "node" << i;
    EXPECT_EQ(registry->counter(p + "sig_cache_hits").value(), 585u)
        << "node" << i;
  }

  // A memo of a pure predicate's `true` results cannot change a decision:
  // decided chains and traffic equal those of the run without the memo.
  std::vector<std::vector<std::size_t>> chains;
  for (const GsbsProcess* proc : fx.correct) {
    EXPECT_EQ(proc->decided_set(), fx.correct_inputs());
    std::vector<std::size_t> chain;
    for (const auto& d : proc->decisions()) chain.push_back(d.set.size());
    chains.push_back(chain);
  }
  const std::vector<std::vector<std::size_t>> expected_chains = {
      {3, 6, 9, 12}, {3, 6, 9, 12}, {3, 6, 9, 12}};
  EXPECT_EQ(chains, expected_chains);
  EXPECT_EQ(fx.net.total_messages(), 330u);  // 66 per round
  EXPECT_EQ(fx.net.total_bytes(), 857760u);
}

TEST(GsbsVerifyOnce, MutatedReplayOfCachedBatchIsVerifiedAndRejected) {
  // Node 3 first broadcasts a genuinely signed INIT, which every correct
  // replica verifies and memoises; a round trip later it replays that
  // batch with one body byte flipped and, separately, one signature byte
  // flipped. Neither may ride the memo: both must reach the real
  // verifier and fail there.
  constexpr NodeId kByz = 3;
  auto signers = crypto::make_hmac_signer_set(4, 1);
  ValueSet genuine;
  genuine.insert(lattice::value_from("cached-batch"));
  Value flipped_value = lattice::value_from("cached-batch");
  flipped_value.back() ^= 0x01;
  ValueSet flipped;
  flipped.insert(flipped_value);
  const wire::Bytes genuine_msg = batch_signing_bytes(kByz, 0, genuine);
  const wire::Bytes flipped_msg = batch_signing_bytes(kByz, 0, flipped);
  const wire::Bytes sig = signers->signer_for(kByz)->sign(genuine_msg);
  wire::Bytes bad_sig = sig;
  bad_sig[0] ^= 0x01;

  class CachedBatchReplayer final : public net::IProcess {
  public:
    CachedBatchReplayer(wire::Bytes first, std::vector<wire::Bytes> replays)
        : first_(std::move(first)), replays_(std::move(replays)) {}
    void on_start(net::IContext& ctx) override { ctx.broadcast(first_); }
    void on_message(net::IContext& ctx, NodeId, wire::BytesView) override {
      // First traffic arrives with the genuine INIT already delivered.
      if (replayed_) return;
      replayed_ = true;
      for (const wire::Bytes& frame : replays_) ctx.broadcast(frame);
    }

  private:
    wire::Bytes first_;
    std::vector<wire::Bytes> replays_;
    bool replayed_ = false;
  };

  GsbsFixture fx(4, 1, 2, 1, [&](NodeId id) {
    return std::make_unique<CachedBatchReplayer>(
        init_frame(id, 0, genuine, sig),
        std::vector<wire::Bytes>{init_frame(id, 0, flipped, sig),
                                 init_frame(id, 0, genuine, bad_sig)});
  });
  fx.net.run();
  check_gla_properties(fx, 1, 2, 4);

  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    const auto& verdicts = fx.counters[i]->verdicts;
    const auto verdict = [&](const wire::Bytes& msg,
                             const wire::Bytes& signature) {
      const auto it = verdicts.find({kByz, msg, signature});
      return it == verdicts.end() ? std::optional<bool>{} : it->second;
    };
    EXPECT_EQ(verdict(genuine_msg, sig), std::optional<bool>(true))
        << "node" << i;
    EXPECT_EQ(verdict(flipped_msg, sig), std::optional<bool>(false))
        << "node" << i;
    EXPECT_EQ(verdict(genuine_msg, bad_sig), std::optional<bool>(false))
        << "node" << i;
    EXPECT_EQ(fx.counters[i]->repeats, 0u) << "node" << i;
    EXPECT_FALSE(fx.correct[i]->decided_set().contains(flipped_value));
  }
}

/// Node 3's part in the two tests below: keeps the first frame of type
/// `keep` it receives and, on the first frame of type `trigger` (the same
/// frame when the types agree), broadcasts the kept frame once after
/// `mutate` changed it.
class MutatingReplayer final : public net::IProcess {
public:
  MutatingReplayer(MsgType keep, MsgType trigger,
                   std::function<void(wire::Bytes&)> mutate)
      : keep_(keep), trigger_(trigger), mutate_(std::move(mutate)) {}
  void on_start(net::IContext&) override {}
  void on_message(net::IContext& ctx, NodeId,
                  wire::BytesView frame) override {
    if (done_ || frame.empty()) return;
    const auto type = static_cast<MsgType>(frame[0]);
    if (type == keep_ && kept_.empty()) {
      kept_.assign(frame.begin(), frame.end());
    }
    if (type != trigger_ || kept_.empty()) return;
    done_ = true;
    mutate_(kept_);
    ctx.broadcast(kept_);
  }

private:
  MsgType keep_;
  MsgType trigger_;
  std::function<void(wire::Bytes&)> mutate_;
  wire::Bytes kept_;
  bool done_ = false;
};

/// Signature checks of correct nodes' messages that reached node `i`'s
/// real verifier and failed.
std::size_t rejected_correct_signatures(const GsbsFixture& fx, std::size_t i) {
  std::size_t rejected = 0;
  for (const auto& [triple, ok] : fx.counters[i]->verdicts) {
    if (!ok && std::get<0>(triple) < fx.correct.size()) ++rejected;
  }
  return rejected;
}

TEST(GsbsVerifyOnce, FlippedProofBodyInReshownBatchIsVerifiedAndRejected) {
  // Node 3 keeps the first ack-req it sees. Once a certificate shows that
  // round ended — a quorum verified and memoised that proposal — it
  // re-shows the proposal with one byte flipped in the last value body
  // of the frame, which sits in a proof safe-ack's received batches. The
  // proven batches' own signatures hit the memo; the proof safe-ack's
  // signing bytes now hold another content key, so its check must miss
  // the memo, reach the real verifier and fail there.
  Value flipped_value;
  GsbsFixture fx(4, 1, 2, 1, [&](NodeId) {
    return std::make_unique<MutatingReplayer>(
        MsgType::kGsbsAckReq, MsgType::kGsbsDecided, [&](wire::Bytes& frame) {
          // Submitted values are str("gs") ‖ u32 id ‖ u64 round, inline.
          const wire::Bytes tag{2, 'g', 's'};
          const auto it = std::find_end(frame.begin(), frame.end(),
                                        tag.begin(), tag.end());
          ASSERT_NE(it, frame.end());
          it[14] ^= 0x01;
          flipped_value.assign(it, it + 15);
        });
  });
  fx.net.run();
  check_gla_properties(fx, 1, 2, 4);
  ASSERT_FALSE(flipped_value.empty());
  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    EXPECT_EQ(rejected_correct_signatures(fx, i), 1u) << "node" << i;
    EXPECT_EQ(fx.counters[i]->repeats, 0u) << "node" << i;
    EXPECT_FALSE(fx.correct[i]->decided_set().contains(flipped_value));
  }
}

TEST(GsbsVerifyOnce, CertReplayWithFlippedAckSignatureIsVerifiedAndRejected) {
  // Node 3 re-broadcasts the first certificate it sees with the last
  // byte of its last ack signature flipped. Links into node 2 from the
  // correct nodes are slow, so the replay reaches node 2 long before the
  // genuine certificate: node 2 holds no certificate for that round and
  // must verify this one. The flipped ack must reach its real verifier
  // and fail; the genuine certificate, arriving later under another
  // replay key, is verified on its own merits.
  constexpr std::size_t kLaggard = 2;
  GsbsFixture fx(
      4, 1, 2, 1,
      [](NodeId) {
        return std::make_unique<MutatingReplayer>(
            MsgType::kGsbsDecided, MsgType::kGsbsDecided,
            [](wire::Bytes& frame) { frame.back() ^= 0x01; });
      },
      std::make_unique<net::TargetedDelay>(
          std::make_unique<net::ConstantDelay>(1.0),
          [](net::NodeId from, net::NodeId to) {
            return to == kLaggard && from != 3;
          },
          20.0));
  fx.net.run();
  check_gla_properties(fx, 1, 2, 4);
  EXPECT_EQ(rejected_correct_signatures(fx, kLaggard), 1u);
  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    EXPECT_EQ(fx.counters[i]->repeats, 0u) << "node" << i;
  }
}

}  // namespace
}  // namespace bla::core
