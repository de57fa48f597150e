// Observability layer (src/obs/): metric primitives, trace ring,
// lifecycle tracking, and the stall watchdog — unit-level (bucket
// boundaries, quantile math, ring wraparound), concurrency-level
// (counters shared by socket event loops), and end-to-end (one registry
// shared across a full batched-RSM simulation records the per-stage
// command latency pipeline in causal order).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "rbc/bracha.hpp"
#include "testutil/batch_scenario.hpp"
#include "testutil/socket_scenario.hpp"

namespace bla::obs {
namespace {

// --------------------------------------------------------------------
// Histogram buckets and quantile math.
// --------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  using detail::bucket_index;
  using detail::HistogramCell;
  constexpr double kBase = HistogramCell::kBase;

  // Bucket 0 holds [0, kBase]; the first log2 bucket starts just above.
  EXPECT_EQ(bucket_index(0.0), 0u);
  EXPECT_EQ(bucket_index(-1.0), 0u);  // durations are never negative, but
                                      // a clock regression must not UB
  EXPECT_EQ(bucket_index(kBase), 0u);
  EXPECT_EQ(bucket_index(kBase * 1.01), 1u);
  EXPECT_EQ(bucket_index(kBase * 2), 1u);
  EXPECT_EQ(bucket_index(kBase * 2.01), 2u);
  EXPECT_EQ(bucket_index(kBase * 4), 2u);

  // Each bucket's nominal bounds round-trip through bucket_index:
  // the upper edge lands inside, just above spills into the next.
  for (std::size_t i = 1; i + 1 < HistogramCell::kBuckets; ++i) {
    EXPECT_EQ(bucket_index(detail::bucket_upper(i)), i) << i;
    EXPECT_EQ(bucket_index(detail::bucket_upper(i) * 1.001), i + 1) << i;
    EXPECT_LT(detail::bucket_lower(i), detail::bucket_upper(i)) << i;
  }

  // The top bucket absorbs overflow instead of indexing out of range.
  EXPECT_EQ(bucket_index(1e30), HistogramCell::kBuckets - 1);
}

TEST(ObsHistogram, SnapshotAndQuantilesDegenerate) {
  Registry reg;
  Histogram h = reg.histogram("latency/test");
  for (int i = 0; i < 100; ++i) h.observe(1.0);

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 1.0);
  // All mass in one bucket, clamped to the observed range: every
  // quantile is exactly the observed value.
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.quantile(q), 1.0) << q;
  }
}

TEST(ObsHistogram, QuantilesBracketedByBucketResolution) {
  Registry reg;
  Histogram h = reg.histogram("latency/spread");
  std::vector<double> samples;
  for (int i = 1; i <= 64; ++i) {
    const double v = 0.001 * i;  // 1ms .. 64ms
    samples.push_back(v);
    h.observe(v);
  }
  std::sort(samples.begin(), samples.end());

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 64u);
  EXPECT_DOUBLE_EQ(snap.min, 0.001);
  EXPECT_DOUBLE_EQ(snap.max, 0.064);

  // Log2 buckets estimate within a factor of 2 of the exact sample
  // quantile; both ends stay clamped to the observed range and the
  // estimate is monotone in q.
  double prev = snap.quantile(0.0);
  for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double est = snap.quantile(q);
    const double exact = quantile_from_sorted(samples, q);
    EXPECT_GE(est, prev) << q;
    EXPECT_GE(est, snap.min) << q;
    EXPECT_LE(est, snap.max) << q;
    EXPECT_GE(est, exact / 2) << q;
    EXPECT_LE(est, exact * 2) << q;
    prev = est;
  }
}

TEST(ObsQuantile, ExactFromSortedSamples) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile_from_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(xs, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted({}, 0.5), 0.0);
}

// --------------------------------------------------------------------
// Trace ring.
// --------------------------------------------------------------------

TEST(ObsTrace, RingWrapsKeepingNewestInOrder) {
  auto clock = std::make_shared<ManualClock>();
  Registry reg(Registry::Options{.trace_capacity = 8, .clock = clock});

  for (std::uint64_t i = 0; i < 20; ++i) {
    clock->advance_to(static_cast<double>(i));
    reg.trace_event(/*node=*/0, EventKind::kRbcSend, /*a=*/i);
  }

  EXPECT_EQ(reg.trace().total_recorded(), 20u);
  EXPECT_EQ(reg.trace().capacity(), 8u);
  const std::vector<TraceEvent> events = reg.trace().snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest surviving event is #12; order is oldest -> newest with
  // non-decreasing timestamps.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);
    EXPECT_DOUBLE_EQ(events[i].time, static_cast<double>(12 + i));
    if (i > 0) EXPECT_GE(events[i].time, events[i - 1].time);
  }
  // dump() renders every surviving event.
  const std::string dump = reg.trace().dump();
  EXPECT_NE(dump.find("rbc_send"), std::string::npos);
}

TEST(ObsClock, ManualClockNeverMovesBackwards) {
  ManualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance_to(5.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
  clock.advance_to(3.0);  // regression attempt is a no-op
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
}

// --------------------------------------------------------------------
// Concurrent counters under socket event loops.
// --------------------------------------------------------------------

TEST(ObsRegistry, PrivateRegistryRule) {
  // A given registry is used as is: same pointer, lifecycle untouched.
  auto shared = std::make_shared<Registry>();
  EXPECT_EQ(registry_or_private(shared), shared);
  EXPECT_TRUE(shared->lifecycle().enabled());
  // Null gets a fresh private registry with lifecycle tracking off.
  auto fresh = registry_or_private(nullptr);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, shared);
  EXPECT_FALSE(fresh->lifecycle().enabled());
}

TEST(ObsSocketNetwork, RegistryCountersMatchNodeMetrics) {
  // A small all-to-all flood: every node bounces each message a few
  // times, so the four event-loop threads hammer the shared net/*
  // counters concurrently.
  class Flood final : public net::IProcess {
  public:
    void on_start(net::IContext& ctx) override {
      for (net::NodeId to = 0; to < ctx.node_count(); ++to) {
        if (to != ctx.self()) ctx.send(to, wire::Bytes{0});
      }
    }
    void on_message(net::IContext& ctx, net::NodeId from,
                    wire::BytesView payload) override {
      if (payload[0] < 8) ctx.send(from, wire::Bytes{
                              static_cast<std::uint8_t>(payload[0] + 1)});
    }
  };

  constexpr std::size_t n = 4;
  testutil::LoopbackHost host(n);
  const std::shared_ptr<Registry>& registry = host.registry();
  for (net::NodeId id = 0; id < n; ++id) {
    host.host(id, std::make_unique<Flood>());
  }
  // Every frame sent is delivered once the links are up; then the flood
  // is over, and nothing sends again.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (registry->counter("net/messages_delivered").value() < 108 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  host.kill();

  std::uint64_t sent = 0, delivered = 0, bytes_delivered = 0;
  for (net::NodeId id = 0; id < n; ++id) {
    sent += host.net(id).metrics().messages_sent;
    delivered += host.net(id).metrics().messages_delivered;
    bytes_delivered += host.net(id).metrics().bytes_delivered;
  }
  // 4 nodes × 3 peers × (1 initial + 8 bounces) = 108 one-byte frames.
  EXPECT_EQ(sent, 108u);
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(bytes_delivered, sent);  // every frame is exactly one byte
  // The registry saw the same totals the per-node metrics did — no lost
  // increments under real concurrency.
  EXPECT_EQ(registry->counter("net/messages_sent").value(), sent);
  EXPECT_EQ(registry->counter("net/messages_delivered").value(), delivered);
  EXPECT_EQ(registry->counter("net/bytes_delivered").value(),
            bytes_delivered);
}

// --------------------------------------------------------------------
// Send-site oversized-broadcast rejection + the stall watchdog.
// --------------------------------------------------------------------

TEST(ObsWatchdog, OversizedBroadcastRejectedCountedAndTraced) {
  auto registry = std::make_shared<Registry>();
  std::size_t frames_sent = 0;
  rbc::BrachaRbc rbc(
      rbc::BrachaRbc::Config{.self = 0, .n = 4, .f = 1, .store = nullptr,
                             .registry = registry},
      [&](net::NodeId, wire::Bytes) { ++frames_sent; },
      [](net::NodeId, std::uint64_t, wire::Bytes) {});

  // In range: accepted and sent to all n peers.
  EXPECT_TRUE(rbc.broadcast(1, wire::Bytes(64, 0xab)));
  EXPECT_EQ(frames_sent, 4u);
  EXPECT_TRUE(registry->health().ok());

  // One byte over the frame cap: rejected locally, nothing emitted.
  const wire::Bytes oversized(rbc::kMaxPayloadBytes + 1, 0xcd);
  EXPECT_FALSE(rbc.broadcast(2, oversized));
  EXPECT_EQ(frames_sent, 4u);
  EXPECT_EQ(rbc.stats().oversized_broadcast, 1u);

  // The watchdog reports it: the warning counter fires, and the
  // largest-broadcast high-water gauge sits past its warn threshold.
  const HealthReport health = registry->health();
  EXPECT_FALSE(health.ok());
  bool counter_flagged = false, gauge_flagged = false;
  for (const HealthIssue& issue : health.issues) {
    if (issue.metric.find("oversized_broadcast") != std::string::npos) {
      counter_flagged = true;
    }
    if (issue.metric.find("largest_broadcast_bytes") != std::string::npos) {
      gauge_flagged = true;
    }
  }
  EXPECT_TRUE(counter_flagged);
  EXPECT_TRUE(gauge_flagged);

  // And the trace ring holds the forensic event.
  bool traced = false;
  for (const TraceEvent& ev : registry->trace().snapshot()) {
    if (ev.kind == EventKind::kWarnOversizedBroadcast) {
      EXPECT_EQ(ev.a, 2u);  // the rejected tag
      EXPECT_EQ(ev.b, oversized.size());
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

TEST(ObsWatchdog, NearCapBroadcastWarnsButSends) {
  auto registry = std::make_shared<Registry>();
  std::size_t frames_sent = 0;
  rbc::BrachaRbc rbc(
      rbc::BrachaRbc::Config{.self = 0, .n = 4, .f = 1, .store = nullptr,
                             .registry = registry},
      [&](net::NodeId, wire::Bytes) { ++frames_sent; },
      [](net::NodeId, std::uint64_t, wire::Bytes) {});

  // Just over 3/4 of the cap: still legal, still broadcast, but the
  // early-warning counter fires so operators see cumulative-set growth
  // *before* the cap starts dropping disclosures (ROADMAP item 1b).
  const std::size_t near_cap =
      rbc::kMaxPayloadBytes - rbc::kMaxPayloadBytes / 4 + 1;
  EXPECT_TRUE(rbc.broadcast(1, wire::Bytes(near_cap, 0x11)));
  EXPECT_EQ(frames_sent, 4u);
  EXPECT_EQ(rbc.stats().near_cap_broadcast, 1u);
  EXPECT_EQ(rbc.stats().oversized_broadcast, 0u);
  EXPECT_FALSE(registry->health().ok());
}

// --------------------------------------------------------------------
// End-to-end: one registry across a full batched-RSM simulation.
// --------------------------------------------------------------------

TEST(ObsEndToEnd, GwtsLifecycleHistogramsAndCausalTrace) {
  auto registry = std::make_shared<Registry>();
  testutil::BatchRsmScenarioOptions options;
  options.n = 4;
  options.f = 1;
  options.engine = core::EngineKind::kGwts;
  options.clients = 1;
  options.commands_per_client = 256;
  options.batch_size = 64;
  options.registry = registry;
  testutil::BatchRsmScenario scenario(std::move(options));
  scenario.run_until_done();
  ASSERT_TRUE(scenario.all_clients_done());

  // Every stage transition of the acceptance pipeline recorded latencies
  // (decide -> execute runs in the same callback, so its histogram has
  // counts even though the observed gap is 0 simulated seconds).
  for (const char* name :
       {"latency/seal_to_rbc_deliver", "latency/rbc_deliver_to_decide",
        "latency/decide_to_execute", "latency/execute_to_confirm"}) {
    const HistogramSnapshot snap = registry->histogram(name).snapshot();
    EXPECT_GT(snap.count, 0u) << name;
    EXPECT_GE(snap.min, 0.0) << name;
    EXPECT_LE(snap.min, snap.max) << name;
  }
  EXPECT_GT(registry->lifecycle().tracked(), 0u);

  // The trace preserves causal order: the ring is time-ordered, the
  // first event is the client's submit, and for the earliest-sealed
  // batch (its seal event survives the ring) seal precedes confirm.
  const std::vector<TraceEvent> events = registry->trace().snapshot();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time) << i;
  }
  double seal_time = -1.0, confirm_time = -1.0;
  std::uint64_t first_batch = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind == EventKind::kBatchSeal && seal_time < 0) {
      seal_time = ev.time;
      first_batch = ev.a;
    }
    if (ev.kind == EventKind::kClientConfirm && confirm_time < 0 &&
        ev.a == first_batch) {
      confirm_time = ev.time;
    }
  }
  ASSERT_GE(seal_time, 0.0);
  ASSERT_GE(confirm_time, 0.0);
  EXPECT_GT(confirm_time, seal_time);

  // Simulator-driven clock: the registry's time source advanced with
  // simulated time, and message accounting matches the simulator's.
  EXPECT_GT(registry->now(), 0.0);
  EXPECT_EQ(registry->counter("net/messages_sent").value(),
            scenario.network().total_messages());

  // Healthy run, and the JSON export carries the histograms the bench
  // files commit.
  EXPECT_TRUE(registry->health().ok());
  const std::string json = registry->to_json();
  EXPECT_NE(json.find("\"latency/seal_to_rbc_deliver\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
}

}  // namespace
}  // namespace bla::obs
