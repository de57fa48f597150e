#pragma once
// Batched proposal pipeline, layer 4: the in-flight window.
//
// BatchProposer keeps up to K sealed batches "in flight" through the
// agreement layer and tracks, per batch, which replicas have reported a
// decision containing its value. A batch completes at `completion_quorum`
// (= f+1) distinct reports: at least one reporter is correct, so the
// batch — and every command in it — is durably in the RSM (Alg. 5
// line 4 lifted from one command to a batch). K is the backpressure
// knob: while the window is full, newly arriving commands wait in the
// builder instead of flooding the engines with proposals.
//
// Pure bookkeeping — no I/O, and no clock beyond the obs registry's
// (whose timestamps feed the seal/confirm lifecycle stages but never
// protocol decisions) — so it unit-tests without a network and runs
// unchanged under the simulator and the socket runtime.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "batch/batch.hpp"
#include "crypto/sha256.hpp"
#include "lattice/set_lattice.hpp"
#include "obs/registry.hpp"
#include "wire/wire.hpp"

namespace bla::batch {

/// Opt-in deadline-based retransmission for in-flight batches (the
/// client-level leg of the src/fault recovery story). A batch that has
/// not completed within `deadline` is re-sent, with the deadline growing
/// by `backoff` per attempt; after `max_attempts` total sends the batch
/// is *abandoned* — erased from the window so the pipeline drains, with
/// the loss surfaced through commands_failed() / batches_abandoned()
/// rather than silently hanging the client. Default OFF: on reliable
/// links retransmission is pure overhead, and resilience tests run to
/// quiescence.
struct RetryPolicy {
  bool enabled = false;
  /// Time a batch may stay in flight before its first retransmission
  /// (time units of the hosting runtime's now()).
  double deadline = 16.0;
  /// Deadline multiplier per retransmission.
  double backoff = 2.0;
  /// Total send attempts (including the first) before giving up.
  std::size_t max_attempts = 6;
  /// Client timer period.
  double tick = 4.0;
};

class BatchProposer {
public:
  struct Config {
    std::size_t max_in_flight = 4;  // K
    /// Distinct decide reports that make a batch durable. Durability
    /// against Byzantine replicas requires f+1 (BatchClient passes
    /// that); the default of 1 trusts a single reporter and is only
    /// appropriate in single-replica unit tests.
    std::size_t completion_quorum = 1;
    /// Owning client's node id — stamps this proposer's trace events
    /// and lifecycle marks.
    NodeId self = 0;
    /// Observability registry: batch-seal and client-confirm lifecycle
    /// marks (the ends of the per-command latency timeline) plus
    /// "node<self>/batch/*" counters. Null = obs::registry_or_private.
    std::shared_ptr<obs::Registry> registry;
    /// Deadline-based retransmission (see RetryPolicy). Default off.
    RetryPolicy retry;
  };

  explicit BatchProposer(Config config)
      : config_(std::move(config)),
        registry_(obs::registry_or_private(config_.registry)) {
    const std::string p =
        "node" + std::to_string(config_.self) + "/batch/";
    obs_batches_completed_ = registry_->counter(p + "batches_completed");
    obs_commands_completed_ = registry_->counter(p + "commands_completed");
    obs_retransmits_ = registry_->counter(p + "retransmits");
    obs_batches_abandoned_ =
        registry_->counter(p + "batches_abandoned", /*warning=*/true);
  }

  [[nodiscard]] bool can_submit() const {
    return in_flight_.size() < config_.max_in_flight;
  }

  /// Registers a sealed batch as in flight. Call only when can_submit().
  /// Opens the batch's lifecycle timeline at Stage::kSeal — the batch
  /// value digest is the key every later stage (RBC deliver, decide,
  /// execute, confirm) marks against. When retry is enabled the caller
  /// passes the encoded kRsmNewBatch frame (retained for retransmission)
  /// and the current time (arms the completion deadline).
  void mark_submitted(const SignedCommandBatch& b, double now = 0.0,
                      wire::Bytes frame = {}) {
    InFlight entry;
    entry.value = batch_value(b);
    entry.digest =
        crypto::Sha256::hash(std::span(entry.value.data(), entry.value.size()));
    entry.command_count = b.commands.size();
    entry.frame = std::move(frame);
    entry.deadline = now + config_.retry.deadline;
    entry.backoff_interval = config_.retry.deadline;
    registry_->lifecycle().mark(entry.digest, obs::Stage::kSeal,
                                config_.self);
    registry_->trace_event(config_.self, obs::EventKind::kBatchSeal,
                           obs::id64(entry.digest), entry.command_count);
    in_flight_.emplace(b.seq, std::move(entry));
    max_in_flight_seen_ = std::max(max_in_flight_seen_, in_flight_.size());
  }

  /// One batch due for retransmission: its retained frame plus the
  /// attempt count *after* this send (the client widens its contact set
  /// with each attempt).
  struct Retransmit {
    std::uint64_t seq = 0;
    wire::Bytes frame;
    std::size_t attempts = 0;
  };

  /// Sweeps the window at `now` (retry must be enabled): batches past
  /// their deadline are returned for retransmission with their deadline
  /// backed off; batches whose attempt budget is spent are abandoned —
  /// erased from the window so the pipeline keeps draining — and tallied
  /// in batches_abandoned()/commands_failed(). Callers that must not
  /// lose commands check commands_failed() == 0 once done.
  std::vector<Retransmit> due(double now) {
    std::vector<Retransmit> out;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      InFlight& entry = it->second;
      if (now < entry.deadline) {
        ++it;
        continue;
      }
      if (entry.attempts >= config_.retry.max_attempts) {
        batches_abandoned_ += 1;
        commands_failed_ += entry.command_count;
        obs_batches_abandoned_.inc();
        registry_->trace_event(config_.self,
                               obs::EventKind::kWarnBatchGiveUp,
                               obs::id64(entry.digest), entry.command_count);
        it = in_flight_.erase(it);
        continue;
      }
      entry.attempts += 1;
      // deadline * backoff^(attempts-1) without pow(): the stored
      // deadline interval doubles (by `backoff`) each sweep.
      entry.backoff_interval *= config_.retry.backoff;
      entry.deadline = now + entry.backoff_interval;
      obs_retransmits_.inc();
      registry_->trace_event(config_.self, obs::EventKind::kBatchRetransmit,
                             obs::id64(entry.digest), entry.attempts);
      out.push_back({it->first, entry.frame, entry.attempts});
      ++it;
    }
    return out;
  }

  /// Feeds one replica's decide report; returns the seqs of batches that
  /// just reached their completion quorum (their slots are freed).
  std::vector<std::uint64_t> on_decide_report(
      NodeId replica, const lattice::ValueSet& decided) {
    return complete_matching(replica, [&](const InFlight& entry) {
      return decided.contains(entry.value);
    });
  }

  /// Digest-form decide report (kRsmDecideDigest): the replica shipped
  /// SHA-256 element digests instead of bodies; matching our batch
  /// value's digest is exactly as strong an inclusion witness per
  /// reporter, and durability still requires the same quorum of
  /// distinct reporters.
  std::vector<std::uint64_t> on_decide_digest_report(
      NodeId replica, const std::set<crypto::Sha256::Digest>& decided) {
    return complete_matching(replica, [&](const InFlight& entry) {
      return decided.contains(entry.digest);
    });
  }

  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }
  /// Whether batch `seq` is in the window.
  [[nodiscard]] bool holds(std::uint64_t seq) const {
    return in_flight_.contains(seq);
  }
  [[nodiscard]] std::size_t max_in_flight_seen() const {
    return max_in_flight_seen_;
  }
  [[nodiscard]] std::uint64_t batches_completed() const {
    return batches_completed_;
  }
  [[nodiscard]] std::uint64_t commands_completed() const {
    return commands_completed_;
  }
  /// Batches erased from the window after exhausting their retry budget.
  [[nodiscard]] std::uint64_t batches_abandoned() const {
    return batches_abandoned_;
  }
  /// Commands in abandoned batches — the client's delivery guarantee
  /// does NOT cover these; callers surface them to the application.
  [[nodiscard]] std::uint64_t commands_failed() const {
    return commands_failed_;
  }

private:
  struct InFlight {
    Value value;  // the batch as a lattice value (what decide sets hold)
    crypto::Sha256::Digest digest{};  // sha256(value), for digest reports
    std::size_t command_count = 0;
    std::set<NodeId> reporters;
    // Retransmission state (populated only when retry is enabled).
    wire::Bytes frame;         // encoded kRsmNewBatch frame
    std::size_t attempts = 1;  // sends so far (the submit was the first)
    double deadline = 0.0;     // next retransmit time
    double backoff_interval = 0.0;  // current deadline interval
  };

  template <typename Pred>
  std::vector<std::uint64_t> complete_matching(NodeId replica, Pred&& in_set) {
    std::vector<std::uint64_t> completed;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      InFlight& entry = it->second;
      if (!in_set(entry)) {
        ++it;
        continue;
      }
      entry.reporters.insert(replica);
      if (entry.reporters.size() >= config_.completion_quorum) {
        completed.push_back(it->first);
        commands_completed_ += entry.command_count;
        ++batches_completed_;
        obs_batches_completed_.inc();
        obs_commands_completed_.inc(entry.command_count);
        // The batch is durable from this client's perspective: close the
        // timeline (execute -> confirm is the notification latency).
        registry_->lifecycle().mark(entry.digest, obs::Stage::kConfirm,
                                    config_.self);
        registry_->trace_event(config_.self, obs::EventKind::kClientConfirm,
                               obs::id64(entry.digest), entry.command_count);
        it = in_flight_.erase(it);
      } else {
        ++it;
      }
    }
    return completed;
  }

  Config config_;
  std::shared_ptr<obs::Registry> registry_;
  obs::Counter obs_batches_completed_;
  obs::Counter obs_commands_completed_;
  obs::Counter obs_retransmits_;
  obs::Counter obs_batches_abandoned_;
  std::map<std::uint64_t, InFlight> in_flight_;  // by batch seq
  std::size_t max_in_flight_seen_ = 0;
  std::uint64_t batches_completed_ = 0;
  std::uint64_t commands_completed_ = 0;
  std::uint64_t batches_abandoned_ = 0;
  std::uint64_t commands_failed_ = 0;
};

}  // namespace bla::batch
