#pragma once
// Batched proposal pipeline, layer 5: the streaming client.
//
// BatchClient is the batched analogue of rsm::RsmClient's update path: it
// streams a workload of encoded commands through
//
//     BatchBuilder ──seal──▶ BatchProposer ──kRsmNewBatch──▶ f+1 replicas
//
// keeping up to K batches in flight and treating a batch as durable once
// f+1 distinct replicas report a decision containing its value. Sealing
// follows Nagle's rule (RFC 896): whenever a window slot is free and the
// client has nothing more it may release right now, it seals whatever the
// builder holds. So batches fill up to B only while the window is full,
// and commands beyond the window wait, unreleased, for a slot — that is
// the end-to-end backpressure the RSM applies to a too-fast client.
//
// A paced client releases its workload on an absolute grid: tick k falls
// at t0 + k·pace_interval (t0 = on_start's now()), command j is due at
// tick ⌊j / pace_commands⌋, and each tick releases every command whose
// tick has come, so a late timer delays no later tick. Each command's
// due-to-confirm time goes into the registry histogram
// "latency/due_to_confirm".
//
// On reliable links the client needs no retransmission: at least one of
// the f+1 contacted replicas is correct, and the engines' Inclusivity
// guarantees every submitted value eventually joins the decided chain.
// Under the src/fault injection layer (lossy links, partitions, crashed
// replicas) that premise breaks, so the client carries an opt-in
// deadline-based retry loop (RetryPolicy): batches past their completion
// deadline are re-sent with exponential backoff to a contact set that
// widens by one replica per attempt, and a batch that exhausts its
// attempt budget is abandoned *loudly* — the pipeline drains, done()
// still turns true, and the loss is surfaced through
// pipeline().commands_failed() instead of a silent hang.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "batch/builder.hpp"
#include "batch/proposer.hpp"
#include "core/common.hpp"
#include "net/process.hpp"

namespace bla::batch {

class BatchClient : public net::IProcess {
public:
  struct Config {
    NodeId self = 0;    // node id (≥ n by the RSM layout convention)
    std::size_t n = 0;  // replica count
    std::size_t f = 0;
    /// Builder bounds; `proposer` is overwritten with `self`.
    BatchBuilderConfig builder;
    std::size_t max_in_flight = 4;  // K
    /// Observability registry shared with the proposer window (seal /
    /// confirm lifecycle marks, submit trace events). Created internally
    /// when null.
    std::shared_ptr<obs::Registry> registry;
    /// Deadline-based retransmission (see batch::RetryPolicy). Default
    /// off; enable when the transport may lose frames.
    RetryPolicy retry;
    /// Open-loop pacing: `pace_commands` commands fall due every
    /// `pace_interval` time units of the runtime clock, on the absolute
    /// grid described above. 0 disables pacing and the whole workload is
    /// releasable at once — maximum pressure, the right mode for
    /// simulations. loadgen sets both to hit a target rate against
    /// wall-clock sockets.
    double pace_interval = 0.0;
    std::size_t pace_commands = 0;
  };

  BatchClient(Config config, std::shared_ptr<const crypto::ISigner> signer,
              std::vector<lattice::Value> commands);

  void on_start(net::IContext& ctx) override;
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) override;
  /// Timer demux: token 0 is the retry tick (armed only when
  /// config.retry.enabled) — retransmits overdue batches and stops
  /// re-arming once done(); token 1 is the pacing tick (armed only when
  /// pacing is configured) — releases the commands whose tick has come.
  void on_timer(net::IContext& ctx, std::uint64_t token) override;

  /// Every *accepted* command durably decided and the pipeline drained.
  /// Commands the builder refused (empty, batch-framed, oversized — see
  /// commands_dropped()) are excluded from the guarantee, as are
  /// commands in batches abandoned after exhausting their retry budget
  /// (pipeline().commands_failed()); callers that must not lose commands
  /// check both are zero alongside done(). Readable from another thread
  /// (the thread-network bench polls it).
  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }
  /// Commands the builder rejected as unbatchable; they never reached a
  /// replica.
  [[nodiscard]] std::uint64_t commands_dropped() const {
    return builder_.commands_dropped();
  }
  /// Simulated time when done() first became true.
  [[nodiscard]] double finish_time() const { return finish_time_; }

  [[nodiscard]] const BatchProposer& pipeline() const { return pipeline_; }
  [[nodiscard]] const BatchBuilder& builder() const { return builder_; }
  [[nodiscard]] std::size_t commands_submitted() const {
    return commands_.size();
  }

private:
  void pump(net::IContext& ctx);
  void submit(net::IContext& ctx, const SignedCommandBatch& b);
  void maybe_finish(net::IContext& ctx);
  void schedule_tick(net::IContext& ctx);
  /// Observes due→confirm for every command of the batches `seqs`.
  void record_confirms(net::IContext& ctx,
                       const std::vector<std::uint64_t>& seqs);
  [[nodiscard]] bool paced() const {
    return config_.pace_interval > 0.0 && config_.pace_commands > 0;
  }
  /// Commands [0, releasable()) may be handed to the builder now.
  [[nodiscard]] std::size_t releasable() const;
  /// Grid time of command j's tick.
  [[nodiscard]] double due(std::size_t j) const {
    return t0_ + static_cast<double>(j / config_.pace_commands) *
                     config_.pace_interval;
  }

  Config config_;
  std::shared_ptr<obs::Registry> registry_;  // before pipeline_: shared down
  BatchBuilder builder_;
  BatchProposer pipeline_;
  std::vector<lattice::Value> commands_;
  std::size_t released_ = 0;  // commands [0, released_) went to the builder
  // Pacing grid: origin and the last tick that has come.
  double t0_ = 0.0;
  std::uint64_t tick_ = 0;
  // Paced only: the due times of the commands the builder holds, then of
  // each in-flight batch's commands, by batch seq.
  std::deque<double> builder_due_;
  std::map<std::uint64_t, std::vector<double>> in_flight_due_;
  obs::Histogram due_to_confirm_;
  std::atomic<bool> done_{false};
  double finish_time_ = 0.0;
};

}  // namespace bla::batch
