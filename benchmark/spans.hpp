#pragma once
// Spans recorded from outside the program. The decorators below wrap the
// library's public seams — net::IProcess / net::IContext around every
// node and crypto::ISigner around every signer — and time each callback,
// each send and each signature operation. No file under src/ knows about
// them, so a later change to src/ is measured by identical code.
//
// Attribution: a callback span belongs to the module that owns the
// frame's first (type) byte, a timer firing to `timer`, and everything a
// client node does to `batch`. Sends and signature operations are child
// spans of the callback that issued them; a span's self time is its
// duration minus its children.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/signer.hpp"
#include "net/process.hpp"

namespace blabench {

using bla::net::NodeId;

enum class Module : std::uint8_t {
  kRbc,
  kStore,
  kCore,
  kRsm,
  kCheckpoint,
  kOther,
  kTimer,
  kBatch,  // every callback of a client node
  kSend,
  kSign,
  kVerify,
  // Derived from the client's seal/confirm events for the trace file;
  // wall time a batch waited, not CPU, so summaries skip them.
  kDueToSeal,
  kInFlight,
  kCount,
};

[[nodiscard]] const char* module_name(Module m);

/// Seconds on the steady clock since the benchmark started: the time base
/// of spans, and of every iteration that records them.
[[nodiscard]] double now_s();

struct Span {
  double start = 0.0;  // now_s() seconds
  double end = 0.0;
  std::int32_t parent = -1;
  NodeId node = 0;
  Module module = Module::kOther;
  std::uint64_t id = 0;  // batch digest id64 (derived batch spans)
};

/// Collects spans and the counts recorded at the same boundaries. Used
/// from one thread at a time (the simulator's, or one client loop).
class SpanRecorder {
public:
  /// Opens a span under the currently open one; returns its index.
  std::int32_t open(Module module, NodeId node);
  void close(std::int32_t index);
  /// Appends a finished root span (batch spans derived from events).
  void add(const Span& span) { spans_.push_back(span); }

  /// Counts a verify of (signer, message, signature) at `node` as a
  /// repeat when that node already verified the same triple.
  void note_verify(NodeId node, NodeId signer, bla::wire::BytesView message,
                   bla::wire::BytesView signature);
  void note_sent_bytes(Module module, std::uint64_t bytes) {
    sent_bytes_[static_cast<std::size_t>(module)] += bytes;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t verify_repeats() const { return repeats_; }
  [[nodiscard]] std::uint64_t sent_bytes(Module module) const {
    return sent_bytes_[static_cast<std::size_t>(module)];
  }

private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::vector<std::unordered_set<std::uint64_t>> verified_;  // per node
  std::uint64_t repeats_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(Module::kCount)>
      sent_bytes_{};
};

/// Wraps a node: every callback becomes a span, and the context it hands
/// the wrapped process turns every send into a child span.
class TracedProcess final : public bla::net::IProcess {
public:
  TracedProcess(std::unique_ptr<bla::net::IProcess> inner,
                SpanRecorder& recorder, bool client);

  void on_start(bla::net::IContext& ctx) override;
  void on_message(bla::net::IContext& ctx, NodeId from,
                  bla::wire::BytesView payload) override;
  void on_timer(bla::net::IContext& ctx, std::uint64_t token) override;

private:
  class Context;

  std::unique_ptr<bla::net::IProcess> inner_;
  SpanRecorder& recorder_;
  bool client_;
};

/// Wraps a signer: sign and verify become spans, and repeated verifies of
/// the same triple at one node are counted (work a cache would save).
class TracedSigner final : public bla::crypto::ISigner {
public:
  TracedSigner(std::shared_ptr<const bla::crypto::ISigner> inner,
               SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] NodeId id() const override { return inner_->id(); }
  [[nodiscard]] bla::wire::Bytes sign(
      bla::wire::BytesView message) const override;
  [[nodiscard]] bool verify(NodeId signer, bla::wire::BytesView message,
                            bla::wire::BytesView signature) const override;

private:
  std::shared_ptr<const bla::crypto::ISigner> inner_;
  SpanRecorder& recorder_;
};

/// Self time per module, summed over all spans.
struct SpanTotals {
  std::array<double, static_cast<std::size_t>(Module::kCount)> self_s{};
  std::array<std::uint64_t, static_cast<std::size_t>(Module::kCount)>
      count{};
  double top_level_s = 0.0;           // sum of root span durations
  std::vector<double> busy_by_node_s;  // root span time per node
};

[[nodiscard]] SpanTotals summarize(const std::vector<Span>& spans,
                                   std::size_t nodes);

/// Writes spans as JSON: {"modules": [...], "spans": [[module, node,
/// start_us, end_us, parent, id], ...]}.
[[nodiscard]] bool write_trace_file(const std::string& path,
                                    const std::vector<Span>& spans);

}  // namespace blabench
