#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string_view>

namespace blabench {

const char* module_name(Module m) {
  switch (m) {
    case Module::kRbc:
      return "rbc";
    case Module::kStore:
      return "store";
    case Module::kCore:
      return "core";
    case Module::kRsm:
      return "rsm";
    case Module::kCheckpoint:
      return "checkpoint";
    case Module::kOther:
      return "other";
    case Module::kTimer:
      return "timer";
    case Module::kBatch:
      return "batch";
    case Module::kSend:
      return "net.send";
    case Module::kSign:
      return "crypto.sign";
    case Module::kVerify:
      return "crypto.verify";
    case Module::kDueToSeal:
      return "batch.due_to_seal";
    case Module::kInFlight:
      return "batch.in_flight";
    case Module::kCount:
      break;
  }
  return "unknown";
}

namespace {

/// Module that owns a frame, by its first byte (see core::MsgType,
/// rbc::MsgType, store::MsgType, checkpoint::MsgType).
Module frame_module(bla::wire::BytesView frame) {
  if (frame.empty()) return Module::kOther;
  const std::uint8_t t = frame[0];
  if ((t >= 1 && t <= 3) || t == 6) return Module::kRbc;
  if (t == 4 || t == 5) return Module::kStore;
  if ((t >= 10 && t <= 12) || (t >= 20 && t <= 21) || (t >= 30 && t <= 46)) {
    return Module::kCore;
  }
  if (t >= 50 && t <= 55) return Module::kRsm;
  if (t == 60 || t == 61) return Module::kCheckpoint;
  return Module::kOther;
}

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

std::int32_t SpanRecorder::open(Module module, NodeId node) {
  Span s;
  s.start = now_s();
  s.parent = current_;
  s.node = node;
  s.module = module;
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanRecorder::close(std::int32_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = now_s();
  current_ = s.parent;
}

void SpanRecorder::note_verify(NodeId node, NodeId signer,
                               bla::wire::BytesView message,
                               bla::wire::BytesView signature) {
  const auto text = [](bla::wire::BytesView b) {
    return std::string_view(reinterpret_cast<const char*>(b.data()),
                            b.size());
  };
  const std::hash<std::string_view> h;
  const std::uint64_t key = h(text(message)) * 0x9E3779B97F4A7C15ULL ^
                            h(text(signature)) ^ signer;
  if (node >= verified_.size()) verified_.resize(node + 1);
  if (!verified_[node].insert(key).second) ++repeats_;
}

// -- process / context decorators --------------------------------------------

class TracedProcess::Context final : public bla::net::IContext {
public:
  Context(bla::net::IContext& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  void send(NodeId to, bla::wire::Bytes payload) override {
    recorder_.note_sent_bytes(frame_module(payload), payload.size());
    const std::int32_t span = recorder_.open(Module::kSend, inner_.self());
    inner_.send(to, std::move(payload));
    recorder_.close(span);
  }
  void broadcast(bla::wire::Bytes payload) override {
    recorder_.note_sent_bytes(frame_module(payload),
                              payload.size() * inner_.node_count());
    const std::int32_t span = recorder_.open(Module::kSend, inner_.self());
    inner_.broadcast(std::move(payload));
    recorder_.close(span);
  }
  [[nodiscard]] NodeId self() const override { return inner_.self(); }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_.node_count();
  }
  [[nodiscard]] double now() const override { return inner_.now(); }
  void schedule(double delay, std::uint64_t token) override {
    inner_.schedule(delay, token);
  }

private:
  bla::net::IContext& inner_;
  SpanRecorder& recorder_;
};

TracedProcess::TracedProcess(std::unique_ptr<bla::net::IProcess> inner,
                             SpanRecorder& recorder, bool client)
    : inner_(std::move(inner)), recorder_(recorder), client_(client) {}

void TracedProcess::on_start(bla::net::IContext& ctx) {
  Context traced(ctx, recorder_);
  const std::int32_t span = recorder_.open(
      client_ ? Module::kBatch : Module::kOther, ctx.self());
  inner_->on_start(traced);
  recorder_.close(span);
}

void TracedProcess::on_message(bla::net::IContext& ctx, NodeId from,
                               bla::wire::BytesView payload) {
  Context traced(ctx, recorder_);
  const std::int32_t span = recorder_.open(
      client_ ? Module::kBatch : frame_module(payload), ctx.self());
  inner_->on_message(traced, from, payload);
  recorder_.close(span);
}

void TracedProcess::on_timer(bla::net::IContext& ctx, std::uint64_t token) {
  Context traced(ctx, recorder_);
  const std::int32_t span = recorder_.open(
      client_ ? Module::kBatch : Module::kTimer, ctx.self());
  inner_->on_timer(traced, token);
  recorder_.close(span);
}

// -- signer decorator ----------------------------------------------------------

bla::wire::Bytes TracedSigner::sign(bla::wire::BytesView message) const {
  const std::int32_t span = recorder_.open(Module::kSign, inner_->id());
  bla::wire::Bytes sig = inner_->sign(message);
  recorder_.close(span);
  return sig;
}

bool TracedSigner::verify(NodeId signer, bla::wire::BytesView message,
                          bla::wire::BytesView signature) const {
  // Keyed outside the span so the hash is not billed to the verify.
  recorder_.note_verify(inner_->id(), signer, message, signature);
  const std::int32_t span = recorder_.open(Module::kVerify, inner_->id());
  const bool ok = inner_->verify(signer, message, signature);
  recorder_.close(span);
  return ok;
}

// -- summaries -----------------------------------------------------------------

SpanTotals summarize(const std::vector<Span>& spans, std::size_t nodes) {
  SpanTotals t;
  t.busy_by_node_s.assign(nodes, 0.0);
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end - s.start;
    if (s.module == Module::kDueToSeal || s.module == Module::kInFlight) {
      continue;
    }
    const auto m = static_cast<std::size_t>(s.module);
    t.self_s[m] += dur - child_s[i];
    t.count[m] += 1;
    if (s.parent < 0) {
      t.top_level_s += dur;
      if (s.node < nodes) t.busy_by_node_s[s.node] += dur;
    }
  }
  return t;
}

bool write_trace_file(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"modules\": [", out);
  for (std::size_t m = 0; m < static_cast<std::size_t>(Module::kCount); ++m) {
    std::fprintf(out, "%s\"%s\"", m == 0 ? "" : ", ",
                 module_name(static_cast<Module>(m)));
  }
  std::fputs("],\n \"columns\": [\"module\", \"node\", \"start_us\", "
             "\"end_us\", \"parent\", \"id\"],\n \"spans\": [",
             out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%s\n  [%u, %u, %.3f, %.3f, %d, %llu]",
                 i == 0 ? "" : ",", static_cast<unsigned>(s.module), s.node,
                 s.start * 1e6, s.end * 1e6, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace blabench
