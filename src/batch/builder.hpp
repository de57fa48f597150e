#pragma once
// Batched proposal pipeline, layer 2: the BatchBuilder.
//
// Accumulates encoded commands into size- and byte-bounded batches, then
// seals each one with a single signature over the batch digest (cf. the
// Logos BatchStateBlock pre-prepares in SNIPPETS.md). add() seals when
// the command-count or byte bound fills; flush() seals a partial batch.
// When to flush is the caller's choice: BatchClient flushes whenever it
// has nothing more to release and a window slot is free (Nagle's rule,
// RFC 896), so batches fill up only while the pipeline is busy. The
// builder has no clock.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "batch/batch.hpp"
#include "crypto/signer.hpp"

namespace bla::batch {

struct BatchBuilderConfig {
  NodeId proposer = 0;
  /// Size bound B: seal after this many commands. Clamped into
  /// [1, kMaxBatchCommands].
  std::size_t max_commands = 64;
  /// Byte bound on the accumulated command payload.
  std::size_t max_bytes = kMaxBatchBytes;
  /// Unused: nothing reads it. Kept only while benchmark/bla_bench.cpp
  /// still assigns it.
  double max_delay = 0.0;
};

class BatchBuilder {
public:
  BatchBuilder(BatchBuilderConfig config,
               std::shared_ptr<const crypto::ISigner> signer);

  /// Queues one encoded command; returns a sealed batch when the size or
  /// byte bound fills. Commands that could never be batched (empty,
  /// batch-magic-prefixed, oversized) are dropped and counted.
  [[nodiscard]] std::optional<SignedCommandBatch> add(Value command);

  /// Seals whatever is pending, if anything.
  [[nodiscard]] std::optional<SignedCommandBatch> flush();

  [[nodiscard]] std::size_t pending_commands() const {
    return pending_.size();
  }
  [[nodiscard]] std::uint64_t batches_sealed() const {
    return batches_sealed_;
  }
  [[nodiscard]] std::uint64_t commands_dropped() const {
    return commands_dropped_;
  }

private:
  [[nodiscard]] SignedCommandBatch seal();

  BatchBuilderConfig config_;
  std::shared_ptr<const crypto::ISigner> signer_;
  std::vector<Value> pending_;
  std::size_t pending_bytes_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t batches_sealed_ = 0;
  std::uint64_t commands_dropped_ = 0;
};

}  // namespace bla::batch
