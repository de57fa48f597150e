#include "batch/builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bla::batch {

BatchBuilder::BatchBuilder(BatchBuilderConfig config,
                           std::shared_ptr<const crypto::ISigner> signer)
    : config_(config), signer_(std::move(signer)) {
  if (!signer_) throw std::invalid_argument("BatchBuilder requires a signer");
  if (signer_->id() != config_.proposer) {
    throw std::invalid_argument("signer id must match batch proposer");
  }
  config_.max_commands =
      std::clamp<std::size_t>(config_.max_commands, 1, kMaxBatchCommands);
  config_.max_bytes = std::min(config_.max_bytes, kMaxBatchBytes);
}

std::optional<SignedCommandBatch> BatchBuilder::add(Value command) {
  if (command.empty() || command[0] == kBatchMagic ||
      command.size() > config_.max_bytes) {
    ++commands_dropped_;
    return std::nullopt;
  }
  // A command that would blow the byte bound seals the pending batch
  // first, so batches never straddle the cap.
  std::optional<SignedCommandBatch> sealed;
  if (!pending_.empty() &&
      pending_bytes_ + command.size() > config_.max_bytes) {
    sealed = seal();
  }
  pending_bytes_ += command.size();
  pending_.push_back(std::move(command));
  if (pending_.size() >= config_.max_commands) {
    // At most one of the two flush conditions fires per add: the byte
    // bound seals *before* inserting, the size bound after, and a batch
    // sealed for bytes leaves exactly one pending command.
    if (sealed.has_value()) return sealed;
    return seal();
  }
  return sealed;
}

std::optional<SignedCommandBatch> BatchBuilder::flush() {
  if (pending_.empty()) return std::nullopt;
  return seal();
}

SignedCommandBatch BatchBuilder::seal() {
  SignedCommandBatch b;
  b.proposer = config_.proposer;
  b.seq = next_seq_++;
  b.commands = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  const auto digest = batch_digest(b);
  b.signature = signer_->sign(digest);
  ++batches_sealed_;
  return b;
}

}  // namespace bla::batch
