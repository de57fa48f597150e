#pragma once
// Batched proposal pipeline, layer 3: batch-aware verification.
//
// One signature check admits a whole batch of commands, and the body
// store's verify-once memo (store::BodyStore::verify) dedupes even that:
// the same batch re-presented — a client retransmit, the batch value
// re-disclosed or echoed across the engines' refinement rounds, a
// decide-time expansion — costs a hash and a set lookup instead of a
// signature verification. The memo key commits to the proposer, the
// batch digest (the full command list) *and the signature bytes*, so a
// hit is exactly as strong as a fresh verification — re-presenting a
// cached body under a mutated signature misses the memo and fails the
// real check (cf. libutreexo's BatchProof verify-once pattern in
// SNIPPETS.md).

#include <cstdint>
#include <memory>

#include "batch/batch.hpp"
#include "crypto/signer.hpp"
#include "store/body_store.hpp"

namespace bla::batch {

class BatchVerifier {
public:
  /// `verifier` may be any node's signing handle — ISigner::verify is
  /// global (the PKI distributes every public key). Pass the replica's
  /// shared BodyStore — the same store that backs digest-only
  /// dissemination and the GSbS engine's checks — so a signature is
  /// checked exactly once per replica no matter which layer (client
  /// admission, disclosure, decide-time expansion) saw it first. Without
  /// one the verifier memoises in a private store.
  explicit BatchVerifier(std::shared_ptr<const crypto::ISigner> verifier,
                         std::shared_ptr<store::BodyStore> store = nullptr);

  /// True iff the batch is structurally sound and its single signature
  /// checks out against the proposer's key (or already did, per the
  /// store's memo).
  [[nodiscard]] bool verify(const SignedCommandBatch& b);

  /// Real signature verifications (memo misses), accepted or not.
  [[nodiscard]] std::uint64_t signature_checks() const {
    return signature_checks_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

private:
  std::shared_ptr<const crypto::ISigner> verifier_;
  std::shared_ptr<store::BodyStore> store_;
  std::uint64_t signature_checks_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace bla::batch
