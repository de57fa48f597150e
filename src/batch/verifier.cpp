#include "batch/verifier.hpp"

#include <stdexcept>
#include <utility>

namespace bla::batch {

BatchVerifier::BatchVerifier(std::shared_ptr<const crypto::ISigner> verifier,
                             std::shared_ptr<store::BodyStore> store)
    : verifier_(std::move(verifier)),
      store_(store ? std::move(store) : std::make_shared<store::BodyStore>()) {
  if (!verifier_) {
    throw std::invalid_argument("BatchVerifier requires a signing handle");
  }
}

bool BatchVerifier::verify(const SignedCommandBatch& b) {
  // Structural bounds first (locally constructed batches bypass the wire
  // decoder, so re-check the shared predicate here): cheap, and keeps
  // the digest work bounded.
  if (!structurally_valid(b)) {
    ++rejected_;
    return false;
  }
  using Verdict = store::BodyStore::Verdict;
  const Verdict verdict =
      store_->verify(*verifier_, b.proposer, batch_digest(b), b.signature);
  if (verdict == Verdict::kCached) {
    ++cache_hits_;
    return true;
  }
  ++signature_checks_;
  if (verdict == Verdict::kRejected) {
    ++rejected_;
    return false;
  }
  return true;
}

}  // namespace bla::batch
