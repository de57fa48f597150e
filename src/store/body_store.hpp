#pragma once
// Content-addressed body store — the shared backing for digest-only
// dissemination (ISSUE 5 tentpole).
//
// PR 1 made each lattice value a SignedCommandBatch of up to 64KB, so the
// agreement layers' habit of re-shipping full values — Bracha replicating
// whole frames n² times per ECHO/READY round, GWTS rebroadcasting its
// *cumulative* accepted set on every ack, GSbS safe-acks echoing every
// received signed batch — multiplied a per-command byte cost that digests
// make constant. Every replica stores each body exactly once, keyed by
// SHA-256 of its bytes; protocol layers ship 32-byte digests and pull
// missing bodies on demand (store/fetch.hpp).
//
// The store is shared across layers of one process: Bracha parks whole
// RBC payload bodies here (ECHO/READY carry payload digests), the engines
// park lattice-value bodies (ack/safe-ack/certificate references), and
// every signature check (BatchVerifier, the GSbS engine) goes through the
// store's verify-once memo, so a signature is checked exactly once per
// replica no matter which layer saw it first. A mutex makes it safe to
// share across the replica's handler thread and any observer threads (the
// thread-network bench polls stats).
//
// GC: the checkpoint subsystem (src/checkpoint/) evicts bodies covered
// by a committed checkpoint via erase() and installs a fallback with
// set_fallback() that re-serves them from the snapshot, so the live map
// stays bounded while every reference still resolves.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "wire/wire.hpp"

namespace bla::store {

using Digest = crypto::Sha256::Digest;

[[nodiscard]] inline Digest body_digest(wire::BytesView body) {
  return crypto::Sha256::hash(body);
}

class BodyStore {
public:
  /// Stores `body` under its content digest (idempotent). Returns the
  /// digest. Oversized bodies are the *caller's* problem: each protocol
  /// layer enforces its own cap before putting (lattice::kMaxValueBytes
  /// for values, rbc::kMaxPayloadBytes for RBC payloads).
  Digest put(wire::BytesView body) {
    const Digest d = body_digest(body);
    std::lock_guard lock(mutex_);
    auto [it, inserted] = bodies_.try_emplace(d, nullptr);
    if (inserted) {
      it->second = std::make_shared<const wire::Bytes>(body.begin(),
                                                       body.end());
      total_bytes_ += it->second->size();
    }
    return d;
  }

  /// Stores `body` under `digest` without rehashing — only for callers
  /// that just computed or verified the digest themselves (the fetcher
  /// checks every pulled body against its requested digest).
  void put_trusted(const Digest& digest, wire::Bytes body) {
    std::lock_guard lock(mutex_);
    auto [it, inserted] = bodies_.try_emplace(digest, nullptr);
    if (inserted) {
      it->second = std::make_shared<const wire::Bytes>(std::move(body));
      total_bytes_ += it->second->size();
    }
  }

  /// Shared handle, not a copy: bodies run to 64KB (values) / 16MB (RBC
  /// payloads) and the hot paths — resolving a cumulative ack's k
  /// references, serving fetches — only read.
  [[nodiscard]] std::shared_ptr<const wire::Bytes> get(const Digest& d) const {
    Fallback fallback;
    {
      std::lock_guard lock(mutex_);
      auto it = bodies_.find(d);
      if (it != bodies_.end()) return it->second;
      fallback = fallback_;
    }
    // Consulted outside the mutex: the fallback (a checkpoint snapshot
    // lookup) takes its own locks and must not nest under ours.
    return fallback ? fallback(d) : nullptr;
  }

  [[nodiscard]] bool contains(const Digest& d) const {
    Fallback fallback;
    {
      std::lock_guard lock(mutex_);
      if (bodies_.contains(d)) return true;
      fallback = fallback_;
    }
    return fallback && fallback(d) != nullptr;
  }

  /// Evicts one body (checkpoint GC). Returns true when it was present.
  bool erase(const Digest& d) {
    std::lock_guard lock(mutex_);
    auto it = bodies_.find(d);
    if (it == bodies_.end()) return false;
    total_bytes_ -= it->second->size();
    bodies_.erase(it);
    return true;
  }

  /// Miss handler consulted by get()/contains() when the live map lacks
  /// a digest — the checkpoint snapshot re-serve hook. One per store
  /// (last writer wins); pass nullptr to uninstall.
  using Fallback = std::function<std::shared_ptr<const wire::Bytes>(
      const Digest&)>;
  void set_fallback(Fallback fallback) {
    std::lock_guard lock(mutex_);
    fallback_ = std::move(fallback);
  }

  [[nodiscard]] std::size_t body_count() const {
    std::lock_guard lock(mutex_);
    return bodies_.size();
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::lock_guard lock(mutex_);
    return total_bytes_;
  }

  // -- verify-once memo -------------------------------------------------------
  // Every signature check of a replica (BatchVerifier's client batches,
  // the GSbS engine's batches, safe-acks and acks) goes through verify(),
  // so one (signer, message, signature) triple reaches the real verifier
  // at most once per replica. The key is SHA-256 over exactly what the
  // check depends on — u32 signer ‖ length-prefixed message ‖ signature —
  // so a hit is as strong as a fresh check: a changed body, signer or
  // signature misses and is verified for real. Only successes are kept.
  // Bounded: cleared on overflow (re-verification is correct, just
  // slower), so a flood of validly signed Byzantine messages cannot grow
  // it without bound.

  enum class Verdict : std::uint8_t { kRejected, kVerified, kCached };

  [[nodiscard]] Verdict verify(const crypto::ISigner& verifier,
                               crypto::NodeId signer,
                               wire::BytesView message,
                               wire::BytesView signature) {
    wire::Encoder prefix;
    prefix.u32(signer);
    prefix.u64(message.size());
    crypto::Sha256 h;
    h.update(prefix.view());
    h.update(message);
    h.update(signature);
    const Digest key = h.finish();
    {
      std::lock_guard lock(mutex_);
      if (verified_.contains(key)) return Verdict::kCached;
    }
    // The real check runs outside the mutex: it is the slow part, and
    // observer threads must not wait on it.
    if (!verifier.verify(signer, message, signature)) {
      return Verdict::kRejected;
    }
    std::lock_guard lock(mutex_);
    if (verified_.size() >= kMaxVerified) verified_.clear();
    verified_.insert(key);
    return Verdict::kVerified;
  }

private:
  static constexpr std::size_t kMaxVerified = std::size_t{1} << 16;

  mutable std::mutex mutex_;
  std::map<Digest, std::shared_ptr<const wire::Bytes>> bodies_;
  std::set<Digest> verified_;
  std::uint64_t total_bytes_ = 0;
  Fallback fallback_;
};

}  // namespace bla::store
