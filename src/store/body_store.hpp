#pragma once
// Content-addressed body store — the shared backing for digest-only
// dissemination.
//
// A lattice value is a SignedCommandBatch of up to 64KB, and agreement
// state is cumulative: Bracha replicates whole frames n² times per
// ECHO/READY round, GWTS acks carry the whole accepted set, GSbS safe-acks
// echo every received signed batch. Every replica stores each body exactly
// once, keyed by SHA-256 of its bytes; protocol layers ship 32-byte
// digests and pull missing bodies on demand (store/fetch.hpp).
//
// Hash once: the store also remembers each held body's digest in a
// content index (bytes -> digest), so every later question "what is the
// digest of these bytes" — commit evidence over cumulative sets, decide
// notifications, lifecycle marks, checkpoint leaves — is a lookup, not a
// SHA-256 pass (digest()). Only first sight of a body (put) and untrusted
// input checks hash bytes.
//
// The store is shared across layers of one process: Bracha parks whole
// RBC payload bodies here (ECHO/READY carry payload digests), the engines
// park lattice-value bodies (ack/safe-ack/certificate references), and
// every signature check (BatchVerifier, the GSbS engine) goes through the
// store's verify-once memo, so a signature is checked exactly once per
// replica no matter which layer saw it first. A mutex makes it safe to
// share across the replica's handler thread and observer threads.
//
// GC: the checkpoint subsystem (src/checkpoint/) evicts bodies covered
// by a committed checkpoint via erase() and installs a Fallback with
// set_fallback() that re-serves their bodies and digests from the
// snapshot, so the live map stays bounded while every reference (and
// every digest question) still resolves without rehashing.

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
  /// digest; a body already held is answered from the content index
  /// without hashing. Oversized bodies are the *caller's* problem: each
  /// protocol layer enforces its own cap before putting
  /// (lattice::kMaxValueBytes for values, rbc::kMaxPayloadBytes for RBC
  /// payloads).
  Digest put(wire::BytesView body) {
    {
      std::lock_guard lock(mutex_);
      const auto it = digests_.find(body);
      if (it != digests_.end()) return it->second;
    }
    const Digest d = body_digest(body);
    std::lock_guard lock(mutex_);
    auto [it, inserted] = bodies_.try_emplace(d, nullptr);
    if (inserted) hold(it, wire::Bytes(body.begin(), body.end()));
    return d;
  }

  /// Stores `body` under `digest` without rehashing — only for callers
  /// that just computed or verified the digest themselves (the fetcher
  /// checks every pulled body against its requested digest).
  void put_trusted(const Digest& digest, wire::Bytes body) {
    std::lock_guard lock(mutex_);
    auto [it, inserted] = bodies_.try_emplace(digest, nullptr);
    if (inserted) hold(it, std::move(body));
  }

  /// SHA-256 of `body`, hashed at most once per replica: answered from
  /// the content index when the store holds the body, else from the
  /// fallback (a checkpoint snapshot's leaf digests), else computed.
  /// A computed digest is not inserted — the bytes may be anyone's.
  [[nodiscard]] Digest digest(wire::BytesView body) const {
    const Fallback* fallback = nullptr;
    {
      std::lock_guard lock(mutex_);
      const auto it = digests_.find(body);
      if (it != digests_.end()) return it->second;
      fallback = fallback_;
    }
    if (fallback) {
      if (const auto d = fallback->digest(body)) return *d;
    }
    return body_digest(body);
  }

  /// Shared handle, not a copy: bodies run to 64KB (values) / 16MB (RBC
  /// payloads) and the hot paths — resolving a cumulative ack's k
  /// references, serving fetches — only read.
  [[nodiscard]] std::shared_ptr<const wire::Bytes> get(const Digest& d) const {
    const Fallback* fallback = nullptr;
    {
      std::lock_guard lock(mutex_);
      auto it = bodies_.find(d);
      if (it != bodies_.end()) return it->second;
      fallback = fallback_;
    }
    // Consulted outside the mutex: the fallback (a checkpoint snapshot
    // lookup) takes its own locks and must not nest under ours.
    return fallback ? fallback->body(d) : nullptr;
  }

  [[nodiscard]] bool contains(const Digest& d) const {
    return get(d) != nullptr;
  }

  /// Evicts one body (checkpoint GC). Returns true when it was present.
  bool erase(const Digest& d) {
    std::lock_guard lock(mutex_);
    auto it = bodies_.find(d);
    if (it == bodies_.end()) return false;
    // The index key views the body's bytes: drop it before the body.
    const auto key = digests_.find(wire::BytesView(*it->second));
    if (key != digests_.end() && key->second == d) digests_.erase(key);
    total_bytes_ -= it->second->size();
    bodies_.erase(it);
    return true;
  }

  /// Miss handler consulted by get()/contains()/digest() when the live
  /// map lacks a body — the checkpoint snapshot re-serve hook. One per
  /// store (last writer wins); the owner installs itself and uninstalls
  /// (nullptr) before it is destroyed.
  class Fallback {
  public:
    [[nodiscard]] virtual std::shared_ptr<const wire::Bytes> body(
        const Digest& d) const = 0;
    [[nodiscard]] virtual std::optional<Digest> digest(
        wire::BytesView body) const = 0;

  protected:
    ~Fallback() = default;
  };
  void set_fallback(const Fallback* fallback) {
    std::lock_guard lock(mutex_);
    fallback_ = fallback;
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

  using Bodies = std::map<Digest, std::shared_ptr<const wire::Bytes>>;

  /// Content order: size first, then bytes. Byzantine bodies cannot
  /// degrade a comparison tree the way they could collide a hash table.
  struct ContentLess {
    bool operator()(wire::BytesView a, wire::BytesView b) const {
      if (a.size() != b.size()) return a.size() < b.size();
      return !a.empty() && std::memcmp(a.data(), b.data(), a.size()) < 0;
    }
  };

  /// Takes ownership of a newly inserted body and indexes its content.
  void hold(Bodies::iterator it, wire::Bytes body) {
    it->second = std::make_shared<const wire::Bytes>(std::move(body));
    total_bytes_ += it->second->size();
    digests_.emplace(wire::BytesView(*it->second), it->first);
  }

  mutable std::mutex mutex_;
  Bodies bodies_;
  /// Content index over bodies_: keys view the held bodies' bytes.
  std::map<wire::BytesView, Digest, ContentLess> digests_;
  std::set<Digest> verified_;
  std::uint64_t total_bytes_ = 0;
  const Fallback* fallback_ = nullptr;
};

}  // namespace bla::store
