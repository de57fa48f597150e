#pragma once
// Digest-reference transport codec: ship 32-byte references instead of
// multi-KB value bodies, inside the existing length-prefixed value
// framing.
//
// A transport value is still one wire `bytes()` string, so every legacy
// encoder/decoder (WTS, SbS, the adversaries) interoperates untouched.
// The first payload byte disambiguates:
//
//   [kRefMagic][32-byte digest]   (exactly 33 bytes)  — reference; the
//       body lives in the receiver's BodyStore or is pulled on demand
//   [kEscapeMagic][original...]                       — escaped inline
//       value whose own first byte collided with a magic
//   anything else                                     — plain inline value
//
// Collisions are theoretical: every value class in the system already
// carries a leading magic (RSM commands 0xC3, batches 0xB7, test strings
// ASCII), none of which is 0xD0/0xD1 — the escape exists so the codec
// stays correct for arbitrary opaque bytes, not because honest traffic
// hits it.
//
// Encoding is deterministic (content + flag decide the spelling). Signing
// bytes are NEVER ref-encoded: client batch signatures cover the inline
// encoding, and GSbS signatures and commit digests cover hashes of
// element digests (core::content_key), so a reference is pure transport
// and carries no trust.

#include <cstdint>
#include <vector>

#include "lattice/value.hpp"
#include "store/body_store.hpp"
#include "wire/wire.hpp"

namespace bla::store {

inline constexpr std::uint8_t kRefMagic = 0xD1;
inline constexpr std::uint8_t kEscapeMagic = 0xD0;

/// Bodies at or above this size travel as references; smaller ones stay
/// inline (a ref costs 33 bytes plus a possible fetch round-trip, so
/// tiny values are cheaper shipped directly).
inline constexpr std::size_t kInlineThresholdBytes = 128;

/// Encodes one value, as a reference when `refs` is set and the value is
/// large enough. Referenced bodies are put into `store` so this process
/// can serve the pulls its references provoke (`store` may be null only
/// when `refs` is false).
void encode_value_ref(wire::Encoder& enc, const lattice::Value& v,
                      BodyStore* store, bool refs);

/// Canonical-order set encoding with per-value ref encoding. Same outer
/// framing as lattice::encode_value_set (count + values, sorted).
void encode_value_set_ref(wire::Encoder& enc, const lattice::ValueSet& s,
                          BodyStore* store, bool refs);

/// Decoding context for one frame. Resolves references against the local
/// store; unresolvable digests are collected in missing() and the decoded
/// structure is a placeholder the caller must discard — park the frame
/// via BodyFetcher::await and re-decode once the bodies arrive.
/// Large *inline* values are absorbed into the store as a side effect,
/// which is how disclosure/init bodies become servable to peers' pulls.
class RefResolver {
public:
  explicit RefResolver(BodyStore* store) : store_(store) {}

  [[nodiscard]] lattice::Value value(wire::Decoder& dec);
  [[nodiscard]] lattice::ValueSet value_set(wire::Decoder& dec);

  [[nodiscard]] bool complete() const { return missing_.empty(); }
  [[nodiscard]] const std::vector<Digest>& missing() const {
    return missing_;
  }

private:
  BodyStore* store_;
  std::vector<Digest> missing_;
};

}  // namespace bla::store
