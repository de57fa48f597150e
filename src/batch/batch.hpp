#pragma once
// Batched proposal pipeline, layer 1: the SignedCommandBatch container.
//
// Driving the agreement engines one RSM command per proposal means every
// command pays a full disclosure + quorum round of reliable broadcast and
// its own signature work. A SignedCommandBatch amortizes both: a proposer
// packs up to kMaxBatchCommands encoded commands into one frame, signs the
// batch *digest* once, and the whole signed frame travels through the
// engines as a single lattice value. Verification is one signature check
// per batch instead of one per command, and the body store's verify-once
// memo (verifier.hpp) keys on the digest, so re-presentations of the same
// batch — client retransmits, values echoed across refinement rounds —
// are never re-verified.
//
// Layering: this directory sits below src/rsm/ (it treats commands as
// opaque encoded values); src/rsm/ owns command admissibility and batch
// expansion at execute() time.

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/sha256.hpp"
#include "lattice/value.hpp"
#include "wire/wire.hpp"

namespace bla::batch {

using lattice::Value;
using NodeId = std::uint32_t;

/// First byte of every batch frame. Distinct from the RSM command magic
/// (0xC3), so a batch can never be mistaken for a single command and a
/// command can never be mistaken for a batch.
inline constexpr std::uint8_t kBatchMagic = 0xB7;

/// Hard caps enforced during decoding, before allocation, so Byzantine
/// frames cannot exhaust memory (same discipline as src/wire).
inline constexpr std::size_t kMaxBatchCommands = 1024;
inline constexpr std::size_t kMaxBatchBytes = 56 * 1024;
inline constexpr std::size_t kMaxSignatureBytes = 128;

// Worst-case framing overhead on top of the command payload bytes:
// header (magic + proposer + seq + count varint ≈ 16B), one ≤3-byte
// length varint per command (≤ kMaxBatchCommands of them), and the
// signature with its prefix (≤ kMaxSignatureBytes + 2).
inline constexpr std::size_t kMaxFramingOverhead =
    16 + 3 * kMaxBatchCommands + kMaxSignatureBytes + 2;

static_assert(kMaxBatchBytes + kMaxFramingOverhead <= lattice::kMaxValueBytes,
              "a maximal signed batch must still fit in one lattice value");

struct SignedCommandBatch {
  NodeId proposer = 0;          // node that built and signed the batch
  std::uint64_t seq = 0;        // proposer-local batch number
  std::vector<Value> commands;  // encoded RSM commands (opaque here)
  wire::Bytes signature;        // proposer's signature over digest()
};

/// The structural admissibility rules, shared by the wire decoder and
/// BatchVerifier so the two can never drift: non-empty command list
/// within the count/byte caps, no empty or batch-magic (nested)
/// commands, signature within its cap.
[[nodiscard]] bool structurally_valid(const SignedCommandBatch& b);

/// Canonical unsigned encoding — the bytes the digest covers.
[[nodiscard]] wire::Bytes batch_body(const SignedCommandBatch& b);

/// SHA-256 over a domain separator plus the body. This is what the
/// proposer signs, so also what the verify-once memo keys on.
[[nodiscard]] crypto::Sha256::Digest batch_digest(const SignedCommandBatch& b);

/// Wire codec. decode throws wire::WireError on any malformed input:
/// wrong magic, command count/byte caps exceeded, nested batch frames,
/// empty commands, oversized signature, truncation.
void encode_signed_batch(wire::Encoder& enc, const SignedCommandBatch& b);
[[nodiscard]] SignedCommandBatch decode_signed_batch(wire::Decoder& dec);

/// A batch as a single lattice value: the full signed frame (body +
/// signature). Carrying the signature inside the value means any process
/// that encounters the batch later — in a disclosure, a decide set, a
/// read — can verify provenance without a side channel.
[[nodiscard]] Value batch_value(const SignedCommandBatch& b);

[[nodiscard]] inline bool is_batch_value(const Value& v) {
  return !v.empty() && v[0] == kBatchMagic;
}

/// Structural decode of a batch-shaped lattice value; nullopt when the
/// value is not a well-formed batch frame (the Lemma 12 filter's batch
/// analogue — malformed values are simply not expandable).
[[nodiscard]] std::optional<SignedCommandBatch> decode_batch_value(
    const Value& v);

}  // namespace bla::batch
