#pragma once
// Ed25519 signatures (RFC 8032), implemented from scratch with the
// methods of Bernstein et al., "High-speed high-security signatures"
// (CHES 2011):
//  * field arithmetic mod p = 2^255 - 19 (five 51-bit limbs, __int128
//    products, dedicated squaring, addition-chain inversion)
//  * twisted Edwards group in extended / completed coordinates with a
//    dedicated doubling
//  * sign and keygen: [a]B from a table of multiples of B, built once on
//    first use, read with a masked scan of every entry
//  * verify: [S]B - [k]A in one Straus pass over sliding-window (NAF)
//    digits — variable time, its inputs are public
//  * scalars mod the group order L with Barrett reduction
//
// Verification is cofactorless, with verdicts pinned by the crafted-input
// table in tests/crypto_ed25519_test.cpp: S >= L is rejected, A decodes with y reduced mod p, an A
// encoding x = 0 with the sign bit set is rejected, and a signature is
// accepted iff the canonical encoding of [S]B - [k]A equals R's 32 bytes.
//
// Scope note: this is research-grade crypto for the SbS protocols (§8 of
// the paper). It is *correct* (validated against the RFC 8032 test vectors
// and known answers from an independent implementation in
// tests/crypto_ed25519_test.cpp). The secret-dependent steps of signing
// (table reads, mod-L corrections) use masks rather than branches or
// secret indices, but nothing here is audited for timing side channels;
// do not reuse it where they matter.

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "wire/wire.hpp"

namespace bla::crypto::ed25519 {

inline constexpr std::size_t kSeedSize = 32;
inline constexpr std::size_t kPublicKeySize = 32;
inline constexpr std::size_t kSignatureSize = 64;

using Seed = std::array<std::uint8_t, kSeedSize>;
using PublicKey = std::array<std::uint8_t, kPublicKeySize>;
using Signature = std::array<std::uint8_t, kSignatureSize>;

struct Keypair {
  Seed seed{};
  PublicKey public_key{};
};

/// Derives the public key for a 32-byte seed (RFC 8032 §5.1.5).
[[nodiscard]] Keypair keypair_from_seed(const Seed& seed);

/// Deterministic keypair for tests/simulations (seed = SHA-256(label)).
[[nodiscard]] Keypair keypair_from_label(std::uint64_t label);

/// Signs `message` (RFC 8032 §5.1.6).
[[nodiscard]] Signature sign(const Keypair& kp,
                             std::span<const std::uint8_t> message);

/// Verifies; returns false on any malformed input (bad point encoding,
/// non-canonical scalar, wrong curve) rather than throwing — Byzantine
/// peers feed this function arbitrary bytes.
[[nodiscard]] bool verify(const PublicKey& pub,
                          std::span<const std::uint8_t> message,
                          const Signature& sig);

}  // namespace bla::crypto::ed25519
