#pragma once
// The SHA-256 compression step behind crypto::Sha256, one implementation
// per instruction set. Sha256 picks one per process from CPUID; the names
// here exist so tests can run every implementation against the others.

#include <cstddef>
#include <cstdint>

namespace bla::crypto::detail {

/// Runs the compression function over `count` consecutive 64-byte blocks,
/// updating the eight working words in `state` (FIPS 180-4 §6.2.2).
using Sha256Blocks = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t count);

/// Plain C++ rounds: the reference, and the path on every other CPU.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count);

/// The x86-64 SHA extensions kernel (SHA-NI), or nullptr when this CPU or
/// build target lacks it.
[[nodiscard]] Sha256Blocks sha256_blocks_hw();

}  // namespace bla::crypto::detail
