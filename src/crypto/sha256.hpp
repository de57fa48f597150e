#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch and validated against the
// NIST test vectors in tests/crypto_sha_test.cpp. The compression step runs
// on the CPU's SHA extensions where it has them (sha256_blocks.hpp).

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "wire/wire.hpp"

namespace bla::crypto {

class Sha256 {
public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s) {
    update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size()));
  }
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }
  [[nodiscard]] static Digest hash(std::string_view s) {
    Sha256 h;
    h.update(s);
    return h.finish();
  }

private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

[[nodiscard]] wire::Bytes to_bytes(const Sha256::Digest& d);

/// The compression kernel this process runs: "sha-ni" or "portable".
[[nodiscard]] std::string_view sha256_kernel();

}  // namespace bla::crypto
