#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/sha256_blocks.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace bla::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

// Intel SHA extensions (Gulley et al., "Intel SHA Extensions", 2013).
// sha256rnds2 runs two rounds on the working variables packed as ABEF and
// CDGH; sha256msg1/msg2 compute the message schedule four words at a time.
// The target attribute keeps the build flags generic: this function is
// only ever called after CPUID reports the extension.
__attribute__((target("sha,sse4.1"))) void blocks_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  // Byte-swaps each 32-bit word: message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());

  // state[0..3] = a b c d and state[4..7] = e f g h, to ABEF and CDGH.
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[i % 4] holds schedule words 4i..4i+3.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      const __m128i wk = _mm_add_epi32(w[i & 3], _mm_load_si128(k + i));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (i < 12) {
        // Words 4(i+4).. from W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
        const __m128i s0 = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
        const __m128i t7 = _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4);
        w[i & 3] =
            _mm_sha256msg2_epu32(_mm_add_epi32(s0, t7), w[(i + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF and CDGH back to a b c d and e f g h.
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

#endif  // __x86_64__

// Chosen once, on first use, so hashing from a static initializer works.
detail::Sha256Blocks blocks_for_this_cpu() {
  static const detail::Sha256Blocks chosen = [] {
    const detail::Sha256Blocks hw = detail::sha256_blocks_hw();
    return hw != nullptr ? hw : &detail::sha256_blocks_portable;
  }();
  return chosen;
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Blocks sha256_blocks_hw() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // may run before the runtime's own CPUID probe
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &blocks_shani;
  }
#endif
  return nullptr;
}

}  // namespace detail

std::string_view sha256_kernel() {
  return blocks_for_this_cpu() == &detail::sha256_blocks_portable ? "portable"
                                                                   : "sha-ni";
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;  // memcpy(_, nullptr, 0) is UB
  total_len_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    left -= take;
    if (buffer_len_ < 64) return;
    blocks_for_this_cpu()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (const std::size_t whole = left / 64; whole > 0) {
    blocks_for_this_cpu()(state_.data(), in, whole);
    in += 64 * whole;
    left -= 64 * whole;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffer_len_ = left;
  }
}

Sha256::Digest Sha256::finish() {
  // Padding: 0x80, zeros up to 56 mod 64 (spilling into one extra block
  // when fewer than 9 bytes are left), then the big-endian bit length.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? 64 : 128;
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks_for_this_cpu()(state_.data(), tail.data(), tail_len / 64);

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

wire::Bytes to_bytes(const Sha256::Digest& d) {
  return wire::Bytes(d.begin(), d.end());
}

}  // namespace bla::crypto
