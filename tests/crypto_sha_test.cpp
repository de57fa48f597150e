// SHA-256 / SHA-512 / HMAC-SHA-256 against published test vectors
// (FIPS 180-4 examples, RFC 4231), and each SHA-256 compression kernel
// (portable, SHA-NI) against the vectors and against the other.

#include <gtest/gtest.h>

#include <random>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_blocks.hpp"
#include "crypto/sha512.hpp"
#include "wire/wire.hpp"

namespace bla::crypto {
namespace {

std::string hex256(const Sha256::Digest& d) {
  return wire::to_hex(std::span(d.data(), d.size()));
}
std::string hex512(const Sha512::Digest& d) {
  return wire::to_hex(std::span(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex256(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex256(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex256(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex256(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// n 'a' bytes at every length where the padding changes shape: 55 leaves
// room for 0x80 and the length in one block, 56 and 63 spill into a second
// block, 64/119/120 repeat the cases one block later. Expected values from
// Python's hashlib.sha256(b"a" * n).
constexpr std::pair<std::size_t, const char*> kPaddingCases[] = {
    {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
    {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
    {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
    {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
    {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
    {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
};

TEST(Sha256, PaddingBoundaries) {
  for (const auto& [n, expected] : kPaddingCases) {
    EXPECT_EQ(hex256(Sha256::hash(std::string(n, 'a'))), expected)
        << "n=" << n;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  // Split points hit every buffer-boundary case.
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "several 64-byte block boundaries in this message.";
  const auto oneshot = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), oneshot) << "split=" << split;
  }
}

TEST(Sha256, ReusableAfterFinish) {
  Sha256 h;
  h.update("abc");
  (void)h.finish();
  h.update("abc");
  EXPECT_EQ(hex256(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- Each compression kernel on its own -----------------------------------

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// SHA-256 of `msg` through one block kernel. The FIPS 180-4 padding is
// written out here, apart from Sha256::finish, so a kernel is checked
// without the streaming code that normally feeds it.
Sha256::Digest digest_with(detail::Sha256Blocks blocks,
                           std::span<const std::uint8_t> msg) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  wire::Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  blocks(state, padded.data(), padded.size() / 64);
  Sha256::Digest out{};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

// HMAC-SHA-256 (RFC 2104) over digest_with, for keys of at most 64 bytes.
Sha256::Digest hmac_with(detail::Sha256Blocks blocks,
                         std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> msg) {
  wire::Bytes inner(64, 0x36);
  wire::Bytes outer(64, 0x5c);
  for (std::size_t i = 0; i < key.size(); ++i) {
    inner[i] ^= key[i];
    outer[i] ^= key[i];
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Sha256::Digest inner_digest = digest_with(blocks, inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return digest_with(blocks, outer);
}

wire::Bytes random_bytes(std::size_t n, std::mt19937_64& rng) {
  wire::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

enum class Kernel { kPortable, kShaNi };

// The hardware kernel, or a skip naming the missing CPU feature.
class Sha256KernelTest : public ::testing::TestWithParam<Kernel> {
protected:
  void SetUp() override {
    if (GetParam() == Kernel::kPortable) {
      blocks_ = &detail::sha256_blocks_portable;
      return;
    }
    blocks_ = detail::sha256_blocks_hw();
    if (blocks_ == nullptr) {
      GTEST_SKIP() << "this CPU lacks the x86-64 SHA extensions (sha_ni)";
    }
  }

  [[nodiscard]] std::string hash(std::string_view msg) const {
    return hex256(digest_with(blocks_, bytes_of(msg)));
  }

  detail::Sha256Blocks blocks_ = nullptr;
};

TEST_P(Sha256KernelTest, FipsExamples) {
  EXPECT_EQ(hash(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hash("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256KernelTest, PaddingBoundaries) {
  for (const auto& [n, expected] : kPaddingCases) {
    EXPECT_EQ(hash(std::string(n, 'a')), expected) << "n=" << n;
  }
}

TEST_P(Sha256KernelTest, MillionAs) {
  EXPECT_EQ(hash(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, HmacRfc4231) {
  const auto hex_hmac = [&](const wire::Bytes& key, const wire::Bytes& msg) {
    return hex256(hmac_with(blocks_, key, msg));
  };
  const auto b = [](std::string_view s) {
    return wire::Bytes(s.begin(), s.end());
  };
  EXPECT_EQ(hex_hmac(wire::Bytes(20, 0x0b), b("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(hex_hmac(b("Jefe"), b("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(hex_hmac(wire::Bytes(20, 0xaa), wire::Bytes(50, 0xdd)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  // Case 6: the 131-byte key is hashed to 32 bytes first.
  const auto key6 = digest_with(blocks_, wire::Bytes(131, 0xaa));
  EXPECT_EQ(hex256(hmac_with(
                blocks_, key6,
                bytes_of("Test Using Larger Than Block-Size Key - Hash Key "
                         "First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256KernelTest,
    ::testing::Values(Kernel::kPortable, Kernel::kShaNi),
    [](const ::testing::TestParamInfo<Kernel>& info) {
      return info.param == Kernel::kPortable ? "portable" : "sha_ni";
    });

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomInputUpTo1024Bytes) {
  const detail::Sha256Blocks hw = detail::sha256_blocks_hw();
  if (hw == nullptr) {
    GTEST_SKIP() << "this CPU lacks the x86-64 SHA extensions (sha_ni)";
  }
  std::mt19937_64 rng(26);
  for (std::size_t n = 0; n <= 1024; ++n) {
    const wire::Bytes msg = random_bytes(n, rng);
    EXPECT_EQ(digest_with(hw, msg),
              digest_with(&detail::sha256_blocks_portable, msg))
        << "n=" << n;
  }
}

// Sha256 itself, on whichever kernel this process picked, against the
// portable reference: one update of every length up to 1 024 bytes, then
// two updates split at every offset around the block boundaries.
TEST(Sha256Dispatch, OneUpdateMatchesPortableUpTo1024Bytes) {
  std::mt19937_64 rng(27);
  for (std::size_t n = 0; n <= 1024; ++n) {
    const wire::Bytes msg = random_bytes(n, rng);
    EXPECT_EQ(Sha256::hash(msg),
              digest_with(&detail::sha256_blocks_portable, msg))
        << "n=" << n;
  }
}

TEST(Sha256Dispatch, SplitUpdatesMatchPortableAtEveryOffset) {
  std::mt19937_64 rng(28);
  for (const std::size_t n : {0, 1, 63, 64, 65, 127, 128, 129, 1000}) {
    const wire::Bytes msg = random_bytes(n, rng);
    const auto expected = digest_with(&detail::sha256_blocks_portable, msg);
    const std::span<const std::uint8_t> all(msg);
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h;
      h.update(all.first(split));
      h.update(all.subspan(split));
      EXPECT_EQ(h.finish(), expected) << "n=" << n << " split=" << split;
    }
  }
}

TEST(Sha256Dispatch, ReportsTheKernelItRuns) {
  EXPECT_EQ(sha256_kernel(),
            detail::sha256_blocks_hw() != nullptr ? "sha-ni" : "portable");
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(hex512(Sha512::hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(hex512(Sha512::hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      hex512(Sha512::hash(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, PaddingBoundaries) {
  // As Sha256.PaddingBoundaries, for 128-byte blocks and a 16-byte length:
  // 111 fits in one block, 112 and 127 spill into a second, 128/239/240
  // repeat the cases one block later. Expected values from Python's
  // hashlib.sha512(b"a" * n).
  const std::pair<std::size_t, const char*> cases[] = {
      {111,
       "fa9121c7b32b9e01733d034cfc78cbf67f926c7ed83e82200ef8681819692176"
       "0b4beff48404df811b953828274461673c68d04e297b0eb7b2b4d60fc6b566a2"},
      {112,
       "c01d080efd492776a1c43bd23dd99d0a2e626d481e16782e75d54c2503b5dc32"
       "bd05f0f1ba33e568b88fd2d970929b719ecbb152f58f130a407c8830604b70ca"},
      {127,
       "828613968b501dc00a97e08c73b118aa8876c26b8aac93df128502ab360f91ba"
       "b50a51e088769a5c1eff4782ace147dce3642554199876374291f5d921629502"},
      {128,
       "b73d1929aa615934e61a871596b3f3b33359f42b8175602e89f7e06e5f658a24"
       "3667807ed300314b95cacdd579f3e33abdfbe351909519a846d465c59582f321"},
      {239,
       "52c853cb8d907f3d4d6b889beb027985d7c273486d75f8baf26f80d24e90c74c"
       "6c3de3e22131582380a7d14d43f2941a31385439cd6ddc469f628015e50bf286"},
      {240,
       "4c296d90c61052a62ffb1dd196f1b7b09373b1f93e71836baebf89690546b759"
       "5684dbe9467a8e484fa0d1094272b4344a7c24f5fee8daedeb0bf549c985ab5f"},
  };
  for (const auto& [n, expected] : cases) {
    EXPECT_EQ(hex512(Sha512::hash(std::string(n, 'a'))), expected)
        << "n=" << n;
  }
}

TEST(Sha512, IncrementalMatchesOneShot) {
  const std::string msg(333, 'x');
  const auto oneshot = Sha512::hash(msg);
  for (std::size_t split : {0u, 1u, 111u, 127u, 128u, 129u, 333u}) {
    Sha512 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), oneshot) << "split=" << split;
  }
}

// RFC 4231 HMAC-SHA-256 vectors.

TEST(HmacSha256, Rfc4231Case1) {
  const wire::Bytes key(20, 0x0b);
  const std::string data = "Hi There";
  const Mac mac = hmac_sha256(
      key, std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                     data.size()));
  EXPECT_EQ(wire::to_hex(std::span(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const Mac mac = hmac_sha256(
      std::span(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size()));
  EXPECT_EQ(wire::to_hex(std::span(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const wire::Bytes key(20, 0xaa);
  const wire::Bytes data(50, 0xdd);
  const Mac mac = hmac_sha256(key, data);
  EXPECT_EQ(wire::to_hex(std::span(mac.data(), mac.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const wire::Bytes key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Mac mac = hmac_sha256(
      key, std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                     data.size()));
  EXPECT_EQ(wire::to_hex(std::span(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, MacEqualIsExact) {
  Mac a{};
  Mac b{};
  EXPECT_TRUE(mac_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(mac_equal(a, b));
  b[31] ^= 1;
  b[0] ^= 0x80;
  EXPECT_FALSE(mac_equal(a, b));
}

TEST(HmacSha256, KeySeparation) {
  const std::string data = "same message";
  const auto bytes = std::span(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  const wire::Bytes k1{1, 2, 3};
  const wire::Bytes k2{1, 2, 4};
  EXPECT_FALSE(mac_equal(hmac_sha256(k1, bytes), hmac_sha256(k2, bytes)));
}

}  // namespace
}  // namespace bla::crypto
