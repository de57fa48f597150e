// Known-answer tests for the checkpoint commitment. Roots travel in
// compact sets and snapshot replies, so the formula — SHA-256 over
// uvarint(n) and the perfect-tree roots, largest tree first — must not
// drift. Rejection of tampered snapshots is tested where it runs, in
// CheckpointManager (tests/checkpoint_test.cpp).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checkpoint/accumulator.hpp"
#include "wire/wire.hpp"

namespace bla {
namespace {

using checkpoint::Hash;

Hash leaf(std::uint64_t id) {
  wire::Encoder enc;
  enc.str("accumulator-test-leaf");
  enc.u64(id);
  const wire::Bytes bytes = enc.take();
  return crypto::Sha256::hash(std::span(bytes.data(), bytes.size()));
}

std::vector<Hash> leaves(std::uint64_t count) {
  std::vector<Hash> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(leaf(i));
  return out;
}

std::string hex(const Hash& h) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : h) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

TEST(Commitment, KnownAnswers) {
  const std::vector<std::pair<std::uint64_t, const char*>> answers = {
      {0, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
      {1, "ff789aa4a0e9427a9e963cc50459bdf45fcc9104130db165f067c2d403b0e2c3"},
      {2, "1ca6e169dc0a8ae605d8d01a34fc3c277ef59db379c04b105e731697210d0c43"},
      {3, "146a120b64d54c14004e0a7a4bb0e30e37b9f3c05fc5409c04c2b2de39a50efa"},
      {7, "ad9b2176b15df52342842ed26e6cf2736ae92f6fbb06acc5bf06d09a13388efe"},
      {8, "7998664048c794baa535a57c3d5f3dea9852d67c3e350880aebe3a4111a29104"},
      {33, "918942858ca26d1aabcad39205361cab05113c29f8de243426647be92f534681"},
  };
  for (const auto& [n, expected] : answers) {
    EXPECT_EQ(hex(checkpoint::commitment(leaves(n))), expected) << "n=" << n;
  }
}

}  // namespace
}  // namespace bla
