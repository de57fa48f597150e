#include "checkpoint/accumulator.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "wire/wire.hpp"

namespace bla::checkpoint {

namespace {

Hash parent_hash(const Hash& left, const Hash& right) {
  std::uint8_t buf[64];
  std::copy(left.begin(), left.end(), buf);
  std::copy(right.begin(), right.end(), buf + 32);
  return crypto::Sha256::hash(std::span<const std::uint8_t>(buf, 64));
}

/// Root of a perfect tree (leaves.size() is a power of two).
Hash tree_root(std::span<const Hash> leaves) {
  std::vector<Hash> level(leaves.begin(), leaves.end());
  for (std::size_t width = level.size(); width > 1; width /= 2) {
    for (std::size_t i = 0; i < width / 2; ++i) {
      level[i] = parent_hash(level[2 * i], level[2 * i + 1]);
    }
  }
  return level[0];
}

}  // namespace

Hash commitment(std::span<const Hash> leaves) {
  const std::uint64_t n = leaves.size();
  wire::Encoder enc;
  enc.uvarint(n);
  std::uint64_t start = 0;
  for (int b = 63; b >= 0; --b) {
    const std::uint64_t size = std::uint64_t{1} << b;
    if ((n & size) == 0) continue;
    const Hash root = tree_root(leaves.subspan(start, size));
    enc.raw(std::span(root.data(), root.size()));
    start += size;
  }
  return crypto::Sha256::hash(std::span(enc.view()));
}

}  // namespace bla::checkpoint
