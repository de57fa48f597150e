#pragma once
// The checkpoint state commitment.
//
// A checkpoint commits a whole decided set, never a change to one: GLA
// Comparability makes the decided sets of correct replicas a chain, so
// replicas that reach the same set hash the same canonically sorted
// element digests and derive a bit-identical root, whatever
// intermediate decisions each observed. A laggard pulling a snapshot
// gets every element, hashes each one itself, and accepts the snapshot
// only when those leaves re-derive the exact root its peers referenced.
//
// Formula (it travels in compact sets and snapshot replies, so it must
// not drift; tests/accumulator_test.cpp pins known answers):
//
//   commitment = SHA-256(uvarint(n) ‖ root_1 ‖ … ‖ root_k)
//
// where the n leaves are split, in order, into perfect binary Merkle
// trees, one per set bit of n, largest first, and root_i is the root of
// the i-th tree (a parent is SHA-256(left ‖ right)). The tree shape
// leaves room for incremental updates and membership proofs should a
// durable log ever need them; the full-set check needs neither.

#include <span>

#include "crypto/sha256.hpp"

namespace bla::checkpoint {

using Hash = crypto::Sha256::Digest;

/// The commitment over `leaves`, in the order given.
[[nodiscard]] Hash commitment(std::span<const Hash> leaves);

}  // namespace bla::checkpoint
