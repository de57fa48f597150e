#pragma once
// Cluster description file shared by replicad, loadgen, and the socket
// test harness — the one artifact every process of a real deployment
// agrees on. Plain line-oriented text so operators can write it by hand
// and the smoke script can generate it with a heredoc:
//
//     # comment
//     n 4
//     f 1
//     engine gwts            # gwts | gsbs
//     key_scheme hmac        # hmac | ed25519
//     key_seed 42
//     checkpoint_interval 16 # > 0; the default is 16
//     replica 0 127.0.0.1:9100
//     replica 1 127.0.0.1:9101
//     replica 2 127.0.0.1:9102
//     replica 3 127.0.0.1:9103
//
// Keys are not distributed through this file: every process derives the
// full deterministic signer set from (key_scheme, key_seed, n) via
// crypto::make_*_signer_set, exactly as the in-process runtimes do. A
// real deployment would replace key_seed with per-node key files; the
// derivation seam is the same.

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

namespace bla::net {

struct ClusterConfig {
  std::size_t n = 0;
  std::size_t f = 0;
  std::string engine = "gwts";      // gwts | gsbs
  std::string key_scheme = "hmac";  // hmac | ed25519
  std::uint64_t key_seed = 1;
  /// Decided elements between checkpoints. Never 0: checkpoints are what
  /// expire old Bracha instances, so a GWTS cluster without them hits
  /// the per-origin instance cap (rbc::kMaxInstancesPerOrigin, two
  /// instances per round) after 8 192 rounds and wedges.
  std::uint64_t checkpoint_interval = 16;
  /// Client ids [n, n + max_clients) are verifiable: replicas size their
  /// derived signer set to cover them (derivation is per-id, so sizing
  /// is a cap, not a key change). A client beyond the cap signs with a
  /// key no replica can check — its batches are rejected.
  std::size_t max_clients = 64;
  /// Listen address per replica id; size() == n after validation.
  std::vector<std::string> replicas;
};

/// Parses and validates a cluster config. Returns nullopt and fills
/// `error` (when non-null) on any malformed line, unknown key, missing
/// replica address, or inconsistent (n, f) — n >= 3f+1 is required.
[[nodiscard]] std::optional<ClusterConfig> parse_cluster_config(
    std::istream& in, std::string* error = nullptr);

/// File-loading convenience over the stream parser.
[[nodiscard]] std::optional<ClusterConfig> load_cluster_config(
    const std::string& path, std::string* error = nullptr);

}  // namespace bla::net
