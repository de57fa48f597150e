#pragma once
// RSM replica (§7.2): an agreement-engine proposer+acceptor plus
//  * the client-facing new_value entry point (Alg. 5 line 3) — one
//    command at a time (kRsmNewValue) or an entire signed batch
//    (kRsmNewBatch, see src/batch/),
//  * decide notifications pushed to clients (Alg. 5 line 5),
//  * the confirmation plug-in (Alg. 7) that lets clients distinguish
//    genuine decision values from values fabricated by Byzantine replicas.
//
// The engine is pluggable (core::IAgreementEngine): GWTS reproduces the
// paper's §7 construction; GSbS swaps in the signature-based engine for
// deployments that trade CPU for O(f·n) messages.
//
// Node layout convention: replicas occupy ids [0, n); every id ≥ n is a
// client. Replicas learn nothing from clients beyond commands, and trust
// none of it (Lemma 12: Byzantine clients are harmless).

#include <cstdint>
#include <memory>
#include <vector>

#include "batch/verifier.hpp"
#include "core/engine.hpp"
#include "rsm/command.hpp"

namespace bla::rsm {

/// The backing engine's config (n = replica count, n ≥ 3f+1; a null
/// registry becomes a private one, see obs::registry_or_private; pass a
/// shared registry to get the per-stage latency histograms) plus the
/// replica's own fields.
struct ReplicaConfig : core::EngineConfig {
  /// Which agreement engine backs the replica (default: the paper's GWTS).
  core::EngineKind engine = core::EngineKind::kGwts;
  /// Signing handle. Required for the GSbS engine; also enables the
  /// batched submission path (verifying client batch signatures). A
  /// GWTS replica without a signer still serves the per-command path.
  std::shared_ptr<const crypto::ISigner> signer;
  /// Push decide notifications as element digests (kRsmDecideDigest)
  /// instead of full value sets. Only for deployments whose clients all
  /// match digests (BatchClient does; the plain RsmClient needs values),
  /// hence opt-in rather than tied to digest_refs.
  bool digest_decide_notifications = false;
};

class RsmReplica : public net::IProcess {
public:
  explicit RsmReplica(ReplicaConfig config);

  void on_start(net::IContext& ctx) override;
  void on_message(net::IContext& ctx, NodeId from,
                  wire::BytesView payload) override;
  /// Recovery ticks belong to the engine; decisions made during a
  /// stall-recovery pass still notify clients (ctx_ is set around it).
  void on_timer(net::IContext& ctx, std::uint64_t token) override;

  [[nodiscard]] const core::IAgreementEngine& engine() const {
    return *engine_;
  }
  /// Current materialized state (set of non-nop commands decided so far,
  /// with decided batches expanded into their commands).
  [[nodiscard]] ValueSet state() const {
    return execute(engine_->decided_set());
  }

  /// Batched-path counters (bench/test observability; registry-backed).
  [[nodiscard]] std::uint64_t batches_admitted() const {
    return batches_admitted_;
  }
  [[nodiscard]] std::uint64_t batches_rejected() const {
    return batches_rejected_;
  }
  /// The replica's observability registry (the config's, or the private
  /// one created when none was passed).
  [[nodiscard]] const std::shared_ptr<obs::Registry>& registry() const {
    return config_.registry;
  }
  [[nodiscard]] const batch::BatchVerifier* batch_verifier() const {
    return verifier_ ? &*verifier_ : nullptr;
  }
  /// The replica-wide content-addressed body store (shared by the
  /// engine's dissemination layer and the batch verifier cache).
  [[nodiscard]] const store::BodyStore& body_store() const { return *store_; }

private:
  struct PendingConf {
    NodeId client;
    ValueSet set;
  };

  void on_new_batch(NodeId from, wire::Decoder& dec,
                    wire::BytesView frame);
  void on_decide(const core::Decision& decision);
  /// Encodes one decide notification (Alg. 5 line 5) for `set`, in the
  /// configured full-value or digest form.
  [[nodiscard]] wire::Bytes encode_decide_frame(const ValueSet& set) const;
  /// Answers `client`'s confirmation request (Alg. 7) when `set` is
  /// committed; false leaves it for the caller to park.
  bool confirm(NodeId client, const ValueSet& set);
  /// Re-tests parked confirmation requests when commit evidence grew.
  void drain_pending_confirmations();

  ReplicaConfig config_;  // registry always set: shared down to the engine
  std::shared_ptr<store::BodyStore> store_;
  std::unique_ptr<core::IAgreementEngine> engine_;
  std::optional<batch::BatchVerifier> verifier_;  // engaged iff signer set
  net::IContext* ctx_ = nullptr;
  std::vector<PendingConf> pending_confs_;
  std::size_t committed_seen_ = 0;  // committed_count() at the last drain
  obs::Counter batches_admitted_;
  obs::Counter batches_rejected_;
};

}  // namespace bla::rsm
