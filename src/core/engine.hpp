#pragma once
// Pluggable generalized-agreement engine interface.
//
// GWTS (§6) and GSbS (§8.2) solve the same problem — Generalized
// Byzantine Lattice Agreement over a stream of submitted values — with
// different message/crypto trade-offs. Everything layered on top (the
// RSM replica, the batched proposal pipeline, benches) only needs the
// shared contract: submit values, observe a non-decreasing chain of
// decisions, and test whether a set is quorum-committed (the Alg. 7
// confirmation predicate). This interface lets those layers switch
// engines per deployment instead of hard-wiring GWTS.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/common.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "net/process.hpp"
#include "obs/registry.hpp"
#include "store/body_store.hpp"

namespace bla::checkpoint {
class CheckpointManager;
}  // namespace bla::checkpoint

namespace bla::core {

/// One emitted decision of the engine's non-decreasing chain.
struct Decision {
  ValueSet set;
  std::uint64_t round = 0;
  double time = 0.0;
};

class IAgreementEngine : public net::IProcess {
public:
  using DecideFn = std::function<void(const Decision&)>;

  /// The paper's new_value(v): enqueue for the next round's batch.
  virtual void submit(Value value) = 0;

  [[nodiscard]] virtual const ValueSet& decided_set() const = 0;
  [[nodiscard]] virtual const std::vector<Decision>& decisions() const = 0;

  /// True iff `set` is provably accepted by a Byzantine quorum — the test
  /// the RSM confirmation plug-in (Alg. 7) performs before acknowledging
  /// a client's read. GWTS answers from its reliably broadcast ack
  /// history; GSbS from the `decided` certificates it has seen.
  [[nodiscard]] virtual bool is_committed(const ValueSet& set) const = 0;

  /// The engine's checkpoint manager, when checkpointing is enabled
  /// (EngineConfig::checkpoint_interval > 0); null otherwise. Exposed so
  /// the soak/fuzz harnesses can assert on checkpoint progress and
  /// laggard adoption without widening the engine contract.
  [[nodiscard]] virtual const checkpoint::CheckpointManager* checkpoints()
      const {
    return nullptr;
  }
};

/// Digest of a set's canonical encoding (cardinality + sorted elements,
/// the encode_value_set format). Engines key their commit evidence on
/// this instead of deep element copies: decisions are *cumulative*, so
/// storing every committed set's full element vector would cost
/// O(rounds × total-state-bytes) per replica — quadratic once elements
/// are multi-KB command batches — while 32 bytes per entry answers the
/// exact-equality is_committed() query identically.
[[nodiscard]] inline crypto::Sha256::Digest committed_set_digest(
    const std::vector<Value>& sorted_elems) {
  wire::Encoder enc;
  lattice::encode_sorted_values(enc, sorted_elems);
  return crypto::Sha256::hash(std::span(enc.view()));
}

enum class EngineKind : std::uint8_t { kGwts, kGsbs };

struct EngineConfig {
  NodeId self = 0;
  std::size_t n = 0;
  std::size_t f = 0;
  std::uint64_t max_rounds = 0;  // 0 = unbounded
  /// Digest-only dissemination (see src/store/): protocol frames carry
  /// 32-byte body references; missing bodies are pulled on demand.
  /// false = full-frame dissemination (the bytes/command bench baseline).
  bool digest_refs = true;
  /// Shared content-addressed body store. The RSM replica passes its own
  /// (also holding the verify-once memo); engines create one when null.
  std::shared_ptr<store::BodyStore> store;
  /// Observability registry threaded down to the engine (and through it
  /// to RBC / fetcher). Engines create a private one when null.
  std::shared_ptr<obs::Registry> registry;
  /// Opt-in lossy-link recovery (see core::RecoveryConfig). Default off.
  RecoveryConfig recovery;
  /// Checkpoint + unified GC (src/checkpoint/): commit the decided set
  /// each time it grows this many elements, then collapse downstream
  /// state (store eviction, [root]+delta frames, Bracha epoch expiry).
  /// 0 = disabled.
  std::size_t checkpoint_interval = 0;
};

/// Builds an engine. `signer` is required for kGsbs (its protocol signs
/// every batch and ack) and ignored for kGwts; passing a null signer with
/// kGsbs throws std::invalid_argument.
[[nodiscard]] std::unique_ptr<IAgreementEngine> make_engine(
    EngineKind kind, const EngineConfig& config,
    std::shared_ptr<const crypto::ISigner> signer,
    IAgreementEngine::DecideFn on_decide);

}  // namespace bla::core
