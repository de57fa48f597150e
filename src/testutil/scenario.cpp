#include "testutil/scenario.hpp"

#include <algorithm>

namespace bla::testutil {

core::Value proposal_value(net::NodeId id) {
  wire::Encoder enc;
  enc.str("v");
  enc.u32(id);
  return enc.take();
}

namespace {

std::unique_ptr<net::IProcess> make_adversary(const ScenarioOptions& options,
                                              net::NodeId id) {
  if (options.adversary) {
    auto p = options.adversary(id);
    if (p) return p;
  }
  return std::make_unique<core::SilentProcess>();
}

}  // namespace

// ---------------------------------------------------------------------------
// WtsScenario.
// ---------------------------------------------------------------------------

WtsScenario::WtsScenario(ScenarioOptions options)
    : options_(std::move(options)) {
  net::SimNetwork::Config cfg;
  cfg.seed = options_.seed;
  cfg.delay = std::move(options_.delay);
  net_ = std::make_unique<net::SimNetwork>(std::move(cfg));

  for (net::NodeId id = 0; id < options_.n; ++id) {
    if (options_.is_byzantine(id)) {
      net_->add_process(make_adversary(options_, id));
    } else {
      auto process = std::make_unique<core::WtsProcess>(
          core::WtsConfig{id, options_.n, options_.f}, proposal_value(id));
      correct_.push_back(process.get());
      correct_ids_.push_back(id);
      net_->add_process(std::move(process));
    }
  }
}

std::uint64_t WtsScenario::run(std::uint64_t max_events) {
  return net_->run(max_events);
}

bool WtsScenario::all_correct_decided() const {
  return std::all_of(correct_.begin(), correct_.end(),
                     [](const auto* p) { return p->has_decided(); });
}

std::vector<core::ValueSet> WtsScenario::decisions() const {
  std::vector<core::ValueSet> out;
  for (const auto* p : correct_) {
    if (p->has_decided()) out.push_back(p->decision());
  }
  return out;
}

core::ValueSet WtsScenario::correct_inputs() const {
  core::ValueSet out;
  for (net::NodeId id : correct_ids_) out.insert(proposal_value(id));
  return out;
}

double WtsScenario::max_decide_time() const {
  double worst = 0.0;
  for (const auto* p : correct_) {
    worst = std::max(worst, p->decide_time());
  }
  return worst;
}

// ---------------------------------------------------------------------------
// GwtsScenario.
// ---------------------------------------------------------------------------

GwtsScenario::GwtsScenario(GwtsScenarioOptions options)
    : options_(std::move(options)) {
  net::SimNetwork::Config cfg;
  cfg.seed = options_.seed;
  cfg.delay = std::move(options_.delay);
  net_ = std::make_unique<net::SimNetwork>(std::move(cfg));

  for (net::NodeId id = 0; id < options_.n; ++id) {
    if (options_.is_byzantine(id)) {
      net_->add_process(make_adversary(options_, id));
      continue;
    }
    // Values are tagged (node, round, k) so they are unique. The chunk
    // for round 0 is submitted before start; the chunk for round r ≥ 1 is
    // submitted from inside the decide callback of round r−1, while the
    // process is still in round r−1 — so it lands in Batch[r] exactly as
    // the paper's new_value event would during live operation.
    std::vector<core::Value> mine;
    for (std::uint64_t r = 0; r < options_.rounds; ++r) {
      for (std::size_t k = 0; k < options_.values_per_round; ++k) {
        wire::Encoder enc;
        enc.str("g");
        enc.u32(id);
        enc.u64(r);
        enc.uvarint(k);
        mine.push_back(enc.take());
      }
    }
    submitted_.push_back(mine);

    struct FeedState {
      core::GwtsProcess* proc = nullptr;
      std::vector<core::Value> values;
      std::size_t per_round = 1;
      std::size_t next_chunk = 1;
    };
    auto state = std::make_shared<FeedState>();
    state->values = mine;
    state->per_round = options_.values_per_round;

    auto process = std::make_unique<core::GwtsProcess>(
        core::EngineConfig{id, options_.n, options_.f,
                           options_.rounds + options_.settle_rounds},
        [state](const core::GwtsProcess::Decision&) {
          const std::size_t begin = state->next_chunk * state->per_round;
          if (begin >= state->values.size()) return;
          for (std::size_t k = 0; k < state->per_round; ++k) {
            state->proc->submit(state->values[begin + k]);
          }
          state->next_chunk += 1;
        });
    state->proc = process.get();
    correct_.push_back(process.get());
    for (std::size_t k = 0; k < options_.values_per_round; ++k) {
      process->submit(mine[k]);
    }
    net_->add_process(std::move(process));
  }
}

std::uint64_t GwtsScenario::run(std::uint64_t max_events) {
  return net_->run(max_events);
}

bool GwtsScenario::all_completed_rounds() const {
  return std::all_of(correct_.begin(), correct_.end(), [&](const auto* p) {
    return p->decisions().size() >= options_.rounds;
  });
}

core::ValueSet GwtsScenario::correct_inputs() const {
  core::ValueSet out;
  for (const auto& values : submitted_) {
    for (const core::Value& v : values) out.insert(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SbsScenario.
// ---------------------------------------------------------------------------

SbsScenario::SbsScenario(SbsScenarioOptions options)
    : options_(std::move(options)) {
  signers_ = options_.use_ed25519
                 ? crypto::make_ed25519_signer_set(options_.n, options_.seed)
                 : crypto::make_hmac_signer_set(options_.n, options_.seed);

  net::SimNetwork::Config cfg;
  cfg.seed = options_.seed;
  cfg.delay = std::move(options_.delay);
  net_ = std::make_unique<net::SimNetwork>(std::move(cfg));

  for (net::NodeId id = 0; id < options_.n; ++id) {
    if (options_.is_byzantine(id)) {
      net_->add_process(make_adversary(options_, id));
      continue;
    }
    auto process = std::make_unique<core::SbsProcess>(
        core::SbsConfig{id, options_.n, options_.f}, proposal_value(id),
        signers_->signer_for(id));
    correct_.push_back(process.get());
    correct_ids_.push_back(id);
    net_->add_process(std::move(process));
  }
}

std::uint64_t SbsScenario::run(std::uint64_t max_events) {
  return net_->run(max_events);
}

bool SbsScenario::all_correct_decided() const {
  return std::all_of(correct_.begin(), correct_.end(),
                     [](const auto* p) { return p->has_decided(); });
}

std::vector<core::ValueSet> SbsScenario::decisions() const {
  std::vector<core::ValueSet> out;
  for (const auto* p : correct_) {
    if (p->has_decided()) out.push_back(p->decision());
  }
  return out;
}

core::ValueSet SbsScenario::correct_inputs() const {
  core::ValueSet out;
  for (net::NodeId id : correct_ids_) out.insert(proposal_value(id));
  return out;
}

double SbsScenario::max_decide_time() const {
  double worst = 0.0;
  for (const auto* p : correct_) {
    worst = std::max(worst, p->decide_time());
  }
  return worst;
}

}  // namespace bla::testutil
