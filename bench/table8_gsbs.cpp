// T8 — §8.2: generalized SbS keeps the signature dividend — O(f·n)
// messages per decision per proposer instead of GWTS's O(f·n²) — by
// replacing the ack reliable broadcast with signed point-to-point acks
// plus broadcast `decided` certificates. Side-by-side sweep against GWTS
// on identical workloads.

#include "bench_util.hpp"
#include "core/gsbs.hpp"
#include "crypto/signer.hpp"
#include "net/sim_network.hpp"
#include "testutil/properties.hpp"
#include "testutil/scenario.hpp"

using namespace bla;

namespace {

struct Result {
  bool live = true;
  bool safe = true;
  double msgs_per_decision_per_proc = 0;
  double bytes_per_proc = 0;
};

Result run_gsbs(std::size_t n, std::size_t f, std::uint64_t rounds) {
  auto signers = crypto::make_hmac_signer_set(n, 1);
  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<core::GsbsProcess*> correct;
  for (net::NodeId id = 0; id < n; ++id) {
    if (id >= n - f) {
      net.add_process(std::make_unique<core::SilentProcess>());
      continue;
    }
    // One value per round, the next one submitted from the decide
    // callback (as GwtsScenario feeds GWTS): rounds start on demand, so
    // every round the table counts must carry one.
    const auto value = [id](std::uint64_t round) {
      wire::Encoder v;
      v.str("t8");
      v.u32(id);
      v.u64(round);
      return v.take();
    };
    auto holder = std::make_shared<core::GsbsProcess*>(nullptr);
    auto proc = std::make_unique<core::GsbsProcess>(
        core::EngineConfig{id, n, f, rounds}, signers->signer_for(id),
        [holder, value, rounds](const core::Decision& d) {
          if (d.round + 1 < rounds) (*holder)->submit(value(d.round + 1));
        });
    *holder = proc.get();
    proc->submit(value(0));
    correct.push_back(proc.get());
    net.add_process(std::move(proc));
  }
  net.run();

  Result r;
  std::vector<core::ValueSet> all;
  for (const auto* proc : correct) {
    // Engines record only set-growing decisions, so count completed
    // rounds (the round budget must be exhausted) plus at least one
    // recorded decision, not one record per round.
    r.live = r.live && proc->current_round() >= rounds &&
             !proc->decisions().empty();
    for (const auto& d : proc->decisions()) all.push_back(d.set);
  }
  r.safe = testutil::check_comparability(all).empty();
  r.msgs_per_decision_per_proc =
      static_cast<double>(net.total_messages()) / static_cast<double>(n) /
      static_cast<double>(rounds);
  r.bytes_per_proc = static_cast<double>(net.total_bytes()) /
                     static_cast<double>(n) / static_cast<double>(rounds);
  return r;
}

Result run_gwts(std::size_t n, std::size_t f, std::uint64_t rounds) {
  testutil::GwtsScenarioOptions options;
  options.n = n;
  options.f = f;
  options.rounds = rounds;
  options.settle_rounds = 0;
  testutil::GwtsScenario scenario(std::move(options));
  scenario.run();
  Result r;
  r.live = scenario.all_completed_rounds();
  r.safe = true;
  r.msgs_per_decision_per_proc =
      static_cast<double>(scenario.network().total_messages()) /
      static_cast<double>(n) / static_cast<double>(rounds);
  r.bytes_per_proc = static_cast<double>(scenario.network().total_bytes()) /
                     static_cast<double>(n) / static_cast<double>(rounds);
  return r;
}

}  // namespace

int main() {
  bench::header("T8 / §8.2 — GSbS: O(f*n) msgs/decision/proposer vs GWTS",
                "signed p2p acks + decided certificates replace the ack "
                "RBC: linear (not quadratic) per-proposer traffic");

  bool all_ok = true;
  bench::row("%4s %4s | %14s %12s | %14s %12s | %8s", "n", "f",
             "gsbs msg/d/p", "gsbs B/p", "gwts msg/d/p", "gwts B/p", "win");

  std::vector<double> gsbs_msgs;
  for (const std::size_t n : {4u, 8u, 16u, 24u, 32u}) {
    const std::size_t f = 1;
    const Result gsbs = run_gsbs(n, f, /*rounds=*/2);
    const Result gwts = run_gwts(n, f, /*rounds=*/2);
    all_ok = all_ok && gsbs.live && gsbs.safe && gwts.live;
    gsbs_msgs.push_back(gsbs.msgs_per_decision_per_proc);
    bench::row("%4zu %4zu | %14.0f %12.0f | %14.0f %12.0f | %8s", n, f,
               gsbs.msgs_per_decision_per_proc, gsbs.bytes_per_proc,
               gwts.msgs_per_decision_per_proc, gwts.bytes_per_proc,
               gsbs.msgs_per_decision_per_proc <
                       gwts.msgs_per_decision_per_proc
                   ? "GSbS"
                   : "GWTS");
  }
  // Linearity: doubling n must not quadruple GSbS per-proposer messages.
  for (std::size_t i = 1; i < gsbs_msgs.size(); ++i) {
    all_ok = all_ok && gsbs_msgs[i] < gsbs_msgs[i - 1] * 3.0;
  }

  bench::verdict(all_ok,
                 "GSbS per-proposer messages grow linearly in n and "
                 "undercut GWTS at every size (paying in message bytes)");
  return all_ok ? 0 : 1;
}
