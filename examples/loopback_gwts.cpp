// GWTS on the deployed socket runtime: every process on its own
// SocketNetwork event loop, talking over loopback TCP inside one binary —
// genuine concurrency, no simulated clock. The same protocol objects that
// run on the deterministic simulator run here unchanged; the IProcess
// interface is the only contract.
//
// Seven processes (f=2): five correct proposers streaming values over
// three rounds, one crashed process, one garbage-spamming process.
//
// Build & run:   ./build/examples/example_loopback_gwts

#include <chrono>
#include <cstdio>
#include <thread>

#include "core/adversary.hpp"
#include "core/gwts.hpp"
#include "lattice/lattice.hpp"
#include "testutil/socket_scenario.hpp"

using namespace bla;

int main() {
  constexpr std::size_t n = 7;
  constexpr std::size_t f = 2;
  constexpr std::uint64_t rounds = 3;

  testutil::LoopbackHost host(n);
  std::vector<core::GwtsProcess*> correct;
  for (net::NodeId id = 0; id < n - f; ++id) {
    // Stream one value per round via the decide callback. The callback
    // runs on the process's own event loop, so submit() needs no locking.
    auto holder = std::make_shared<core::GwtsProcess*>(nullptr);
    auto proc = std::make_unique<core::GwtsProcess>(
        core::EngineConfig{id, n, f, rounds},
        [holder, id](const core::GwtsProcess::Decision& d) {
          if (d.round + 1 < rounds) {
            wire::Encoder enc;
            enc.str("stream");
            enc.u32(id);
            enc.u64(d.round + 1);
            (*holder)->submit(enc.take());
          }
        });
    *holder = proc.get();
    wire::Encoder first;
    first.str("stream");
    first.u32(id);
    first.u64(0);
    proc->submit(first.take());
    correct.push_back(proc.get());
    host.host(id, std::move(proc));
  }
  host.host(n - 2, std::make_unique<core::SilentProcess>());
  host.host(n - 1, std::make_unique<core::GarbageSpammer>(123, 128));

  std::printf("GWTS on %zu socket event loops (n=%zu, f=%zu, %llu rounds)...\n",
              n, n, f, static_cast<unsigned long long>(rounds));
  // Decisions live on each loop thread; read them there through call().
  const auto all_decided = [&] {
    bool all = true;
    for (net::NodeId id = 0; id < correct.size(); ++id) {
      host.net(id).call(
          [&] { all = all && correct[id]->decisions().size() >= rounds; });
    }
    return all;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!all_decided() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  host.kill();

  bool ok = true;
  std::vector<core::ValueSet> all;
  for (std::size_t i = 0; i < correct.size(); ++i) {
    const auto& decisions = correct[i]->decisions();
    std::printf("process %zu: %zu decisions, final |set| = %zu\n", i,
                decisions.size(),
                decisions.empty() ? 0 : decisions.back().set.size());
    ok = ok && decisions.size() >= rounds;
    for (const auto& d : decisions) all.push_back(d.set);
    for (std::size_t k = 1; k < decisions.size(); ++k) {
      ok = ok && decisions[k - 1].set.leq(decisions[k].set);
    }
  }
  for (std::size_t i = 0; i < all.size() && ok; ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      ok = ok && lattice::comparable(all[i], all[j]);
    }
  }
  std::printf("\nall rounds decided, chains comparable: %s\n",
              ok ? "yes" : "NO (bug!)");
  return ok ? 0 : 1;
}
