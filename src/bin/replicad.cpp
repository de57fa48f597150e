// replicad — one RSM replica as an OS process over the socket transport.
//
//     replicad --config cluster.conf --id 2 [options]
//
// Options:
//   --config <file>      cluster description (see net/cluster_config.hpp)
//   --id <id>            this replica's id in [0, n)
//   --obs-dump <file>    write the obs::Registry JSON there on shutdown
//                        ("-" = stdout); the smoke script greps it for
//                        checkpoint/recovery evidence
//   --drop / --dup / --reorder <p>
//                        wrap the replica in fault::FaultyNetwork with
//                        these per-link probabilities (netem-style loss
//                        without root; composes the PR 7 decorator over
//                        the real socket backend)
//   --fault-seed <s>     seed for the fault plan (default 1)
//
// Lifecycle: SIGTERM/SIGINT trigger a graceful drain (SocketNetwork::
// stop flushes queues for up to drain_timeout) and exit 0 — the clean
// path CI asserts. Both signals are blocked before the event-loop thread
// exists (it inherits the mask) and main takes them with sigwait, so no
// thread can swallow one. kill -9 is the crash path: no drain, no dump;
// on restart the replica rejoins through the checkpoint catch-up
// protocol (kCkptPull/kCkptSnapshot) and the cluster's recovery layer.

#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/engine.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "fault/fault.hpp"
#include "net/cluster_config.hpp"
#include "net/socket_network.hpp"
#include "obs/registry.hpp"
#include "rsm/replica.hpp"

using namespace bla;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config <file> --id <id> [--obs-dump <file|->]\n"
               "          [--drop <p>] [--dup <p>] [--reorder <p>]"
               " [--fault-seed <s>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string obs_dump;
  long id = -1;
  fault::FaultPlan plan;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--config" && (v = next())) {
      config_path = v;
    } else if (arg == "--id" && (v = next())) {
      id = std::strtol(v, nullptr, 10);
    } else if (arg == "--obs-dump" && (v = next())) {
      obs_dump = v;
    } else if (arg == "--drop" && (v = next())) {
      plan.default_link.drop = std::strtod(v, nullptr);
    } else if (arg == "--dup" && (v = next())) {
      plan.default_link.duplicate = std::strtod(v, nullptr);
    } else if (arg == "--reorder" && (v = next())) {
      plan.default_link.reorder = std::strtod(v, nullptr);
    } else if (arg == "--fault-seed" && (v = next())) {
      plan.seed = std::strtoull(v, nullptr, 10);
    } else {
      return usage(argv[0]);
    }
  }
  if (config_path.empty() || id < 0) return usage(argv[0]);

  std::string err;
  const auto cluster = net::load_cluster_config(config_path, &err);
  if (!cluster) {
    std::fprintf(stderr, "replicad: bad config: %s\n", err.c_str());
    return 2;
  }
  if (static_cast<std::size_t>(id) >= cluster->n) {
    std::fprintf(stderr, "replicad: id %ld out of range [0, %zu)\n", id,
                 cluster->n);
    return 2;
  }

  const auto self = static_cast<net::NodeId>(id);
  auto registry = std::make_shared<obs::Registry>();
  // Which SHA-256 kernel this replica's measurements ran on.
  registry->gauge("crypto/sha256_hw")
      .set(crypto::sha256_kernel() == "sha-ni" ? 1.0 : 0.0);

  // Every process derives the same deterministic signer set from the
  // shared (scheme, seed) — the config file is the key ceremony. The set
  // is sized past n so client batch signatures (ids n..n+max_clients)
  // verify; derivation is per-id, so oversizing changes no replica key.
  const std::size_t signer_count = cluster->n + cluster->max_clients;
  const auto signers =
      cluster->key_scheme == "ed25519"
          ? crypto::make_ed25519_signer_set(signer_count, cluster->key_seed)
          : crypto::make_hmac_signer_set(signer_count, cluster->key_seed);

  rsm::ReplicaConfig rc;
  rc.self = self;
  rc.n = cluster->n;
  rc.f = cluster->f;
  rc.engine = cluster->engine == "gsbs" ? core::EngineKind::kGsbs
                                        : core::EngineKind::kGwts;
  rc.signer = signers->signer_for(self);
  rc.digest_refs = true;
  rc.digest_decide_notifications = true;
  rc.registry = registry;
  // Recovery ticks are in the runtime's now() units — wall seconds on
  // sockets, so the simulation defaults (tick=8) would mean multi-minute
  // stalls. Sub-second ticks make kill -9 recovery land in ~1s.
  rc.recovery.enabled = true;
  rc.recovery.tick = 0.25;
  rc.recovery.stall_after = 0.5;
  rc.checkpoint_interval = cluster->checkpoint_interval;

  std::unique_ptr<net::IProcess> proc =
      std::make_unique<rsm::RsmReplica>(rc);
  // The fault decorator composes over the socket backend exactly as over
  // the simulator — wrap before hosting.
  fault::FaultyNetwork faults(plan, registry);
  if (!plan.empty()) proc = faults.wrap(std::move(proc));

  net::SocketNetwork::Config nc;
  nc.self = self;
  nc.cluster_n = cluster->n;
  nc.peers = cluster->replicas;
  nc.listen = cluster->replicas[self];
  // The transport accepts the same client-id range the signer set
  // covers; a hello past the cap is rejected before it can widen the
  // broadcast fan-out.
  nc.max_clients = cluster->max_clients;
  nc.seed = cluster->key_seed * 1000003ULL + self;
  nc.registry = registry;
  net::SocketNetwork net(std::move(nc));
  net.host(std::move(proc));
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGTERM);
  sigaddset(&shutdown_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);
  try {
    net.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replicad: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "replicad: node %u listening on %s (n=%zu f=%zu %s)\n",
               self, cluster->replicas[self].c_str(), cluster->n, cluster->f,
               cluster->engine.c_str());

  int signal_number = 0;
  sigwait(&shutdown_signals, &signal_number);

  std::fprintf(stderr, "replicad: node %u draining\n", self);
  net.stop();

  if (!obs_dump.empty()) {
    const std::string json = registry->to_json();
    if (obs_dump == "-") {
      std::fwrite(json.data(), 1, json.size(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::ofstream out(obs_dump);
      out << json << "\n";
    }
  }
  std::fprintf(stderr, "replicad: node %u stopped cleanly\n", self);
  return 0;
}
