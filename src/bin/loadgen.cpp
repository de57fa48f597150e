// loadgen — drives batch::BatchClient against a replicad cluster over
// the socket transport and reports throughput + latency quantiles.
//
//     loadgen --config cluster.conf --commands 2000 [options]
//
// Options:
//   --config <file>    cluster description (same file the replicas use)
//   --commands <N>     commands per client (default 1000)
//   --clients <C>      concurrent clients, ids n+id_base.. (default 1)
//   --id-base <k>      client id offset (run several loadgen processes
//                      against one cluster without id collisions)
//   --rate <r>         per-client target rate in commands/sec; 0 = open
//                      throttle (default 0)
//   --batch <k>        max commands per sealed batch (default 16)
//   --window <K>       batches in flight per client (default 4)
//   --payload <bytes>  value padding (default 64)
//   --timeout <sec>    give up after this long (default 120)
//   --json             machine-readable result on stdout
//
// Latency comes from the client-side obs lifecycle: each batch is marked
// at seal (handed to the f+1 fan-out) and confirm (f+1 replicas reported
// it decided), so "latency/seal_to_confirm" is a batch's commit latency.
// With --rate, each command also falls due on the client's pacing grid,
// and "latency/due_to_confirm" times it from then to its batch's
// confirm: the latency a user sees, waiting to seal included. p50/p99
// are read from the registry's log-bucketed histograms — the same
// numbers to_json() exports.
//
// Exit status: 0 iff every client finished with zero dropped and zero
// failed commands inside the timeout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/client.hpp"
#include "crypto/signer.hpp"
#include "net/cluster_config.hpp"
#include "net/socket_network.hpp"
#include "obs/registry.hpp"
#include "rsm/command.hpp"
#include "wire/wire.hpp"

using namespace bla;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config <file> [--commands N] [--clients C]\n"
               "          [--id-base k] [--rate r] [--batch k] [--window K]\n"
               "          [--payload bytes] [--timeout sec] [--json]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::size_t commands = 1000;
  std::size_t clients = 1;
  std::size_t id_base = 0;
  double rate = 0.0;
  std::size_t batch = 16;
  std::size_t window = 4;
  std::size_t payload = 64;
  double timeout = 120.0;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--config" && (v = next())) {
      config_path = v;
    } else if (arg == "--commands" && (v = next())) {
      commands = std::strtoull(v, nullptr, 10);
    } else if (arg == "--clients" && (v = next())) {
      clients = std::strtoull(v, nullptr, 10);
    } else if (arg == "--id-base" && (v = next())) {
      id_base = std::strtoull(v, nullptr, 10);
    } else if (arg == "--rate" && (v = next())) {
      rate = std::strtod(v, nullptr);
    } else if (arg == "--batch" && (v = next())) {
      batch = std::strtoull(v, nullptr, 10);
    } else if (arg == "--window" && (v = next())) {
      window = std::strtoull(v, nullptr, 10);
    } else if (arg == "--payload" && (v = next())) {
      payload = std::strtoull(v, nullptr, 10);
    } else if (arg == "--timeout" && (v = next())) {
      timeout = std::strtod(v, nullptr);
    } else if (arg == "--json") {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (config_path.empty() || clients == 0 || commands == 0) {
    return usage(argv[0]);
  }

  std::string err;
  const auto cluster = net::load_cluster_config(config_path, &err);
  if (!cluster) {
    std::fprintf(stderr, "loadgen: bad config: %s\n", err.c_str());
    return 2;
  }

  // Clients sign batches with their own deterministic key from the same
  // derivation the replicas use to verify them: the signer set covers
  // ids [0, n + clients_total); the config seed is the shared secret.
  const std::size_t signer_count = cluster->n + id_base + clients;
  const auto signers =
      cluster->key_scheme == "ed25519"
          ? crypto::make_ed25519_signer_set(signer_count, cluster->key_seed)
          : crypto::make_hmac_signer_set(signer_count, cluster->key_seed);

  auto registry = std::make_shared<obs::Registry>();

  struct ClientRig {
    std::unique_ptr<net::SocketNetwork> net;
    batch::BatchClient* client = nullptr;
  };
  std::vector<ClientRig> rigs;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto self =
        static_cast<net::NodeId>(cluster->n + id_base + c);
    std::vector<lattice::Value> workload;
    workload.reserve(commands);
    for (std::size_t k = 0; k < commands; ++k) {
      rsm::Command cmd;
      cmd.client = self;
      cmd.seq = k;
      cmd.payload = wire::Bytes(payload, static_cast<std::uint8_t>(k));
      workload.push_back(rsm::encode_command(cmd));
    }

    batch::BatchClient::Config cc;
    cc.self = self;
    cc.n = cluster->n;
    cc.f = cluster->f;
    cc.builder.max_commands = batch;
    cc.max_in_flight = window;
    cc.registry = registry;
    // Sockets lose frames (kill -9, shed queues), so retry is on, with
    // deadlines in wall seconds rather than the simulation defaults.
    cc.retry.enabled = true;
    cc.retry.deadline = 2.0;
    cc.retry.backoff = 1.5;
    cc.retry.max_attempts = 10;
    cc.retry.tick = 0.25;
    if (rate > 0.0) {
      // Ticks of about 50 ms, each releasing a whole number of commands,
      // spaced so the client offers exactly `rate`.
      cc.pace_commands = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(rate * 0.05)));
      cc.pace_interval = static_cast<double>(cc.pace_commands) / rate;
    }
    auto client = std::make_unique<batch::BatchClient>(
        cc, signers->signer_for(self), std::move(workload));
    ClientRig rig;
    rig.client = client.get();

    net::SocketNetwork::Config nc;
    nc.self = self;
    nc.cluster_n = cluster->n;
    nc.peers = cluster->replicas;
    nc.seed = cluster->key_seed * 7919ULL + self;
    nc.registry = registry;
    rig.net = std::make_unique<net::SocketNetwork>(std::move(nc));
    rig.net->host(std::move(client));
    rigs.push_back(std::move(rig));
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (auto& rig : rigs) rig.net->start();

  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  bool all_done = false;
  while (!all_done && elapsed() < timeout) {
    all_done = true;
    for (auto& rig : rigs) {
      if (!rig.client->done()) all_done = false;
    }
    if (!all_done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const double wall = elapsed();

  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  std::uint64_t submitted = 0;
  // Confirmed by the decide quorum, not merely sent and not yet failed: a
  // client that timed out with batches still in flight committed none of
  // them.
  std::uint64_t committed = 0;
  for (auto& rig : rigs) {
    // call() runs on the loop thread: pipeline()/builder() are not
    // atomic.
    rig.net->call([&] {
      dropped += rig.client->commands_dropped();
      failed += rig.client->pipeline().commands_failed();
      submitted += rig.client->commands_submitted();
      committed += rig.client->pipeline().commands_completed();
    });
  }
  for (auto& rig : rigs) rig.net->stop();

  const double throughput = wall > 0.0 ? committed / wall : 0.0;
  const auto lat =
      registry->histogram("latency/seal_to_confirm").snapshot();
  const auto due =
      registry->histogram("latency/due_to_confirm").snapshot();
  const bool ok = all_done && dropped == 0 && failed == 0;

  if (json) {
    std::printf(
        "{\"ok\": %s, \"clients\": %zu, \"commands\": %llu, "
        "\"committed\": %llu, \"dropped\": %llu, \"failed\": %llu, "
        "\"wall_sec\": %.3f, \"commands_per_sec\": %.1f, "
        "\"latency_count\": %llu, \"latency_p50_ms\": %.3f, "
        "\"latency_p99_ms\": %.3f, \"due_to_confirm_p50_ms\": %.3f, "
        "\"due_to_confirm_p99_ms\": %.3f}\n",
        ok ? "true" : "false", clients,
        static_cast<unsigned long long>(submitted),
        static_cast<unsigned long long>(committed),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(failed), wall, throughput,
        static_cast<unsigned long long>(lat.count),
        lat.quantile(0.5) * 1e3, lat.quantile(0.99) * 1e3,
        due.quantile(0.5) * 1e3, due.quantile(0.99) * 1e3);
  } else {
    std::printf("loadgen: %s — %llu/%llu commands committed in %.2fs "
                "(%.1f cmd/s), batch commit p50=%.2fms p99=%.2fms",
                ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(submitted), wall, throughput,
                lat.quantile(0.5) * 1e3, lat.quantile(0.99) * 1e3);
    if (due.count > 0) {
      std::printf(", due->confirm p50=%.2fms p99=%.2fms",
                  due.quantile(0.5) * 1e3, due.quantile(0.99) * 1e3);
    }
    std::printf("\n");
  }
  return ok ? 0 : 1;
}
