#include "testutil/socket_scenario.hpp"

#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "net/conn.hpp"
#include "rsm/command.hpp"

namespace bla::testutil {

// ---------------------------------------------------------------------------
// LoopbackHost
// ---------------------------------------------------------------------------

LoopbackHost::LoopbackHost(std::size_t members, std::uint64_t seed,
                           std::shared_ptr<obs::Registry> registry)
    : members_(members),
      seed_(seed),
      registry_(registry ? std::move(registry)
                         : std::make_shared<obs::Registry>()) {
  // Bind everything on port 0 first; only then is there an address map.
  for (std::size_t id = 0; id < members_; ++id) {
    const int fd = net::listen_on(net::SocketAddr{"127.0.0.1", 0});
    if (fd < 0) throw std::runtime_error("LoopbackHost: bind failed");
    listen_fds_.push_back(fd);
    ports_.push_back(net::local_port(fd));
    peer_addrs_.push_back("127.0.0.1:" + std::to_string(ports_.back()));
  }
}

LoopbackHost::~LoopbackHost() {
  kill();
  for (const int fd : listen_fds_) {
    if (fd >= 0) ::close(fd);  // never handed to a network
  }
}

net::SocketNetwork& LoopbackHost::host(
    net::NodeId id, std::unique_ptr<net::IProcess> process) {
  if (id >= nets_.size()) nets_.resize(id + 1);
  if (nets_[id]) throw std::logic_error("LoopbackHost: id already hosted");
  net::SocketNetwork::Config nc;
  nc.self = id;
  nc.cluster_n = members_;
  nc.peers = peer_addrs_;
  if (id < members_) {
    if (listen_fds_[id] < 0) {
      // Rebind the original port so the survivors' address maps stay
      // right. The dying listener may linger a moment; retry briefly.
      for (int attempt = 0; attempt < 100 && listen_fds_[id] < 0;
           ++attempt) {
        listen_fds_[id] =
            net::listen_on(net::SocketAddr{"127.0.0.1", ports_[id]});
        if (listen_fds_[id] < 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      if (listen_fds_[id] < 0) {
        throw std::runtime_error("LoopbackHost: rebind failed");
      }
    }
    nc.listen_fd = listen_fds_[id];
    listen_fds_[id] = -1;  // the network owns (and closes) it now
  }
  nc.max_clients = kMaxLoopbackClients;
  nc.seed = seed_ * 1000003ULL + incarnations_++;
  nc.reconnect_base = 0.02;
  nc.reconnect_max = 0.5;
  nc.registry = registry_;
  nets_[id] = std::make_unique<net::SocketNetwork>(std::move(nc));
  nets_[id]->host(std::move(process));
  nets_[id]->start();
  return *nets_[id];
}

void LoopbackHost::host_all(
    std::vector<std::unique_ptr<net::IProcess>> processes) {
  for (std::size_t id = 0; id < processes.size(); ++id) {
    host(static_cast<net::NodeId>(id), std::move(processes[id]));
  }
}

void LoopbackHost::remove(net::NodeId id, bool abrupt) {
  if (!hosted(id)) return;
  if (abrupt) {
    nets_[id]->kill();
  } else {
    nets_[id]->stop();
  }
  nets_[id].reset();  // the process dies with its network
}

void LoopbackHost::stop() {
  for (auto& net : nets_) {
    if (net && net->running()) net->stop();
  }
}

void LoopbackHost::kill() {
  for (auto& net : nets_) {
    if (net && net->running()) net->kill();
  }
}

// ---------------------------------------------------------------------------
// SocketCluster
// ---------------------------------------------------------------------------

SocketCluster::SocketCluster(SocketClusterOptions options)
    : options_(options),
      signers_(crypto::make_hmac_signer_set(
          options.n + kMaxLoopbackClients, options.seed)),
      host_(options.n, options.seed) {
  if (!options_.replica_faults.empty()) {
    faults_ = std::make_unique<fault::FaultyNetwork>(options_.replica_faults,
                                                     host_.registry());
  }
}

std::unique_ptr<net::IProcess> SocketCluster::make_replica(std::size_t id) {
  rsm::ReplicaConfig rc;
  rc.self = static_cast<net::NodeId>(id);
  rc.n = options_.n;
  rc.f = options_.f;
  rc.engine = options_.engine;
  rc.signer = signers_->signer_for(static_cast<net::NodeId>(id));
  rc.digest_refs = true;
  rc.digest_decide_notifications = true;
  rc.registry = host_.registry();
  rc.recovery.enabled = true;
  rc.recovery.tick = options_.recovery_tick;
  rc.recovery.stall_after = options_.recovery_stall_after;
  rc.checkpoint_interval = options_.checkpoint_interval;
  std::unique_ptr<net::IProcess> proc =
      std::make_unique<rsm::RsmReplica>(rc);
  if (faults_) proc = faults_->wrap(std::move(proc));
  return proc;
}

void SocketCluster::start() {
  for (std::size_t id = 0; id < options_.n; ++id) restart(id);
}

void SocketCluster::stop() { host_.stop(); }

void SocketCluster::crash(std::size_t id) {
  host_.remove(static_cast<net::NodeId>(id), /*abrupt=*/true);
}

void SocketCluster::restart(std::size_t id) {
  const auto self = static_cast<net::NodeId>(id);
  if (!host_.hosted(self)) host_.host(self, make_replica(id));
}

SocketCluster::ClientResult SocketCluster::run_client(
    std::size_t commands, double timeout_sec, std::size_t client_index) {
  const auto self =
      static_cast<net::NodeId>(options_.n + client_index);
  std::vector<lattice::Value> workload;
  workload.reserve(commands);
  for (std::size_t k = 0; k < commands; ++k) {
    rsm::Command cmd;
    cmd.client = self;
    cmd.seq = k;
    cmd.payload = wire::Bytes{static_cast<std::uint8_t>(k),
                              static_cast<std::uint8_t>(k >> 8),
                              static_cast<std::uint8_t>(client_index)};
    workload.push_back(rsm::encode_command(cmd));
  }

  batch::BatchClient::Config cc;
  cc.self = self;
  cc.n = options_.n;
  cc.f = options_.f;
  cc.builder.max_commands = 16;
  cc.max_in_flight = 4;
  cc.registry = host_.registry();
  cc.retry.enabled = true;
  cc.retry.deadline = 0.5;
  cc.retry.backoff = 1.5;
  cc.retry.max_attempts = 12;
  cc.retry.tick = 0.1;
  auto client = std::make_unique<batch::BatchClient>(
      cc, signers_->signer_for(self), std::move(workload));
  batch::BatchClient* raw = client.get();
  net::SocketNetwork& cnet = host_.host(self, std::move(client));

  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(timeout_sec);
  while (!raw->done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ClientResult result;
  result.done = raw->done();
  cnet.call([&] {
    result.submitted = raw->commands_submitted();
    result.dropped = raw->commands_dropped();
    result.failed = raw->pipeline().commands_failed();
  });
  host_.remove(self, /*abrupt=*/false);
  return result;
}

std::uint64_t SocketCluster::counter(const std::string& name) const {
  return host_.registry()->counter(name).value();
}

}  // namespace bla::testutil
